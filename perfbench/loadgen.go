package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed operation: when it started (for an open loop,
// when it was due), how long it took, how late its generator ran, and
// whether it succeeded.
type sample struct {
	at      time.Time
	latency time.Duration
	late    time.Duration
	ok      bool
}

// loadResult collects one load phase.
type loadResult struct {
	samples  []sample // ordered by at
	attempts int
	failed   int
	elapsed  time.Duration
}

func (r *loadResult) latencies(unit time.Duration) []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = float64(s.latency) / float64(unit)
	}
	return out
}

// split cuts a load phase into about w-long equal windows by when each
// operation was due (open loop) or started (closed loop); a phase shorter
// than w is one window. Each window's elapsed is its length.
func (r *loadResult) split(w time.Duration) []loadResult {
	if len(r.samples) == 0 {
		return nil
	}
	n := int(math.Round(float64(r.elapsed) / float64(w)))
	if n < 1 {
		n = 1
	}
	win := r.elapsed / time.Duration(n)
	out := make([]loadResult, n)
	for i := range out {
		out[i].elapsed = win
	}
	start := r.samples[0].at
	for _, s := range r.samples {
		i := int(s.at.Sub(start) / win)
		if i >= n {
			i = n - 1
		}
		out[i].samples = append(out[i].samples, s)
	}
	return out
}

// windowed cuts each phase into about w-long windows, applies f to every
// window and returns the median over all windows of the phases (NaN
// results, from windows f cannot measure, left out). The host runs in
// slow bursts that covered 10 to 20% of the time over a 150 s calibration
// loop: a metric of the whole run — a percentile or a rate — moves with
// how much of the run the bursts happened to cover, while the median
// window is one they missed.
func windowed(phases []loadResult, w time.Duration, f func(win loadResult) float64) float64 {
	var vals []float64
	for i := range phases {
		for _, win := range phases[i].split(w) {
			if v := f(win); !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
	}
	return median(vals)
}

func (r *loadResult) lateness(unit time.Duration) []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = float64(s.late) / float64(unit)
	}
	return out
}

// merge combines per-goroutine results into one, samples ordered by time.
func merge(per []loadResult, elapsed time.Duration) loadResult {
	out := loadResult{elapsed: elapsed}
	for _, r := range per {
		out.samples = append(out.samples, r.samples...)
		out.attempts += r.attempts
		out.failed += r.failed
	}
	sort.Slice(out.samples, func(i, j int) bool { return out.samples[i].at.Before(out.samples[j].at) })
	return out
}

// concat joins the results of successive slices of one load phase.
func concat(slices []loadResult) loadResult {
	var elapsed time.Duration
	for _, r := range slices {
		elapsed += r.elapsed
	}
	return merge(slices, elapsed)
}

// closedLoop runs clients goroutines, each issuing op back to back — the
// next only after the previous one completed — until d has elapsed and
// each client has issued at least minOps operations.
// op(client, i) is the client's i-th operation; it reports failure with
// false. closedLoop returns once every client has finished.
func closedLoop(clients, minOps int, d time.Duration, op func(client, i int) bool) loadResult {
	start := time.Now()
	end := start.Add(d)
	per := make([]loadResult, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &per[c]
			for i := 0; ; i++ {
				t0 := time.Now()
				if i >= minOps && !t0.Before(end) {
					return
				}
				ok := op(c, i)
				r.samples = append(r.samples, sample{at: t0, latency: time.Since(t0), ok: ok})
				r.attempts++
				if !ok {
					r.failed++
				}
			}
		}(c)
	}
	wg.Wait()
	return merge(per, time.Since(start))
}

// maxBacklog bounds how far behind schedule an open loop may fall before
// it gives up on the rest of its schedule: the operations it skips count
// as failed, so a stalled system shows up as failures and lateness rather
// than as an endless run.
const maxBacklog = 5 * time.Second

// stopper ends an open loop whose length is not known when it starts.
type stopper struct {
	done chan struct{}
	at   time.Time
}

func newStopper() *stopper { return &stopper{done: make(chan struct{})} }

func (s *stopper) stop() {
	s.at = time.Now()
	close(s.done)
}

// past reports whether an operation due at due falls after the stop; never
// for a nil stopper.
func (s *stopper) past(due time.Time) bool {
	if s == nil {
		return false
	}
	select {
	case <-s.done:
		return !due.Before(s.at)
	default:
		return false
	}
}

// openLoop issues operations on a fixed schedule — operation k is due at
// start + k/rate — whether or not earlier ones have completed, from a
// pool of workers goroutines (op(worker, k) runs on the worker it names,
// so per-worker scratch needs no locking). Each worker takes the next
// operation as soon as it is free and sleeps until it is due. The
// schedule ends after d, or, with d 0, at stop.
//
// An operation that was already due when a worker became free to take it
// — a backlog, because earlier operations had not completed — is timed
// from its due time, so a stall is charged to every operation due during
// it. An operation a free worker waited for is timed from when it was
// sent: the timer's oversleep (about a millisecond on an idle virtualized
// host, far more than a single query takes) belongs to the generator. How
// late every operation started is recorded as sample.late and reported on
// its own. Operations due before the end are all issued, so a slow system
// shows as latency and lateness, never as a lower rate.
func openLoop(rate float64, d time.Duration, stop *stopper, workers int, op func(worker, k int) bool) loadResult {
	interval := time.Duration(float64(time.Second) / rate)
	total := math.MaxInt
	if d > 0 {
		total = int(d / interval)
	}
	start := time.Now()
	var next atomic.Int64
	per := make([]loadResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &per[w]
			for {
				k := int(next.Add(1) - 1)
				due := start.Add(time.Duration(k) * interval)
				if k >= total || stop.past(due) {
					return
				}
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					if stop.past(due) {
						return
					}
					from = time.Now()
				}
				r.attempts++
				t0 := time.Now()
				if t0.Sub(due) > maxBacklog {
					r.failed++
					continue
				}
				ok := op(w, k)
				r.samples = append(r.samples, sample{at: due, latency: time.Since(from), late: t0.Sub(due), ok: ok})
				if !ok {
					r.failed++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if d == 0 {
		elapsed = stop.at.Sub(start)
	}
	return merge(per, elapsed)
}
