package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"apclassifier/internal/verify"
)

// Load phases. Each runs for a given time (a rule-delta phase for a number
// of batches) and adds what it measured to the run's tallies; a workload
// runs its query and probe phases in rounds, and the tallies become
// metrics when the workload ends.

// rounds is the number of times a workload cycles through its phases.
// The reference host runs in slow and fast stretches of a few seconds; a
// metric taken in one contiguous phase of a few seconds followed
// whichever stretch that phase met (quartile spreads of 0.2 to 0.37 over
// ten runs for the probes of 4 to 6 s), so every phase is cut into slices
// spread over the run instead. With 4 rounds, consecutive one-second
// capacity slices of the same build still differed by up to a third, and
// the medians of five runs spread up to 0.19; 8 rounds sample twice as
// many stretches.
const rounds = 8

// openWindow is the window length of the open-loop latency metrics (see
// windowed). At the frozen rates a window holds 200 to 4,000 operations.
const openWindow = time.Second

// openSpec is one open-loop stream of rate operations per second.
type openSpec struct {
	rate float64
	op   func(wk *worker, k int) bool
}

// streamWorkers sizes an open-loop stream's worker pool: enough workers
// to hold a quarter second of schedule, so operations that wait — on the
// mirrored lock behind a rule update, or on a stalled handler — do not
// hold up later ones; at least 8 and at most 1024. Past that, operations
// wait for a free worker and are timed from their due time.
func streamWorkers(rate float64) int {
	n := int(math.Ceil(rate * 0.25))
	if n < 8 {
		n = 8
	}
	if n > 1024 {
		n = 1024
	}
	return n
}

// deltas sums the change of each of the program's counters over several
// windows.
type deltas map[string]float64

func (d deltas) add(before, after map[string]float64) {
	for k, v := range after {
		d[k] += v - before[k]
	}
}

// openTally gathers the measured open-loop streams of a workload over its
// slices: the query stream and the batch stream.
type openTally struct {
	query, batch []loadResult
	pauseMs      float64 // collector pause time over the slices
}

func (t *openTally) add(rs []loadResult, pauseMs float64) {
	t.query = append(t.query, rs[0])
	t.batch = append(t.batch, rs[1])
	t.pauseMs += pauseMs
}

// runOpen runs each stream as an open loop concurrently with background
// (a closed-loop client, or nil) — for d, or, with d 0, until background
// returns — and returns the streams' results in order and the collector's
// stop-the-world pause time over the phase, ms. It starts from a
// collected heap, so each phase meets the same collector state.
func (b *bench) runOpen(d time.Duration, background func(), specs ...openSpec) ([]loadResult, float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var stop *stopper
	if d == 0 {
		stop = newStopper()
	}
	out := make([]loadResult, len(specs))
	var wg sync.WaitGroup
	for i, sp := range specs {
		ws := b.workers(streamWorkers(sp.rate))
		wg.Add(1)
		go func(i int, sp openSpec) {
			defer wg.Done()
			out[i] = openLoop(sp.rate, d, stop, len(ws), func(w, k int) bool { return sp.op(ws[w], k) })
		}(i, sp)
	}
	if background != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			background()
			if stop != nil {
				stop.stop()
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	for _, r := range out {
		b.record(r)
	}
	return out, float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
}

// warm runs the query path closed-loop for d before anything is timed, so
// the behavior cache is filled and lazily built state exists.
func (b *bench) warm(d time.Duration, lib bool) {
	n := closedClients()
	ws := b.workers(n)
	r := closedLoop(n, 0, d, func(c, i int) bool {
		wk, k := ws[c], i*n+c
		switch {
		case lib && i%2 == 0:
			return b.libBatch(b.live, wk, k)
		case lib:
			return b.libSingle(b.live, wk, k)
		case i%2 == 0:
			return b.httpBatch(wk, k)
		default:
			return b.httpSingle(wk, k)
		}
	})
	b.record(r)
	b.sampled = b.sampled[:0]
}

// capacity measures a slice of query_qps: one closed-loop client sending
// 64-packet batches back to back. One, not two: with two clients on two
// vCPUs the rate followed how the host shared its cores between runs (a
// quartile spread of 0.28 over ten runs, against 0.12 for the batch
// latency), while one client leaves the second vCPU to the collector.
// summarize turns the slices into a rate through their median batch time.
// counterWindow also adds the query-path counters over the slice.
func (b *bench) capacity(d time.Duration, lib, counterWindow bool) {
	const n = 1
	ws := b.workers(n)
	runtime.GC()
	before := counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := closedLoop(n, 0, d, func(c, i int) bool {
		if lib {
			return b.libBatch(b.live, ws[c], i*n+c)
		}
		return b.httpBatch(ws[c], i*n+c)
	})
	runtime.ReadMemStats(&m1)
	after := counters()
	b.record(r)
	pkts := float64((r.attempts - r.failed) * batchSize)
	b.capSlices = append(b.capSlices, r)
	b.capAlloc += float64(m1.TotalAlloc - m0.TotalAlloc)
	b.capPkts += pkts
	if counterWindow {
		b.queryCtr.add(before, after)
		b.queryPkts += pkts
	}
}

// summarize turns the tallies of the capacity, verification and
// rule-delta slices into their metrics.
//
// The two closed-loop rates, query_qps and update_dps, are the operation
// size over the median operation time of all the run's slices, not
// operations over elapsed time. A closed loop's rate over a stretch of
// time counts every collector cycle and every slow burst of the host that
// fell in it: over five runs of each workload the quartile spread of the
// elapsed-time rate was 0.10 to 0.17 (and two sets of ten runs of an
// earlier version saw up to 0.27), against 0.06 for the median batch
// time. The median operation is one that neither met.
func (b *bench) summarize() {
	b.e2e["query_qps"] = batchSize / medianLatency(b.capSlices, time.Second)
	b.layers["runtime.alloc_bytes_per_query"] = b.capAlloc / b.capPkts
	hits := b.queryCtr["apc_behavior_cache_hits_total"]
	misses := b.queryCtr["apc_behavior_cache_misses_total"]
	b.layers["network.cache_lookups"] = hits + misses
	b.layers["network.cache_hit_ratio"] = hits / (hits + misses)
	b.layers["network.walks_per_query"] = b.queryCtr["apc_network_walks_total"] / b.queryPkts
	b.e2e["verify_loops_s"] = median(b.sweeps)
	// The mean, not the median: the targets' costs leave few requests
	// near the middle of the distribution on churn-sf (a third of them
	// between 1.9 and 2.5 ms), so a per-run speed change of a tenth moved
	// the median by a third (quartile spread 0.27 over ten runs, against
	// 0.07 for the p90 and about 0.12 for the mean).
	b.e2e["verify_mean_ms"] = mean(b.targeted)
	b.e2e["verify_p90_ms"] = quantile(b.targeted, 0.9)
	b.updateMetrics()
}

// medianLatency is the median time of the successful operations of the
// given phases, in unit.
func medianLatency(phases []loadResult, unit time.Duration) float64 {
	var lat []float64
	for _, r := range phases {
		for _, s := range r.samples {
			if s.ok {
				lat = append(lat, float64(s.latency)/float64(unit))
			}
		}
	}
	return median(lat)
}

// openMetrics sets the latency metrics of the measured open-loop streams.
func (b *bench) openMetrics(t *openTally) {
	b.latencyMetrics("query", t.query)
	b.latencyMetrics("batch", t.batch)
	b.lateness(concat(t.query), concat(t.batch))
	b.layers["runtime.gc_pause_ms"] = t.pauseMs
}

// latencyMetrics sets the median and p90 latency of an open-loop stream
// over its slices, in µs, each the median over openWindow windows, and
// logs the stream's size and its whole-stream p50, p90, p99 and lateness.
func (b *bench) latencyMetrics(prefix string, slices []loadResult) {
	for _, q := range []float64{0.5, 0.9} {
		b.e2e[fmt.Sprintf("%s_p%.0f_us", prefix, 100*q)] = windowed(slices, openWindow, func(w loadResult) float64 {
			return quantile(w.latencies(time.Microsecond), q)
		})
	}
	r := concat(slices)
	lat := r.latencies(time.Microsecond)
	late := r.lateness(time.Microsecond)
	fmt.Fprintf(os.Stderr, "perfbench: %s stream: %d requests in %v, latency p50 %.0fµs p90 %.0fµs p99 %.0fµs, late p50 %.0fµs p99 %.0fµs\n",
		prefix, len(lat), r.elapsed.Round(time.Millisecond), quantile(lat, 0.5), quantile(lat, 0.9),
		quantile(lat, 0.99), quantile(late, 0.5), quantile(late, 0.99))
}

// lateness records how late the open-loop generators ran (p99, ms).
func (b *bench) lateness(rs ...loadResult) {
	var late []float64
	for _, r := range rs {
		late = append(late, r.lateness(time.Millisecond)...)
	}
	b.layers["loadgen.late_ms"] = quantile(late, 0.99)
}

// updateMetrics derives the update metrics from the run's rule-delta
// phases: the firehose's operations, its tally, and the program's counters
// over them.
func (b *bench) updateMetrics() {
	fh, ctr := &b.fh, b.updCtr
	if fh.batches == 0 {
		b.checkFail("no delta batch applied")
		return
	}
	b.e2e["update_dps"] = churnBatch / medianLatency(b.hoses, time.Second)
	all := concat(b.hoses)
	lat := all.latencies(time.Millisecond)
	b.e2e["update_p90_ms"] = quantile(lat, 0.9)
	fmt.Fprintf(os.Stderr, "perfbench: firehose: %d batches in %v, latency p50 %.1fms p90 %.1fms p99 %.1fms\n",
		len(lat), all.elapsed.Round(time.Millisecond), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99))
	nb := float64(fh.batches)
	pubs := ctr["apc_aptree_snapshot_publishes_total"]
	b.layers["aptree.publishes"] = pubs
	b.layers["aptree.publishes_per_batch"] = pubs / nb
	b.layers["aptree.useful_publish_ratio"] = float64(fh.changed) / pubs
	b.layers["aptree.delta_touched_per_batch"] = ctr["apc_delta_touched_leaves_total"] / nb
	b.layers["aptree.delta_splits_per_batch"] = ctr["apc_delta_splits_total"] / nb
	b.layers["aptree.delta_merges_per_batch"] = ctr["apc_delta_merges_total"] / nb
}

// churn runs the rule-delta firehose (one closed-loop client) until it
// has applied n batches, beside the given open-loop streams and the
// oracle checker, which run until it is done. It adds the firehose's
// operations, tally and counters to the run's update tallies and returns
// the given streams' results and the collector's pause time over the
// phase. The phase's tracer-clock window is kept for the lock-wait layer.
//
// A phase is a number of batches, not a time, so that a run applies the
// same prefix of the stream on any host and any build: with phases of
// fixed length, a faster update path would apply more of the stream, whose
// later batches do not cost what its earlier ones do.
func (b *bench) churn(n int, streams ...openSpec) ([]loadResult, float64) {
	fw := b.workers(1)[0]
	var hose loadResult
	from := b.traceNow()
	before := counters()
	specs := append([]openSpec{{rate: checkRate, op: b.checkOp}}, streams...)
	rs, pause := b.runOpen(0, func() {
		hose = closedLoop(1, n, 0, func(_, _ int) bool { return b.applyNext(fw, &b.fh) })
	}, specs...)
	b.updCtr.add(before, counters())
	b.churnWins = append(b.churnWins, [2]int64{from, b.traceNow()})
	b.record(hose)
	b.hoses = append(b.hoses, hose)
	return rs[1:], pause
}

// checkRate is the oracle checker's rate (operations of checkPerOp
// queries per second) beside rule churn.
const checkRate = 20

// verifyPhase runs the closed-loop verification client for d (and for at
// least one sweep and one targeted request) through the handler, beside
// the given open-loop streams (their results and the collector's pause
// time are returned), adds its request times to the run's tallies, and
// checks every answer against direct Analyzer calls on the same epoch.
// loopFree demands the network be loop-free and every sampled host
// reachable (the fat tree's invariant); otherwise HTTP answers must agree
// with the direct ones.
func (b *bench) verifyPhase(d time.Duration, loopFree bool, streams ...openSpec) ([]loadResult, float64) {
	vw := b.workers(1)[0]
	vl := &verifyLoad{atoms: make(map[int][]int)}
	var vr loadResult
	rs, pause := b.runOpen(d, func() {
		vr = closedLoop(1, 2, d, func(_, i int) bool { return b.verifyOp(vw, vl, i) })
	}, streams...)
	b.record(vr)
	if len(vl.loops) == 0 || len(vl.targeted) == 0 {
		b.checkFail("verification phase incomplete in %v: %d loops, %d targeted", d, len(vl.loops), len(vl.targeted))
		return rs, pause
	}
	b.sweeps = append(b.sweeps, durations(vl.loops, time.Second)...)
	b.targeted = append(b.targeted, durations(vl.targeted, time.Millisecond)...)
	b.verifyDirect(vl, loopFree)
	return rs, pause
}

// verifyDirect answers the targets asked (and, unless the network is
// known loop-free and the run is untraced, the loop sweep) with direct
// Analyzer calls — a fresh analyzer per request, as the handler makes —
// and compares the HTTP answers with them. The live copy never changes,
// so each target is answered directly once a run. In a traced run it also
// gives the verify.* layer times and the server's share of each request.
func (b *bench) verifyDirect(vl *verifyLoad, loopFree bool) {
	sb := b.tr.buf()
	wantLoopFree := loopFree
	if b.tr != nil || !loopFree {
		id := sb.req()
		s := sb.start("verify.New", -1, id)
		a := verify.New(b.live.c)
		sb.finish(s)
		before := counters()
		s = sb.start("verify.Loops", -1, id)
		loops := a.Loops()
		sb.finish(s)
		after := counters()
		b.layers["network.walks_per_sweep"] = counterDelta(before, after, "apc_network_walks_total")
		if loopFree && len(loops) != 0 {
			b.checkFail("fabric has %d forwarding loops, want none", len(loops))
		}
		wantLoopFree = len(loops) == 0
	}
	for _, got := range vl.loopFree {
		b.countChecks(1)
		if got != wantLoopFree {
			b.checkFail("/verify/loops loopFree=%v, direct analysis %v", got, wantLoopFree)
		}
	}
	if b.direct == nil {
		b.direct = make(map[int]int)
	}
	for t, answers := range vl.atoms {
		tg := b.verifyPairs[t]
		atoms, ok := b.direct[t]
		if !ok {
			id := sb.req()
			s := sb.start("verify.New", -1, id)
			a := verify.New(b.live.c)
			sb.finish(s)
			if tg.reach {
				s = sb.start("verify.ReachSet", -1, id)
				atoms = a.ReachSet(tg.from, tg.host).NumAtoms()
			} else {
				s = sb.start("verify.Blackholes", -1, id)
				atoms = a.Blackholes(tg.from).NumAtoms()
			}
			sb.finish(s)
			b.direct[t] = atoms
			if loopFree && tg.reach && atoms == 0 {
				b.checkFail("host %s unreachable from %s", tg.host, b.live.ds.Boxes[tg.from].Name)
			}
		}
		for _, got := range answers {
			b.countChecks(1)
			if got != atoms {
				b.checkFail("%s target %d: HTTP answered %d atoms, direct analysis %d", fmt.Sprint(tg), t, got, atoms)
			}
		}
	}
}
