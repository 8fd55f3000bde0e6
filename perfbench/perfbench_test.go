package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

var generators = map[string]func() *netgen.Dataset{
	"query-i2":  internet2,
	"churn-sf":  stanford,
	"verify-ft": fatTree,
}

// inputsDigest draws a workload's inputs for seed and hashes everything
// the program receives: the dataset, the request bodies, the packets and
// the delta stream.
func inputsDigest(t *testing.T, gen func() *netgen.Dataset, seed int64) [32]byte {
	t.Helper()
	b := &bench{seed: seed, live: &instance{ds: gen()}}
	if err := b.prepare(true, 4096, verifySample); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := b.live.ds.Write(h); err != nil {
		t.Fatal(err)
	}
	for _, body := range b.singleBody {
		h.Write(body)
	}
	for _, body := range b.batchBody {
		h.Write(body)
	}
	for _, p := range b.pkts {
		h.Write(p)
	}
	for _, batch := range b.stream {
		for _, dl := range batch {
			fmt.Fprintf(h, "%d %d %v %v %d", dl.Op, dl.Box, dl.Rule, dl.Prefix, dl.Port)
			if dl.ACL != nil {
				fmt.Fprintf(h, " %v", *dl.ACL)
			}
		}
	}
	fmt.Fprintf(h, "%v", b.verifyPairs)
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestSameSeedSameInputs(t *testing.T) {
	for name, gen := range generators {
		a, b := inputsDigest(t, gen, 7), inputsDigest(t, gen, 7)
		if a != b {
			t.Errorf("%s: seed 7 gave two different input sets", name)
		}
		if c := inputsDigest(t, gen, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

// TestChurnStreamValid replays the stream against a copy of the tables:
// every add installs a prefix the box does not hold, every remove takes a
// prefix the stream itself installed and that is still there, and ACL
// replacements only touch ports that carry an ACL. Checking each delta in
// order is exactly checking that every prefix of the stream is valid.
func TestChurnStreamValid(t *testing.T) {
	for name, gen := range generators {
		ds := gen()
		original := make([]map[rule.Prefix]bool, len(ds.Boxes))
		for i := range ds.Boxes {
			original[i] = make(map[rule.Prefix]bool)
			for _, r := range ds.Boxes[i].Fwd.Rules {
				original[i][r.Prefix] = true
			}
		}
		installed := make([]map[rule.Prefix]bool, len(ds.Boxes))
		for i := range installed {
			installed[i] = make(map[rule.Prefix]bool)
		}
		stream := genChurn(ds, newRand(3), 20000)
		acls := 0
		for i, dl := range stream {
			switch dl.Op {
			case apclassifier.OpAddFwdRule:
				if original[dl.Box][dl.Rule.Prefix] || installed[dl.Box][dl.Rule.Prefix] {
					t.Fatalf("%s: delta %d adds %v already in box %d", name, i, dl.Rule.Prefix, dl.Box)
				}
				installed[dl.Box][dl.Rule.Prefix] = true
			case apclassifier.OpRemoveFwdRule:
				if !installed[dl.Box][dl.Prefix] {
					t.Fatalf("%s: delta %d removes %v, which the stream did not install (or already removed)", name, i, dl.Prefix)
				}
				delete(installed[dl.Box], dl.Prefix)
			case apclassifier.OpSetPortACL:
				acls++
				if ds.Boxes[dl.Box].PortACL[dl.Port] == nil || dl.ACL == nil {
					t.Fatalf("%s: delta %d sets an ACL on box %d port %d, which has none", name, i, dl.Box, dl.Port)
				}
			default:
				t.Fatalf("%s: delta %d has op %v", name, i, dl.Op)
			}
		}
		if hasACLs := ds.NumACLs() > 0; hasACLs != (acls > 0) {
			t.Errorf("%s: %d ACL replacements on a network with %d ACLs", name, acls, ds.NumACLs())
		}
	}
}

// TestChurnStreamApplies applies a stream prefix through the facade on a
// small network and checks answers against the oracle afterwards.
func TestChurnStreamApplies(t *testing.T) {
	ds := netgen.StanfordLike(netgen.Config{Seed: 2, RuleScale: 0.01})
	stream := genChurn(ds, newRand(5), 1024)
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, batch := range batches(stream) {
		if applied, err := c.ApplyRuleDeltasSeq(uint64(i+1), batch); err != nil || !applied {
			t.Fatalf("batch %d: applied=%v err=%v", i, applied, err)
		}
	}
	qs := genQueries(ds, newRand(6), 500, false)
	for i, q := range qs {
		pkt := ds.PacketFromFields(q.f)
		if got, want := behaviorVerdict(c.Behavior(q.ingress, pkt)), simVerdict(ds, q); !got.equal(want) {
			t.Fatalf("query %d: classifier %v, oracle %v", i, got, want)
		}
	}
}

// TestOpenLoopCountsFromDue stalls the "handler" for 100 ms: the open loop
// must still issue every scheduled operation, report how late it ran, and
// charge the stall to the operations due during it.
func TestOpenLoopCountsFromDue(t *testing.T) {
	const rate = 1000
	d := 400 * time.Millisecond
	stall := 100 * time.Millisecond
	var mu sync.Mutex // the handler: everything serializes on it
	r := openLoop(rate, d, nil, 8, func(_, k int) bool {
		mu.Lock()
		defer mu.Unlock()
		if k == 100 {
			time.Sleep(stall)
		}
		return true
	})
	if want := int(d / (time.Second / rate)); r.attempts != want || len(r.samples) != want {
		t.Fatalf("issued %d (%d samples), schedule has %d: a stall must not lower the rate", r.attempts, len(r.samples), want)
	}
	stallAt := r.samples[100].at
	maxLate := time.Duration(0)
	for _, s := range r.samples {
		if s.late > maxLate {
			maxLate = s.late
		}
		// Operations due in the first half of the stall waited for it.
		if off := s.at.Sub(stallAt); off > time.Millisecond && off < stall/2 {
			if s.latency < stall/2-off {
				t.Errorf("operation due %v into the stall took %v: the wait was not charged", off, s.latency)
			}
		}
	}
	if maxLate < stall/2 {
		t.Errorf("generator ran at most %v late through a %v stall", maxLate, stall)
	}
}

// TestOpenLoopStops runs a schedule with no set length: operations are
// issued at the rate until the stop, and none due after it.
func TestOpenLoopStops(t *testing.T) {
	stop := newStopper()
	go func() {
		time.Sleep(200 * time.Millisecond)
		stop.stop()
	}()
	r := openLoop(1000, 0, stop, 8, func(_, _ int) bool { return true })
	if len(r.samples) < 150 {
		t.Fatalf("issued %d operations in 200 ms at 1000/s", len(r.samples))
	}
	for _, s := range r.samples {
		if !s.at.Before(stop.at) {
			t.Fatalf("operation due %v after the stop was issued", s.at.Sub(stop.at))
		}
	}
}

// TestWindowedMissesBursts: a slow burst over a fifth of a phase sets the
// windows it covers, not the median window.
func TestWindowedMissesBursts(t *testing.T) {
	start := time.Now()
	r := loadResult{elapsed: 10 * time.Second}
	for k := 0; k < 1000; k++ {
		lat := time.Millisecond
		if k >= 400 && k < 600 {
			lat = 10 * time.Millisecond
		}
		r.samples = append(r.samples, sample{at: start.Add(time.Duration(k) * 10 * time.Millisecond), latency: lat, ok: true})
	}
	if n := len(r.split(time.Second)); n != 10 {
		t.Fatalf("10 s split into %d windows of 1 s", n)
	}
	p90 := windowed([]loadResult{r}, time.Second, func(w loadResult) float64 { return quantile(w.latencies(time.Millisecond), 0.9) })
	if p90 != 1 {
		t.Errorf("windowed p90 = %v ms, want 1", p90)
	}
	rate := windowed([]loadResult{r}, time.Second, func(w loadResult) float64 { return float64(len(w.samples)) / w.elapsed.Seconds() })
	if rate != 100 {
		t.Errorf("windowed rate = %v/s, want 100", rate)
	}
}

func TestQuantile(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	if got := quantile([]float64{0, 10}, 0.9); got != 9 {
		t.Errorf("p90 of {0, 10} = %v", got)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the printed metrics and the
// benchmark definition in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}
