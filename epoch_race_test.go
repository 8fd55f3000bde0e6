package apclassifier_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"apclassifier"
	"apclassifier/internal/checkpoint"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
	"apclassifier/internal/verify"
)

// churnStates pregenerates n rule-delta batches over ds — more-specific
// routes to a random port, and removals of earlier ones — together with
// the rule state after each prefix of them: states[k] is the dataset
// after k batches. probes aims one flow into every added route.
func churnStates(ds *netgen.Dataset, rng *rand.Rand, n int) (batches [][]apclassifier.RuleDelta, states []*netgen.Dataset, probes []apclassifier.FlowProbe) {
	mirror := ds.Clone()
	states = append(states, mirror.Clone())
	var added []apclassifier.RuleDelta
	for len(batches) < n {
		var batch []apclassifier.RuleDelta
		for k := 0; k < 3; k++ {
			box := rng.Intn(len(ds.Boxes))
			if len(added) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(added))
				dl := added[j]
				added = append(added[:j], added[j+1:]...)
				mirror.Boxes[dl.Box].Fwd.Remove(dl.Prefix)
				batch = append(batch, dl)
				continue
			}
			r := rule.FwdRule{Prefix: rule.P(rng.Uint32(), 8+rng.Intn(20)), Port: rng.Intn(ds.Boxes[box].NumPorts)}
			if slices.ContainsFunc(mirror.Boxes[box].Fwd.Rules, func(x rule.FwdRule) bool { return x.Prefix == r.Prefix }) {
				continue
			}
			mirror.Boxes[box].Fwd.Add(r)
			batch = append(batch, apclassifier.RuleDelta{Op: apclassifier.OpAddFwdRule, Box: box, Rule: r})
			added = append(added, apclassifier.RuleDelta{Op: apclassifier.OpRemoveFwdRule, Box: box, Prefix: r.Prefix})
			host := uint32(rng.Int63()) &^ (0xFFFFFFFF << uint(32-r.Prefix.Length))
			probes = append(probes, apclassifier.FlowProbe{Ingress: rng.Intn(len(ds.Boxes)), Fields: rule.Fields{Dst: r.Prefix.Value | host}})
		}
		batches = append(batches, batch)
		states = append(states, mirror.Clone())
	}
	return batches, states, probes
}

// delivered returns the sorted host list of a delivery set.
func delivered(hosts []string) []string {
	out := slices.Clone(hosts)
	slices.Sort(out)
	return out
}

// TestEpochReadersUnderChurnAgreeWithSimulate runs rule-delta batches and
// reconstructions beside every kind of reader — Behavior, BehaviorBatch,
// verify.New and CheckpointSource — with no lock on the caller's side.
// A reader names the epochs it may have answered from by bracketing its
// call with the writer's progress: after lo finished batches and before
// hi+1 of them published. Every answer must agree with Simulate over one
// of those rule states, and all answers of one batch or one analyzer
// with the same state.
func TestEpochReadersUnderChurnAgreeWithSimulate(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 62, RuleScale: 0.01})
	c, err := apclassifier.New(ds, apclassifier.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	batches, states, probes := churnStates(ds, rng, 12)

	var done atomic.Int64 // batches whose ApplyRuleDeltas returned
	finished := make(chan struct{})
	// agrees reports whether some rule state the bracket [lo, hi] allows
	// explains every probe's answer.
	agrees := func(lo, hi int64, idx []int, answer func(i int) []string) bool {
		for k := lo; k <= min(hi+1, int64(len(batches))); k++ {
			ok := true
			for _, i := range idx {
				p := probes[i]
				want := delivered(states[k].Simulate(p.Ingress, p.Fields).Delivered)
				if !slices.Equal(want, delivered(answer(i))) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
	all := make([]int, len(probes))
	for i := range all {
		all[i] = i
	}
	pkts := make([][]byte, len(probes))
	ingress := make([]int, len(probes))
	for i, p := range probes {
		pkts[i] = ds.PacketFromFields(p.Fields)
		ingress[i] = p.Ingress
	}
	readers := map[string]func() bool{
		"Behavior": func() bool {
			i := rand.Intn(len(probes))
			lo := done.Load()
			b := c.Behavior(ingress[i], pkts[i])
			hi := done.Load()
			var got []string
			for _, d := range b.Deliveries {
				got = append(got, d.Host)
			}
			return agrees(lo, hi, []int{i}, func(int) []string { return got })
		},
		"BehaviorBatch": func() bool {
			buf := c.NewBatchBuffer()
			lo := done.Load()
			out := c.BehaviorBatch(buf, ingress, pkts)
			hi := done.Load()
			return agrees(lo, hi, all, func(i int) []string {
				var got []string
				for _, d := range out[i].Deliveries {
					got = append(got, d.Host)
				}
				return got
			})
		},
		"verify.New": func() bool {
			lo := done.Load()
			a := verify.New(c)
			hi := done.Load()
			i := rand.Intn(len(probes))
			var got []string
			for _, h := range ds.Hosts {
				if a.ReachSet(ingress[i], h.Name).Contains(pkts[i]) {
					got = append(got, h.Name)
				}
			}
			return agrees(lo, hi, []int{i}, func(int) []string { return got })
		},
		"CheckpointSource": func() bool {
			lo := done.Load()
			src := c.CheckpointSource()
			hi := done.Load()
			var buf bytes.Buffer
			if err := checkpoint.Encode(&buf, src); err != nil {
				t.Error(err)
				return false
			}
			res, err := checkpoint.Decode(&buf)
			if err != nil {
				t.Error(err)
				return false
			}
			r, err := apclassifier.NewFromRestored(res)
			if err != nil {
				t.Error(err)
				return false
			}
			return agrees(lo, hi, all, func(i int) []string {
				var got []string
				for _, d := range r.Behavior(ingress[i], pkts[i]).Deliveries {
					got = append(got, d.Host)
				}
				return got
			})
		},
	}

	var wg sync.WaitGroup
	var mismatches atomic.Int64
	reads := make([]atomic.Int64, len(readers))
	r := 0
	for name, read := range readers {
		wg.Add(1)
		go func(name string, read func() bool, reads *atomic.Int64) {
			defer wg.Done()
			for {
				select {
				case <-finished:
					return
				default:
				}
				if !read() {
					mismatches.Add(1)
					t.Errorf("%s: answer agrees with no rule state its call could have seen", name)
				}
				reads.Add(1)
			}
		}(name, read, &reads[r])
		r++
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-finished:
				return
			default:
			}
			c.Reconstruct(i%2 == 1)
		}
	}()
	for i, batch := range batches {
		// Let every reader finish a call that started after the previous
		// batch, so each kind of reader answers during every state.
		var start []int64
		for k := range reads {
			start = append(start, reads[k].Load())
		}
		for k := range reads {
			for reads[k].Load() < start[k]+2 {
				runtime.Gosched()
			}
		}
		if err := c.ApplyRuleDeltas(batch); err != nil {
			t.Fatal(err)
		}
		done.Store(int64(i + 1))
	}
	close(finished)
	wg.Wait()
	if mismatches.Load() > 0 {
		t.FailNow()
	}
	// The final epoch is exact for the final rule state.
	if !agrees(int64(len(batches)), int64(len(batches)), all, func(i int) []string {
		var got []string
		for _, d := range c.Behavior(ingress[i], pkts[i]).Deliveries {
			got = append(got, d.Host)
		}
		return got
	}) {
		t.Fatal("final epoch disagrees with the final rule state")
	}
}
