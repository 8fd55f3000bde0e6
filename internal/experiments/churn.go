package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

// churnEvent is one pregenerated FIB mutation: the insertion of a
// more-specific child of an existing prefix toward the parent's port, or
// the removal of a previously inserted child. The sequence is generated
// once per network and replayed identically by every engine, so the
// engines are timed on the same semantic work.
type churnEvent struct {
	add    bool
	box    int
	rule   rule.FwdRule // add
	prefix rule.Prefix  // remove
}

// genChurnEvents builds a deterministic add/remove sequence against a
// pristine dataset. Adds draw a parent from the original tables (which the
// sequence never removes), removes target a random still-installed
// synthetic child, so replaying any prefix of the sequence is valid.
func genChurnEvents(ds *netgen.Dataset, n int, rng *rand.Rand) []churnEvent {
	type inst struct {
		box    int
		prefix rule.Prefix
	}
	var installed []inst
	events := make([]churnEvent, 0, n)
	for len(events) < n {
		if len(installed) > 8 && rng.Intn(2) == 0 {
			k := rng.Intn(len(installed))
			e := installed[k]
			installed = append(installed[:k], installed[k+1:]...)
			events = append(events, churnEvent{add: false, box: e.box, prefix: e.prefix})
			continue
		}
		box := rng.Intn(len(ds.Boxes))
		spec := &ds.Boxes[box]
		parent := spec.Fwd.Rules[rng.Intn(len(spec.Fwd.Rules))]
		for parent.Prefix.Length >= 32 {
			parent = spec.Fwd.Rules[rng.Intn(len(spec.Fwd.Rules))]
		}
		length := parent.Prefix.Length + 1 + rng.Intn(32-parent.Prefix.Length)
		r := rule.FwdRule{
			Prefix: rule.P(parent.Prefix.Value|rng.Uint32()&^uint32(0xFFFFFFFF<<uint(32-parent.Prefix.Length)), length),
			Port:   parent.Port,
		}
		installed = append(installed, inst{box, r.Prefix})
		events = append(events, churnEvent{add: true, box: box, rule: r})
	}
	return events
}

// freshChurnDataset generates the churn dataset for a network. Every
// engine starts from its own copy (same seed and scale) because replaying
// the events mutates the tables.
func (e *Env) freshChurnDataset(name string) *netgen.Dataset {
	if name == "internet2" {
		return netgen.Internet2Like(netgen.Config{Seed: 3, RuleScale: e.Scale.I2})
	}
	return netgen.StanfordLike(netgen.Config{Seed: 3, RuleScale: e.Scale.SF})
}

// churnResult is one engine's measurement.
type churnResult struct {
	updates int
	updRate float64 // sustained updates/sec
	qps     float64 // aggregate queries/sec across workers
}

// runChurn replays events through apply while queryWorkers goroutines
// classify packets on the lock-free snapshot path, stopping after budget
// (but applying at least minEvents so the slowest engine still reports a
// rate). Queries go through Manager.Classify: stage-1 classification is
// wait-free against updates by design — exactly the concurrency the
// experiment is about.
func runChurn(c *apclassifier.Classifier, ds *netgen.Dataset, events []churnEvent,
	apply func(churnEvent), queryWorkers int, budget time.Duration, minEvents int) churnResult {

	rng := rand.New(rand.NewSource(7))
	trace := make([][]byte, 256)
	for i := range trace {
		trace[i] = ds.PacketFromFields(ds.RandomFields(rng))
	}

	m := c.Manager
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queries atomic.Uint64
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			n := uint64(0)
			for i := off; ; i++ {
				select {
				case <-stop:
					queries.Add(n)
					return
				default:
				}
				m.Classify(trace[i%len(trace)])
				n++
			}
		}(w * 31)
	}

	start := time.Now()
	applied := 0
	for _, ev := range events {
		apply(ev)
		applied++
		if applied >= minEvents && time.Since(start) >= budget {
			break
		}
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	queryElapsed := time.Since(start)

	return churnResult{
		updates: applied,
		updRate: float64(applied) / elapsed.Seconds(),
		qps:     float64(queries.Load()) / queryElapsed.Seconds(),
	}
}

// Churn is the incremental delta engine's headline experiment: sustained
// rule updates per second under concurrent query load, for three engines
// replaying one identical pregenerated event sequence.
//
//   - delta: ApplyRuleDeltas — LPM-cone-scoped predicate recomputation and
//     leaf-local atom split/merge in the live tree.
//   - reconvert: the pre-delta path — mutate the table, recompute every
//     port predicate of the box (PortPredicates) and splice changed ones.
//   - reconvert+rebuild: reconvert followed by a full Reconstruct per
//     update — the convert-everything-and-rebuild strawman the paper's
//     §VI-A update story argues against.
func (e *Env) Churn(budget time.Duration, queryWorkers int) *Table {
	t := &Table{
		Title: fmt.Sprintf("Churn — sustained rule updates under %d concurrent query workers (budget %v/engine)",
			queryWorkers, budget),
		Header: []string{"network", "engine", "updates", "upd/s", "query Mqps", "speedup"},
		Notes: []string{
			"identical pregenerated FIB event sequence (more-specific child adds / their removals) replayed per engine on fresh same-seed datasets",
			"speedup = upd/s relative to reconvert+rebuild on the same network",
		},
	}
	for _, name := range e.networks() {
		events := genChurnEvents(e.freshChurnDataset(name), 16384, rand.New(rand.NewSource(17)))

		engines := []struct {
			label string
			apply func(c *apclassifier.Classifier, ds *netgen.Dataset) func(churnEvent)
		}{
			{"delta (ApplyRuleDeltas)", func(c *apclassifier.Classifier, ds *netgen.Dataset) func(churnEvent) {
				return func(ev churnEvent) {
					dl := apclassifier.RuleDelta{Op: apclassifier.OpRemoveFwdRule, Box: ev.box, Prefix: ev.prefix}
					if ev.add {
						dl = apclassifier.RuleDelta{Op: apclassifier.OpAddFwdRule, Box: ev.box, Rule: ev.rule}
					}
					if err := c.ApplyRuleDeltas([]apclassifier.RuleDelta{dl}); err != nil {
						panic(err)
					}
				}
			}},
			{"reconvert (whole box)", func(c *apclassifier.Classifier, ds *netgen.Dataset) func(churnEvent) {
				return func(ev churnEvent) {
					spec := &ds.Boxes[ev.box]
					if ev.add {
						spec.Fwd.Add(ev.rule)
					} else {
						spec.Fwd.Remove(ev.prefix)
					}
					c.ReconvertBox(ev.box)
				}
			}},
			{"reconvert+rebuild", func(c *apclassifier.Classifier, ds *netgen.Dataset) func(churnEvent) {
				return func(ev churnEvent) {
					spec := &ds.Boxes[ev.box]
					if ev.add {
						spec.Fwd.Add(ev.rule)
					} else {
						spec.Fwd.Remove(ev.prefix)
					}
					c.ReconvertBox(ev.box)
					c.Reconstruct(false)
				}
			}},
		}

		results := make([]churnResult, len(engines))
		for i, eng := range engines {
			ds := e.freshChurnDataset(name)
			c, err := apclassifier.New(ds, apclassifier.Options{})
			if err != nil {
				panic(err)
			}
			results[i] = runChurn(c, ds, events, eng.apply(c, ds), queryWorkers, budget, 3)
		}
		baseline := results[len(results)-1].updRate
		for i, eng := range engines {
			r := results[i]
			t.AddRow(name, eng.label,
				fmt.Sprintf("%d", r.updates),
				fmt.Sprintf("%.0f", r.updRate),
				mqps(r.qps),
				fmt.Sprintf("%.1fx", r.updRate/baseline))
		}
	}
	return t
}
