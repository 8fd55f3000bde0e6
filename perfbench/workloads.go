package main

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"apclassifier/internal/netgen"
)

// The workloads. Each one is a network plus a schedule of phases; every
// phase's length is a share of --seconds. README.md gives the reasons for
// each choice and the layer each workload stresses or bypasses.

// Frozen open-loop rates, in requests per second. They were set once on
// the reference host (see README.md) and do not follow the host: a later
// run at the same rates is comparable, and one on a host that cannot
// sustain them shows it as lateness.
//
// The churn rates, in delta batches per second, size the rule-delta
// phases instead: a phase applies its share of --seconds times the rate
// in batches, however long that takes (see churn). They are about the
// rate the firehose reached on the reference host.
const (
	i2QueryRate  = 4000 // query-i2: single POST /query
	i2BatchRate  = 600  // query-i2: 64-query POST /query/batch
	i2ChurnRate  = 28   // query-i2: rule-delta probe
	sfQueryRate  = 1000 // churn-sf: single library query beside churn
	sfBatchRate  = 200  // churn-sf: 64-packet library batch beside churn
	sfChurnRate  = 40   // churn-sf: the firehose
	ftQueryRate  = 1000 // verify-ft: single POST /query beside the sweeps
	ftBatchRate  = 150  // verify-ft: 64-query POST /query/batch beside the sweeps
	ftChurnRate  = 500  // verify-ft: rule-delta probe
	churnEvents  = 1 << 17
	verifySample = 64 // targeted verification requests on the fat tree (see verifyTargets)
	restartReps  = 1  // warm restarts before each phase of a round
)

type workload struct {
	rates map[string]float64
	run   func(b *bench) error
}

var workloads = map[string]*workload{
	"query-i2": {
		rates: map[string]float64{"query": i2QueryRate, "batch": i2BatchRate, "churn_batches": i2ChurnRate},
		run:   runQueryI2,
	},
	"churn-sf": {
		rates: map[string]float64{"query": sfQueryRate, "batch": sfBatchRate, "check": checkRate, "churn_batches": sfChurnRate},
		run:   runChurnSF,
	},
	"verify-ft": {
		rates: map[string]float64{"query": ftQueryRate, "batch": ftBatchRate, "check": checkRate, "churn_batches": ftChurnRate},
		run:   runVerifyFT,
	},
}

func workloadNames() string {
	ns := make([]string, 0, len(workloads))
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return strings.Join(ns, ", ")
}

func internet2() *netgen.Dataset {
	return netgen.Internet2Like(netgen.Config{Seed: datasetSeed, RuleScale: 1})
}

func stanford() *netgen.Dataset {
	return netgen.StanfordLike(netgen.Config{Seed: datasetSeed, RuleScale: 0.2})
}

func fatTree() *netgen.Dataset { return netgen.FatTree(netgen.FatTreeLarge) }

// setupReps is how many times a run builds its network: the untraced run
// reports the median of three builds; the traced run builds once and
// replays the build layer by layer instead.
func (b *bench) setupReps() int {
	if b.tr != nil {
		return 1
	}
	return 3
}

// inRounds runs the phases in turn, rounds times, with restartReps warm
// restarts before each phase. The restarts are spread over the run rather
// than made in one block a round: consecutive restores on the reference
// host took anywhere from 70 to 160 ms, in slow and fast stretches a few
// seconds long, so a block of five followed the stretch it met, and the
// median over four blocks spread 0.28 between runs.
func (b *bench) inRounds(phases ...func()) error {
	for r := 0; r < rounds; r++ {
		for _, p := range phases {
			if err := b.restart(restartReps); err != nil {
				return err
			}
			p()
		}
	}
	return nil
}

// slice is one round's share of the run's measured seconds.
func (b *bench) slice(share float64) time.Duration { return b.phase(share / rounds) }

// batchesFor is the size of a rule-delta phase: share of the run's
// measured seconds at rate batches per second, at least one batch.
func (b *bench) batchesFor(share, rate float64) int {
	if n := int(share * b.seconds * rate); n > 1 {
		return n
	}
	return 1
}

// begin is the common start of every workload: build, draw inputs, save
// the checkpoint the restarts read, warm up, and take the memory and
// flat-core readings.
func (b *bench) begin(gen func() *netgen.Dataset, uniform, lib bool) (atoms int, err error) {
	if err := b.setup(gen, b.setupReps()); err != nil {
		return 0, err
	}
	atoms = b.live.c.NumAtoms()
	if err := b.prepare(uniform, churnEvents, verifySample); err != nil {
		return 0, err
	}
	if err := b.saveCheckpoint(); err != nil {
		return 0, err
	}
	// One untimed restart first: the first process start pays for cold
	// file and page caches.
	if err := b.restart(1); err != nil {
		return 0, err
	}
	b.restartS, b.decodeS = nil, nil
	b.warm(b.phase(0.05), lib)
	b.heap()
	b.flatShare()
	if err := b.restoreChurned(); err != nil {
		return 0, err
	}
	return atoms, nil
}

// end is the common end: check a sample of answers of both copies, turn
// the tallies into metrics, then, in a traced run, replay the build and
// the applied cones.
func (b *bench) end(gen func() *netgen.Dataset, atoms int) {
	b.checkLibrary(b.live, checkSample)
	b.checkLibrary(b.churned, checkSample)
	b.summarize()
	if b.tr == nil {
		return
	}
	r := b.buildReplay(gen, atoms)
	b.coneReplay(r)
	b.spanLayers()
}

// runQueryI2: the query service. Each round makes restarts, a
// closed-loop capacity slice, single and batch requests at fixed rates
// and a short verification probe on the live copy, then a slice of the
// rule-delta probe on the churned copy. No update runs while queries are
// measured, and no query phase meets an updated network.
func runQueryI2(b *bench) error {
	atoms, err := b.begin(internet2, true, false)
	if err != nil {
		return err
	}
	if b.tr != nil {
		b.mirror(b.phase(0.1))
	}
	var ot openTally
	err = b.inRounds(
		func() {
			b.capacity(b.slice(0.25), false, true)
			b.checkSampled()
		},
		func() {
			ot.add(b.runOpen(b.slice(0.35), nil,
				openSpec{rate: i2QueryRate, op: b.httpSingle},
				openSpec{rate: i2BatchRate, op: b.httpBatch}))
			b.checkSampled()
		},
		func() { b.verifyPhase(b.slice(0.1), false) },
		func() { b.churn(b.batchesFor(0.25/rounds, i2ChurnRate)) },
	)
	if err != nil {
		return err
	}
	b.openMetrics(&ot)
	b.end(internet2, atoms)
	return nil
}

// runChurnSF: writes beside reads on the library surface. Each round
// makes restarts, a closed-loop capacity slice and a verification probe
// on the live copy, then a slice of the churn phase on the churned copy:
// a closed-loop firehose of 16-delta batches beside open-loop single and
// batch queries and the oracle checker.
func runChurnSF(b *bench) error {
	atoms, err := b.begin(stanford, false, true)
	if err != nil {
		return err
	}
	if b.tr != nil {
		// The HTTP mirror reads the live copy, which no delta reaches: once
		// churn can have made a forwarding loop, /query may never answer
		// (README.md).
		b.mirror(b.phase(0.1))
	}
	single := func(wk *worker, k int) bool { return b.libSingle(b.churned, wk, k) }
	batch := func(wk *worker, k int) bool { return b.libBatch(b.churned, wk, k) }
	var ot openTally
	err = b.inRounds(
		func() { b.capacity(b.slice(0.1), true, false) },
		func() { b.verifyPhase(b.slice(0.25), false) },
		func() {
			// The query-path counters are those of the churn slices.
			before := counters()
			ot.add(b.churn(b.batchesFor(0.6/rounds, sfChurnRate),
				openSpec{rate: sfQueryRate, op: single},
				openSpec{rate: sfBatchRate, op: batch}))
			b.queryCtr.add(before, counters())
		},
	)
	if err != nil {
		return err
	}
	b.queryPkts = float64(len(concat(ot.query).samples) + batchSize*len(concat(ot.batch).samples))
	b.openMetrics(&ot)
	b.end(stanford, atoms)
	return nil
}

// runVerifyFT: verification sweeps on the fat tree, with a low-rate
// open-loop query stream through the same handler showing what the sweeps
// cost live queries. One /verify/loops runs untimed first: the sweep
// speeds up over its first repeats.
func runVerifyFT(b *bench) error {
	atoms, err := b.begin(fatTree, false, false)
	if err != nil {
		return err
	}
	if code, _ := b.serve(http.MethodGet, "/verify/loops", nil); code != http.StatusOK {
		return fmt.Errorf("warm-up /verify/loops: status %d", code)
	}
	if b.tr != nil {
		b.mirror(b.phase(0.1))
	}
	var ot openTally
	err = b.inRounds(
		func() {
			b.capacity(b.slice(0.1), false, true)
			b.checkSampled()
		},
		func() {
			ot.add(b.verifyPhase(b.slice(0.6), true,
				openSpec{rate: ftQueryRate, op: b.httpSingle},
				openSpec{rate: ftBatchRate, op: b.httpBatch}))
			b.checkSampled()
		},
		func() { b.churn(b.batchesFor(0.25/rounds, ftChurnRate)) },
	)
	if err != nil {
		return err
	}
	b.openMetrics(&ot)
	b.end(fatTree, atoms)
	return nil
}
