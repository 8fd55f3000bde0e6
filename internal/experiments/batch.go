package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"apclassifier"
)

// flowLen is how many consecutive packets a bursty trace repeats per
// flow. Real query streams (data-plane taps, invariant sweeps over
// prefixes) are bursty: consecutive packets often share a header. The
// batched pipeline collapses such runs to one tree descent.
const flowLen = 16

// BatchThroughput measures the batched query pipeline against the
// single-packet path on both networks, over a uniform trace (every packet
// an independent atom sample) and a bursty one (flows of flowLen repeated
// headers). One deterministic middlebox rides on the highest-degree box
// so stage 2 is non-trivial but cacheable — the configuration the batch
// acceptance numbers in EXPERIMENTS.md quote.
func (e *Env) BatchThroughput(sizes []int, traceLen int, minDur time.Duration) *Table {
	t := &Table{
		Title:  "Batched queries — throughput vs single-packet path (Mqps)",
		Header: []string{"network", "trace", "single"},
		Notes: []string{
			fmt.Sprintf("bursty trace repeats each header %d× (flow locality); uniform trace samples atoms independently", flowLen),
			"one Type-1 middlebox attached; both paths share the per-epoch behavior cache",
		},
	}
	for _, size := range sizes {
		t.Header = append(t.Header, fmt.Sprintf("batch %d", size))
	}
	t.Header = append(t.Header, fmt.Sprintf("speedup @%d", sizes[len(sizes)-1]))

	for _, name := range e.networks() {
		_, ds := e.network(name)
		mb := newMBBench(ds, traceLen)
		mb.attach(1, 1) // one all-Type-1 flow table (TableII placement)

		rng := rand.New(rand.NewSource(230))
		in := mb.c.TreeInput()
		uniformPkts := uniformTrace(in, ds.Layout.Bytes(), traceLen, rng)
		uniformIng := make([]int, len(uniformPkts))
		for i := range uniformIng {
			uniformIng[i] = rng.Intn(len(ds.Boxes))
		}
		burstyPkts := make([][]byte, 0, traceLen)
		burstyIng := make([]int, 0, traceLen)
		for len(burstyPkts) < traceLen {
			atom := rng.Intn(in.Atoms.N())
			pkt := in.Atoms.SamplePacket(atom, ds.Layout.Bytes(), rng)
			ing := rng.Intn(len(ds.Boxes))
			for k := 0; k < flowLen && len(burstyPkts) < traceLen; k++ {
				burstyPkts = append(burstyPkts, pkt)
				burstyIng = append(burstyIng, ing)
			}
		}

		for _, tr := range []struct {
			label string
			pkts  [][]byte
			ing   []int
		}{{"bursty", burstyPkts, burstyIng}, {"uniform", uniformPkts, uniformIng}} {
			single := measureSingleQPS(mb.c, tr.ing, tr.pkts, minDur)
			row := []string{name, tr.label, mqps(single)}
			var last float64
			for _, size := range sizes {
				last = measureBatchQPS(mb.c, tr.ing, tr.pkts, size, minDur)
				row = append(row, mqps(last))
			}
			row = append(row, fmt.Sprintf("%.2fx", last/single))
			t.AddRow(row...)
		}
		mb.detach()
	}
	return t
}

// measureSingleQPS runs the single-packet path with a reused Walker.
func measureSingleQPS(c *apclassifier.Classifier, ingress []int, pkts [][]byte, minDur time.Duration) float64 {
	w := c.NewWalker()
	i := 0
	return measureQPS(func(p []byte) {
		c.BehaviorWith(w, ingress[i%len(ingress)], p)
		i++
	}, pkts, minDur)
}

// measureBatchQPS runs the batched pipeline in chunks of size and reports
// per-packet throughput.
func measureBatchQPS(c *apclassifier.Classifier, ingress []int, pkts [][]byte, size int, minDur time.Duration) float64 {
	buf := c.NewBatchBuffer()
	start := time.Now()
	n := 0
	for time.Since(start) < minDur {
		for i := 0; i < len(pkts); i += size {
			end := min(i+size, len(pkts))
			c.BehaviorBatch(buf, ingress[i:end], pkts[i:end])
			n += end - i
		}
	}
	return float64(n) / time.Since(start).Seconds()
}
