package apclassifier

import (
	"fmt"

	"apclassifier/internal/aptree"
	"apclassifier/internal/network"
)

// Batched queries. A batch runs the same two stages as a single query but
// amortizes both: stage 1 classifies the whole batch in one group-by-
// branch descent (duplicate headers collapse to one search), and stage 2
// walks each distinct (ingress, atom) pair once — first consulting the
// epoch's behavior cache, then deduplicating within the batch — instead
// of once per packet. The single-packet path is a thin wrapper over the
// same pipeline (behaviorVia), so there is no second code path to keep
// correct; TestBatchMatchesSingle holds the two entry points element-wise
// identical.

// batchKey identifies one traffic class within a batch: packets entering
// the same box with the same atomic predicate share a behavior whenever
// the walk is deterministic.
type batchKey struct {
	ingress int
	atom    int32
}

// BatchBuffer holds the reusable scratch of the batch pipeline: stage-1
// index buffers, the leaf and result slices, a stage-2 Walker, and the
// intra-batch dedup map. Steady-state batches of a stable size allocate
// only for cache-miss walk results. A BatchBuffer is bound to the
// classifier that created it and is not safe for concurrent use; pool one
// per goroutine (the HTTP server keeps a sync.Pool).
type BatchBuffer struct {
	sc     aptree.BatchScratch
	leaves []*aptree.Node
	out    []*network.Behavior
	w      *network.Walker
	seen   map[batchKey]*network.Behavior
}

// NewBatchBuffer returns batch scratch space bound to this classifier.
func (c *Classifier) NewBatchBuffer() *BatchBuffer {
	return &BatchBuffer{
		w:    c.NewWalker(),
		seen: make(map[batchKey]*network.Behavior),
	}
}

// ClassifyBatch runs stage 1 for the whole batch against the pinned
// epoch, returning one leaf per packet. The returned slice is owned by
// buf and valid until its next use; pass it straight to
// BehaviorBatchFrom.
func (s *Snapshot) ClassifyBatch(buf *BatchBuffer, pkts [][]byte) []*aptree.Node {
	if cap(buf.leaves) < len(pkts) {
		buf.leaves = make([]*aptree.Node, len(pkts))
	}
	buf.leaves = buf.leaves[:len(pkts)]
	s.s.ClassifyBatchWith(&buf.sc, pkts, buf.leaves)
	return buf.leaves
}

// BehaviorBatchFrom runs stage 2 for a batch whose leaves the caller
// already obtained from ClassifyBatch on this same snapshot (the staged
// form the HTTP server uses to time the stages separately). ingress[i] is
// packet i's entry box. The returned slice is owned by buf and valid
// until its next use; the behaviors themselves are read-only but remain
// valid indefinitely.
func (s *Snapshot) BehaviorBatchFrom(buf *BatchBuffer, ingress []int, pkts [][]byte, leaves []*aptree.Node) []*network.Behavior {
	if len(ingress) != len(pkts) || len(leaves) != len(pkts) {
		panic(fmt.Sprintf("apclassifier: BehaviorBatchFrom length mismatch: %d ingresses, %d packets, %d leaves",
			len(ingress), len(pkts), len(leaves)))
	}
	bc := behaviorCache(s.s)
	clear(buf.seen)
	if cap(buf.out) < len(pkts) {
		buf.out = make([]*network.Behavior, 0, len(pkts))
	}
	out := buf.out[:0]
	for i := range pkts {
		key := batchKey{ingress[i], leaves[i].AtomID}
		if b, ok := buf.seen[key]; ok {
			out = append(out, b)
			continue
		}
		b := behaviorVia(bc, buf.w, s.s, ingress[i], pkts[i], leaves[i], true)
		if b.Deterministic() {
			// Only deterministic behaviors stand for their whole class;
			// a Type-2/Type-3 walk is recomputed for every packet even
			// inside one batch (§V-E).
			buf.seen[key] = b
		}
		out = append(out, b)
	}
	buf.out = out
	return out
}

// BehaviorBatch answers every (ingress[i], pkts[i]) query against the
// pinned epoch: ClassifyBatch followed by BehaviorBatchFrom. Results are
// element-wise identical to calling Behavior per packet — including
// per-atom visit statistics — but tree descents, cache lookups and
// topology walks are shared across the batch. The returned slice is owned
// by buf and valid until its next use.
func (s *Snapshot) BehaviorBatch(buf *BatchBuffer, ingress []int, pkts [][]byte) []*network.Behavior {
	leaves := s.ClassifyBatch(buf, pkts)
	return s.BehaviorBatchFrom(buf, ingress, pkts, leaves)
}

// BehaviorBatch pins the current epoch and answers the whole batch
// against it; see Snapshot.BehaviorBatch. Like the single-packet path it
// acquires no lock and runs safely concurrent with updates and
// reconstructions — the batch is atomic with respect to epoch swaps.
func (c *Classifier) BehaviorBatch(buf *BatchBuffer, ingress []int, pkts [][]byte) []*network.Behavior {
	return c.Snapshot().BehaviorBatch(buf, ingress, pkts)
}
