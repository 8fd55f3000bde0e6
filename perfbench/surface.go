package main

import (
	"encoding/json"
	"net/http"
	"net/url"
	"runtime"
	"time"

	"apclassifier"
	"apclassifier/internal/aptree"
)

// The operations the load generators issue, on the two surfaces: the
// in-process HTTP handler (server.Handler, no socket) and the library
// surface (Snapshot.Classify/ClassifyBatch + BehaviorFrom/BehaviorBatchFrom
// under the mirrored read lock). In a traced run each operation records a
// span around each call it makes into the program.

// worker is per-goroutine scratch: a span buffer and a batch buffer.
type worker struct {
	sb  *spanBuf
	buf *apclassifier.BatchBuffer // created on first use
}

func (b *bench) workers(n int) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = &worker{sb: b.tr.buf()}
	}
	return ws
}

func batchBuf(in *instance, wk *worker) *apclassifier.BatchBuffer {
	if wk.buf == nil {
		wk.buf = in.c.NewBatchBuffer()
	}
	return wk.buf
}

// closedClients is the closed-loop client count: at most two, and never
// more than the host has processors, so the load generator does not
// measure its own scheduling.
func closedClients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// sampleStride and maxSampled pick the HTTP answers kept for the output
// check: every sampleStride-th request, up to maxSampled per phase.
const (
	sampleStride = 97
	maxSampled   = 64
)

func (b *bench) keep(first int, batch bool, body []byte) {
	b.sampleMu.Lock()
	defer b.sampleMu.Unlock()
	if len(b.sampled) < maxSampled {
		b.sampled = append(b.sampled, sampledAnswer{first: first, batch: batch, body: body})
	}
}

// httpSingle sends query k as POST /query.
func (b *bench) httpSingle(wk *worker, k int) bool {
	i := k % len(b.singleBody)
	id := wk.sb.req()
	s := wk.sb.start("server.query", -1, id)
	code, body := b.serve(http.MethodPost, "/query", b.singleBody[i])
	wk.sb.finish(s)
	if code != http.StatusOK {
		return false
	}
	if k%sampleStride == 0 {
		b.keep(i, false, body)
	}
	return true
}

// httpBatch sends batch k as POST /query/batch.
func (b *bench) httpBatch(wk *worker, k int) bool {
	j := k % len(b.batchBody)
	id := wk.sb.req()
	s := wk.sb.start("server.query_batch", -1, id)
	code, body := b.serve(http.MethodPost, "/query/batch", b.batchBody[j])
	wk.sb.finish(s)
	if code != http.StatusOK {
		return false
	}
	if k%sampleStride == 0 {
		b.keep(j*batchSize, true, body)
	}
	return true
}

// libSingle answers query k on in's library surface.
func (b *bench) libSingle(in *instance, wk *worker, k int) bool {
	i := k % len(b.queries)
	id := wk.sb.req()
	root := wk.sb.start("lib.query", -1, id)
	s := wk.sb.start("apclassifier.lock_wait", root, id)
	in.mu.RLock()
	wk.sb.finish(s)
	snap := in.c.Snapshot()
	s = wk.sb.start("aptree.Classify", root, id)
	leaf := snap.Classify(b.pkts[i])
	wk.sb.finish(s)
	s = wk.sb.start("network.BehaviorFrom", root, id)
	beh := snap.BehaviorFrom(b.queries[i].ingress, b.pkts[i], leaf)
	wk.sb.finish(s)
	in.mu.RUnlock()
	wk.sb.finish(root)
	return beh != nil
}

// libBatch answers batch k on in's library surface.
func (b *bench) libBatch(in *instance, wk *worker, k int) bool {
	j := k % len(b.batchIngr)
	pkts := b.pkts[j*batchSize : (j+1)*batchSize]
	id := wk.sb.req()
	root := wk.sb.start("lib.query_batch", -1, id)
	s := wk.sb.start("apclassifier.lock_wait", root, id)
	in.mu.RLock()
	wk.sb.finish(s)
	snap := in.c.Snapshot()
	s = wk.sb.start("aptree.ClassifyBatch", root, id)
	buf := batchBuf(in, wk)
	leaves := snap.ClassifyBatch(buf, pkts)
	wk.sb.finish(s)
	s = wk.sb.start("network.BehaviorBatchFrom", root, id)
	behs := snap.BehaviorBatchFrom(buf, b.batchIngr[j], pkts, leaves)
	wk.sb.finish(s)
	in.mu.RUnlock()
	wk.sb.finish(root)
	return len(behs) == batchSize
}

// checkSample is the fixed sample of queries the concurrent checker
// compares with the oracle, checkPerOp of them per operation.
const (
	checkSample = 512
	checkPerOp  = 4
)

// checkOp answers checkPerOp queries of the fixed sample on the churned
// copy's library surface and compares each with Dataset.Simulate under
// the same read lock, so the oracle sees exactly the epoch that answered.
// It runs as a low-rate open loop beside rule churn; a mismatch fails the
// operation.
func (b *bench) checkOp(wk *worker, k int) bool {
	in := b.churned
	id := wk.sb.req()
	root := wk.sb.start("check", -1, id)
	defer wk.sb.finish(root)
	s := wk.sb.start("apclassifier.lock_wait", root, id)
	in.mu.RLock()
	wk.sb.finish(s)
	defer in.mu.RUnlock()
	snap := in.c.Snapshot()
	ok := true
	for n := 0; n < checkPerOp; n++ {
		i := (k*checkPerOp + n) % checkSample
		q := b.queries[i]
		leaf := snap.Classify(b.pkts[i])
		got := behaviorVerdict(snap.BehaviorFrom(q.ingress, b.pkts[i], leaf))
		if want := simVerdict(in.ds, q); !got.equal(want) {
			b.checkErr("query %d after %d delta batches: served %v, oracle %v", i, in.applied, got, want)
			ok = false
		}
	}
	b.countChecks(checkPerOp)
	return ok
}

// firehose state: one closed-loop client applies sequenced delta batches.
type firehose struct {
	batches int
	changed int // batches whose publish changed the tree
}

// applyNext applies the next batch of the stream to the churned copy
// under the write lock.
func (b *bench) applyNext(wk *worker, fh *firehose) bool {
	in := b.churned
	if in.applied >= len(b.stream) {
		return false // stream exhausted: sized too small for this host
	}
	batch := b.stream[in.applied]
	id := wk.sb.req()
	root := wk.sb.start("update", -1, id)
	in.mu.Lock()
	in.applied++ // under the lock: checkers read it under the read lock
	seq := in.applied
	before := publishedTree(in)
	s := wk.sb.start("apclassifier.ApplyRuleDeltasSeq", root, id)
	applied, err := in.c.ApplyRuleDeltasSeq(uint64(seq), batch)
	wk.sb.finish(s)
	if publishedTree(in) != before {
		fh.changed++
	}
	in.mu.Unlock()
	wk.sb.finish(root)
	if err != nil || !applied {
		b.checkErr("delta batch %d: applied=%v err=%v", seq, applied, err)
		return false
	}
	fh.batches++
	return true
}

// publishedTree is the tree of in's published epoch; a publish that
// leaves it unchanged changed nothing a query can see.
func publishedTree(in *instance) *aptree.Tree { return in.c.Manager.Snapshot().Tree() }

// verifyLoad is one closed-loop verification client's tally.
type verifyLoad struct {
	loops    []time.Duration
	targeted []time.Duration
	loopFree []bool
	atoms    map[int][]int // target index → atom counts answered
}

// loopsEvery places the loop sweeps in the verification client's
// requests: every loopsEvery-th is GET /verify/loops. With one sweep per
// pass over the 64 targets, a run made about 40 sweeps on churn-sf, and
// their median spread 0.17 between runs; one in nine makes several
// hundred.
const loopsEvery = 9

// verifyOp issues the i-th request of a verification phase: every
// loopsEvery-th is GET /verify/loops, and the others ask for the sampled
// targets in turn, from where the last phase stopped.
func (b *bench) verifyOp(wk *worker, vl *verifyLoad, i int) bool {
	id := wk.sb.req()
	if i%loopsEvery == 0 {
		s := wk.sb.start("server.verify_loops", -1, id)
		t0 := time.Now()
		code, body := b.serve(http.MethodGet, "/verify/loops", nil)
		vl.loops = append(vl.loops, time.Since(t0))
		wk.sb.finish(s)
		var r struct {
			LoopFree bool `json:"loopFree"`
		}
		if code != http.StatusOK || json.Unmarshal(body, &r) != nil {
			return false
		}
		vl.loopFree = append(vl.loopFree, r.LoopFree)
		return true
	}
	t := b.nextTarget % len(b.verifyPairs)
	b.nextTarget++
	tg := b.verifyPairs[t]
	target := "/verify/blackholes?from=" + url.QueryEscape(b.live.ds.Boxes[tg.from].Name)
	name := "server.verify_blackholes"
	if tg.reach {
		target = "/verify/reach?from=" + url.QueryEscape(b.live.ds.Boxes[tg.from].Name) + "&host=" + url.QueryEscape(tg.host)
		name = "server.verify_reach"
	}
	s := wk.sb.start(name, -1, id)
	t0 := time.Now()
	code, body := b.serve(http.MethodGet, target, nil)
	vl.targeted = append(vl.targeted, time.Since(t0))
	wk.sb.finish(s)
	var r struct {
		Atoms int `json:"atoms"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &r) != nil {
		return false
	}
	vl.atoms[t] = append(vl.atoms[t], r.Atoms)
	return true
}
