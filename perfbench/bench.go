package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"apclassifier"
	"apclassifier/internal/checkpoint"
	"apclassifier/internal/netgen"
	"apclassifier/internal/server"
)

// poolSize is the number of distinct queries a run cycles through, and
// batchSize the packets per batch request.
const (
	poolSize  = 4096
	batchSize = 64
)

// bench is the state of one run: the served classifier behind its
// in-process HTTP handler, a second copy that takes the rule deltas, the
// seed's inputs, and what has been measured.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	tr       *tracer // nil when tracing is off
	outDir   string
	tmpDir   string

	live     *instance // served through h; the capacity, query and verification phases
	churned  *instance // rule deltas and the library queries beside them
	h        http.Handler
	boxIndex map[string]int

	queries     []query
	pkts        [][]byte // encoded packet of each query
	singleBody  [][]byte // /query body of each query
	batchBody   [][]byte // /query/batch body of batch j: queries [j·64, (j+1)·64)
	batchIngr   [][]int  // ingress slice of batch j (library surface)
	stream      [][]apclassifier.RuleDelta
	verifyPairs []verifyTarget
	nextTarget  int         // verification client's cursor, carried across phases
	direct      map[int]int // atoms of each target's direct answer on the live copy

	sampleMu sync.Mutex
	sampled  []sampledAnswer // HTTP answers kept for the output check

	e2e    map[string]float64
	layers map[string]float64

	// Tallies over a run's rounds (summarize turns them into metrics).
	capSlices []loadResult // the capacity slices
	capAlloc  float64      // bytes allocated over the capacity slices
	capPkts   float64      // packets answered over the capacity slices
	queryCtr  deltas       // query-path counters over the windows that report them
	queryPkts float64      // packets answered over those windows
	sweeps    []float64    // GET /verify/loops times, s
	targeted  []float64    // targeted verification times, ms
	hoses     []loadResult // the firehose's operations in each rule-delta phase
	fh        firehose     // the firehose's tally over those phases
	updCtr    deltas       // the program's counters over those phases
	churnWins [][2]int64   // tracer-clock windows of those phases

	ckptPath   string  // checkpoint the restarts read
	ckptAnswer verdict // the served classifier's answer when it was saved
	restartS   []float64
	decodeS    []float64
	attempted  int
	failed     int

	errMu      sync.Mutex
	checkErrs  []string // the first few failed checks, for the log
	nCheckErrs int
	nChecks    int
}

// instance is one copy of the workload's network in the program.
//
// A run keeps two. The live one is never updated: every round's capacity,
// query and verification phases meet the pristine network. The churned
// one, restored from the run's checkpoint as a server is after a warm
// restart, takes every rule delta, so the rule-delta phases can be cut
// into rounds like the rest. On the served copy they could not: on
// query-i2 the batch latency of later rounds rose by up to half after the
// first rounds' deltas, and on churn-sf what a verification probe costs
// after churn depends on the loops the seed's stream happened to make.
type instance struct {
	ds *netgen.Dataset // the oracle's copy of the rules; rule deltas mutate it
	c  *apclassifier.Classifier

	// mu mirrors the server's lock on the library surface: rule deltas
	// take the write lock and queries the read lock, as the facade's
	// stage-2 contract requires (queries must not walk a topology that an
	// update is rewiring).
	mu      sync.RWMutex
	applied int // batches of the stream applied so far; written under mu
}

// verifyTarget is one targeted verification request.
type verifyTarget struct {
	reach bool // /verify/reach, else /verify/blackholes
	from  int
	host  string
}

type sampledAnswer struct {
	first int // index of the first query the body answers
	batch bool
	body  []byte
}

func newBench(workload string, seed int64, seconds float64, trace bool, out string) (*bench, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{
		workload: workload, seed: seed, seconds: seconds, outDir: out, tmpDir: tmp,
		e2e: make(map[string]float64), layers: make(map[string]float64), queryCtr: deltas{}, updCtr: deltas{},
	}
	if trace {
		b.tr = newTracer()
	}
	return b, nil
}

func (b *bench) cleanup() {
	if b.tmpDir != "" {
		if err := os.RemoveAll(b.tmpDir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: removing %s: %v\n", b.tmpDir, err)
		}
		b.tmpDir = ""
	}
}

// phase returns share of the run's measured seconds.
func (b *bench) phase(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

// record adds a load phase's operations to the run's tallies.
func (b *bench) record(r loadResult) {
	b.attempted += r.attempts
	b.failed += r.failed
}

// checkErr records a failed output check of an operation that reports
// its own failure to the load generator. Safe for concurrent use.
func (b *bench) checkErr(format string, args ...interface{}) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	b.nCheckErrs++
	if len(b.checkErrs) < 8 {
		b.checkErrs = append(b.checkErrs, fmt.Sprintf(format, args...))
	}
}

// checkFail records a failed output check and counts it as a failed
// operation. Only for the run's main goroutine.
func (b *bench) checkFail(format string, args ...interface{}) {
	b.failed++
	b.checkErr(format, args...)
}

// countChecks tallies checks made. Safe for concurrent use.
func (b *bench) countChecks(n int) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	b.nChecks += n
}

// serve sends one request to the in-process handler (no socket).
func (b *bench) serve(method, target string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	b.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// setup builds the workload's network reps times — apclassifier.New plus
// server construction, dataset generation excluded — keeps the last build
// as the served classifier and reports the median build time.
func (b *bench) setup(gen func() *netgen.Dataset, reps int) error {
	var times []float64
	for i := 0; i < reps; i++ {
		ds := gen()
		b.live, b.h = nil, nil
		runtime.GC()
		sb := b.tr.buf()
		id := sb.req()
		s := sb.start("setup", -1, id)
		t0 := time.Now()
		c, err := apclassifier.New(ds, apclassifier.Options{})
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		srv := server.New(c)
		times = append(times, time.Since(t0).Seconds())
		sb.finish(s)
		b.live, b.h = &instance{ds: ds, c: c}, srv.Handler()
	}
	b.e2e["setup_s"] = median(times)
	b.boxIndex = make(map[string]int, len(b.live.ds.Boxes))
	for i := range b.live.ds.Boxes {
		b.boxIndex[b.live.ds.Boxes[i].Name] = i
	}
	return nil
}

// prepare draws the seed's inputs against the pristine dataset.
func (b *bench) prepare(uniform bool, churnEvents int, verifyPairs int) error {
	rng := rand.New(rand.NewSource(b.seed))
	b.queries = genQueries(b.live.ds, rng, poolSize, uniform)
	b.pkts = make([][]byte, len(b.queries))
	b.singleBody = make([][]byte, len(b.queries))
	reqs := make([]server.QueryRequest, len(b.queries))
	for i, q := range b.queries {
		b.pkts[i] = b.live.ds.PacketFromFields(q.f)
		reqs[i] = server.QueryRequest{
			Ingress: b.live.ds.Boxes[q.ingress].Name,
			Dst:     dottedQuad(q.f.Dst), Src: dottedQuad(q.f.Src),
			SrcPort: q.f.SrcPort, DstPort: q.f.DstPort, Proto: q.f.Proto,
		}
		body, err := json.Marshal(reqs[i])
		if err != nil {
			return err
		}
		b.singleBody[i] = body
	}
	for j := 0; j+batchSize <= len(b.queries); j += batchSize {
		body, err := json.Marshal(reqs[j : j+batchSize])
		if err != nil {
			return err
		}
		b.batchBody = append(b.batchBody, body)
		ingr := make([]int, batchSize)
		for i := range ingr {
			ingr[i] = b.queries[j+i].ingress
		}
		b.batchIngr = append(b.batchIngr, ingr)
	}
	b.stream = batches(genChurn(b.live.ds, rng, churnEvents))
	b.verifyPairs = verifyTargets(b.live.ds, rng, verifyPairs)
	return nil
}

// pairBoxes is the largest network whose verification targets are every
// pair of boxes (see verifyTargets).
const pairBoxes = 32

// verifyTargets draws the targeted verification requests. On networks of
// at most pairBoxes boxes they are a fixed sample in an order the seed
// shuffles: every ordered pair of boxes as a reach target, to the middle
// one of the hosts attached to the second box, and every box as a
// blackhole target. The mix of targets sets the latency quantiles: with
// 32 reach hosts drawn at random, hosts on the ingress box itself
// (answered at once) made up a different share of each seed's sample (a
// quartile spread of 0.19 over five runs of query-i2), and with the host
// of each box pair drawn at random, how cheap the drawn hosts were (0.19
// over five runs of churn-sf). Larger networks get n targets, half of
// each kind, their ingress boxes evenly spaced over the box list from a
// drawn offset, so that every seed's sample mixes box roles (core,
// aggregation and edge on the fat tree) in the same proportions.
func verifyTargets(ds *netgen.Dataset, rng *rand.Rand, n int) []verifyTarget {
	boxes := len(ds.Boxes)
	var out []verifyTarget
	if boxes <= pairBoxes {
		hostsOn := make([][]string, boxes)
		for _, h := range ds.Hosts {
			hostsOn[h.Box] = append(hostsOn[h.Box], h.Name)
		}
		for from := 0; from < boxes; from++ {
			out = append(out, verifyTarget{from: from})
			for to := 0; to < boxes; to++ {
				if hs := hostsOn[to]; len(hs) > 0 {
					out = append(out, verifyTarget{reach: true, from: from, host: hs[len(hs)/2]})
				}
			}
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	offReach, offHole := rng.Intn(boxes), rng.Intn(boxes)
	for i := 0; i < n; i++ {
		k := i / 2
		t := verifyTarget{reach: i%2 == 0, from: (offHole + k*2*boxes/n) % boxes}
		if t.reach {
			t.from = (offReach + k*2*boxes/n) % boxes
			t.host = ds.Hosts[rng.Intn(len(ds.Hosts))].Name
		}
		out = append(out, t)
	}
	return out
}

// saveCheckpoint writes the served classifier to the checkpoint file the
// restarts read, and records what the served classifier answers to the
// query every restart is checked with.
func (b *bench) saveCheckpoint() error {
	b.ckptPath = filepath.Join(b.tmpDir, "restart.apck")
	f, err := os.Create(b.ckptPath)
	if err != nil {
		return err
	}
	b.live.mu.RLock()
	src := b.live.c.CheckpointSource()
	b.live.mu.RUnlock()
	if err := checkpoint.Encode(f, src); err != nil {
		_ = f.Close() // the encode error is the one to report
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(b.ckptPath)
	if err != nil {
		return err
	}
	b.layers["checkpoint.bytes"] = float64(st.Size())
	b.ckptAnswer = behaviorVerdict(b.live.c.Behavior(b.queries[0].ingress, b.pkts[0]))
	return nil
}

// restart warm-restarts from the saved checkpoint reps times, each in a
// fresh process as a real restart is (restoreChild): checkpoint decode,
// classifier assembly, and the first answered query. Restores inside this
// process would instead meet whatever heap the run has built up.
//
// Workloads restart before every phase (inRounds), and restart_s is the
// median of all of them. This process collects first, so that no cycle of
// its own collector runs beside the child.
func (b *bench) restart(reps int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	runtime.GC()
	q := b.queries[0]
	for i := 0; i < reps; i++ {
		sb := b.tr.buf()
		s := sb.start("restart", -1, sb.req())
		out, err := exec.Command(exe, "--restore", b.ckptPath, "--ingress", strconv.Itoa(q.ingress),
			"--packet", hex.EncodeToString(b.pkts[0])).Output()
		sb.finish(s)
		if err != nil {
			return fmt.Errorf("restart process: %w", err)
		}
		var r restartReport
		if err := json.Unmarshal(out, &r); err != nil {
			return fmt.Errorf("restart process: %w", err)
		}
		b.restartS = append(b.restartS, r.TotalS)
		b.decodeS = append(b.decodeS, r.DecodeS)
		b.attempted++
		b.countChecks(1)
		if v := normalize(verdict{r.Delivered, r.Drops, r.Looped}); !v.equal(b.ckptAnswer) {
			b.checkFail("restored classifier answers %v, served one %v", v, b.ckptAnswer)
		}
	}
	b.e2e["restart_s"] = median(append([]float64(nil), b.restartS...))
	b.layers["checkpoint.restore_s"] = median(append([]float64(nil), b.decodeS...))
	return nil
}

// restartReport is what a restart process prints: its timings and its
// answer to the query it was given.
type restartReport struct {
	DecodeS   float64  `json:"decode_s"` // checkpoint.RestoreFile
	TotalS    float64  `json:"total_s"`  // through NewFromRestored and the first answer
	Delivered []string `json:"delivered"`
	Drops     []int    `json:"drops"`
	Looped    bool     `json:"looped"`
}

// restoreChild is the body of a restart process: restore the checkpoint
// at path, answer one query, and print a restartReport.
func restoreChild(path string, ingress int, packet string) error {
	pkt, err := hex.DecodeString(packet)
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := checkpoint.RestoreFile(path)
	if err != nil {
		return err
	}
	t1 := time.Now()
	c, err := apclassifier.NewFromRestored(res)
	if err != nil {
		return err
	}
	v := behaviorVerdict(c.Behavior(ingress, pkt))
	r := restartReport{
		DecodeS: t1.Sub(t0).Seconds(), TotalS: time.Since(t0).Seconds(),
		Delivered: v.delivered, Drops: v.drops, Looped: v.looped,
	}
	return json.NewEncoder(os.Stdout).Encode(r)
}

// heap forces a collection and reports the live heap.
func (b *bench) heap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.e2e["heap_mb"] = float64(ms.HeapAlloc) / 1e6
	b.layers["bdd.live_mb"] = float64(b.live.c.Snapshot().LiveMemBytes()) / 1e6
}

// checkSampled compares every kept HTTP answer with the oracle. It runs
// after a query phase, on the same epoch (no update runs during one).
func (b *bench) checkSampled() {
	for _, s := range b.sampled {
		var resps []server.QueryResponse
		if s.batch {
			if err := json.Unmarshal(s.body, &resps); err != nil || len(resps) != batchSize {
				b.checkFail("batch answer at %d: %d responses, err %v", s.first, len(resps), err)
				continue
			}
		} else {
			var r server.QueryResponse
			if err := json.Unmarshal(s.body, &r); err != nil {
				b.checkFail("answer %d: %v", s.first, err)
				continue
			}
			resps = []server.QueryResponse{r}
		}
		for i := range resps {
			k := s.first + i
			b.countChecks(1)
			got, err := responseVerdict(&resps[i], b.boxIndex)
			if err != nil {
				b.checkFail("answer %d: %v", k, err)
				continue
			}
			if want := simVerdict(b.live.ds, b.queries[k]); !got.equal(want) {
				b.checkFail("query %d (%+v from %s): served %v, oracle %v", k, b.queries[k].f, b.live.ds.Boxes[b.queries[k].ingress].Name, got, want)
			}
		}
	}
	b.sampled = b.sampled[:0]
}

// checkLibrary compares n library-surface answers of in with the oracle
// under the read lock, so the dataset cannot move between answer and
// oracle.
func (b *bench) checkLibrary(in *instance, n int) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	snap := in.c.Snapshot()
	for k := 0; k < n && k < len(b.queries); k++ {
		b.countChecks(1)
		q := b.queries[k]
		leaf := snap.Classify(b.pkts[k])
		got := behaviorVerdict(snap.BehaviorFrom(q.ingress, b.pkts[k], leaf))
		if want := simVerdict(in.ds, q); !got.equal(want) {
			b.checkFail("query %d after %d delta batches: served %v, oracle %v", k, in.applied, got, want)
		}
	}
}

// restoreChurned makes the churned copy: the run's checkpoint restored in
// this process. Its dataset is the checkpoint's own copy of the rules.
func (b *bench) restoreChurned() error {
	res, err := checkpoint.RestoreFile(b.ckptPath)
	if err != nil {
		return fmt.Errorf("restoring the churned copy: %w", err)
	}
	c, err := apclassifier.NewFromRestored(res)
	if err != nil {
		return fmt.Errorf("restoring the churned copy: %w", err)
	}
	b.churned = &instance{ds: c.Dataset, c: c}
	return nil
}

// result assembles the output line; a metric that could not be measured
// is an error, never a silent zero.
func (b *bench) result() result {
	res := result{
		Correct:   b.nCheckErrs == 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metric),
	}
	specs, vals := endToEnd, b.e2e
	if b.tr != nil {
		specs, vals = perLayer, b.layers
		for _, m := range append(endToEnd, tails...) {
			vals["traced."+m.name] = b.e2e[m.name]
		}
	}
	var missing []string
	for _, m := range specs {
		v, ok := vals[m.name]
		if !ok || !validMetric(v) {
			missing = append(missing, m.name)
			continue
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unmeasured metrics: %v\n", missing)
		res.Correct = false
		res.Failed++
	}
	for _, e := range b.checkErrs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d output checks, %d failed\n", b.nChecks, b.nCheckErrs)
	return res
}

// finishTrace writes the recorded spans out.
func (b *bench) finishTrace() error {
	if b.tr == nil {
		return nil
	}
	path := filepath.Join(b.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err := b.tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}
