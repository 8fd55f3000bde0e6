package main

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"apclassifier"
	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/cluster"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/predicate"
	"apclassifier/internal/rule"
	"apclassifier/internal/server"
)

// The traced run's extra passes. They run after, or between, the timed
// phases and only when tracing is on: a mirror of the HTTP query path, a
// replay of the build on a fresh DD, and a replay of the applied rule
// deltas' LPM cones and predicate recomputation on that replica.

// timed runs fn inside a span and returns its duration in ns.
func timed(sb *spanBuf, name string, parent int, id int64, fn func()) float64 {
	s := sb.start(name, parent, id)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sb.finish(s)
	return float64(d)
}

// mirror sends single and batch queries (alternately) through the handler
// for d, and after each one repeats the handler's work as separate calls
// into the layers it uses: JSON decode, PacketFromFields, stage-1
// classification, the stage-2 walk and JSON encode. The server's own time
// is the handler's duration minus those calls. No update may run
// concurrently: the mirrored calls read the topology without a lock.
func (b *bench) mirror(d time.Duration) {
	sb := b.tr.buf()
	buf := b.live.c.NewBatchBuffer()
	var pkts, decode, encode, packet, classify, walk, depth float64
	var selfs []float64
	end := time.Now().Add(d)
	for i := 0; i < 200 || time.Now().Before(end); i++ {
		id := sb.req()
		root := sb.start("mirror", -1, id)
		batch := i%2 == 1
		target, body := "/query", b.singleBody[(i/2)%len(b.singleBody)]
		if batch {
			target, body = "/query/batch", b.batchBody[(i/2)%len(b.batchBody)]
		}
		var code int
		httpNs := timed(sb, "server.ServeHTTP", root, id, func() { code, _ = b.serve(http.MethodPost, target, body) })
		b.attempted++
		if code != http.StatusOK {
			b.checkFail("mirrored %s: status %d", target, code)
			sb.finish(root)
			continue
		}
		var reqs []server.QueryRequest
		var ingress []int
		var fields []rule.Fields
		var err error
		dDec := timed(sb, "server.decode", root, id, func() {
			if batch {
				err = json.Unmarshal(body, &reqs)
			} else {
				reqs = make([]server.QueryRequest, 1)
				err = json.Unmarshal(body, &reqs[0])
			}
			for k := 0; err == nil && k < len(reqs); k++ {
				f := rule.Fields{SrcPort: reqs[k].SrcPort, DstPort: reqs[k].DstPort, Proto: reqs[k].Proto}
				if f.Dst, err = cluster.ParseIPv4(reqs[k].Dst); err == nil {
					f.Src, err = cluster.ParseIPv4(reqs[k].Src)
				}
				fields = append(fields, f)
				ingress = append(ingress, b.live.c.Net.BoxByName(reqs[k].Ingress))
			}
		})
		if err != nil {
			b.checkFail("mirrored decode: %v", err)
			sb.finish(root)
			continue
		}
		encoded := make([][]byte, len(fields))
		dPkt := timed(sb, "netgen.PacketFromFields", root, id, func() {
			for k, f := range fields {
				encoded[k] = b.live.ds.PacketFromFields(f)
			}
		})
		snap := b.live.c.Snapshot()
		var leaves []*aptree.Node
		var behs []*network.Behavior
		dCls := timed(sb, "aptree.Classify", root, id, func() {
			if batch {
				leaves = snap.ClassifyBatch(buf, encoded)
			} else {
				leaves = []*aptree.Node{snap.Classify(encoded[0])}
			}
		})
		dWalk := timed(sb, "network.BehaviorFrom", root, id, func() {
			if batch {
				behs = snap.BehaviorBatchFrom(buf, ingress, encoded, leaves)
			} else {
				behs = []*network.Behavior{snap.BehaviorFrom(ingress[0], encoded[0], leaves[0])}
			}
		})
		dEnc := timed(sb, "server.encode", root, id, func() {
			resps := make([]server.QueryResponse, len(behs))
			for k := range behs {
				resps[k] = responseOf(leaves[k].AtomID, leaves[k].Depth, behs[k], b.live.c.Net)
			}
			var v interface{} = resps
			if !batch {
				v = resps[0]
			}
			_, err = json.Marshal(v)
		})
		sb.finish(root)
		if err != nil {
			b.checkFail("mirrored encode: %v", err)
			continue
		}
		for _, l := range leaves {
			depth += float64(l.Depth)
		}
		n := float64(len(fields))
		pkts += n
		decode += dDec
		packet += dPkt
		classify += dCls
		walk += dWalk
		encode += dEnc
		selfs = append(selfs, httpNs-(dDec+dPkt+dCls+dWalk+dEnc))
	}
	b.layers["server.decode_ns_per_query"] = decode / pkts
	b.layers["server.encode_ns_per_query"] = encode / pkts
	b.layers["netgen.packet_ns"] = packet / pkts
	b.layers["aptree.classify_ns_per_pkt"] = classify / pkts
	b.layers["network.walk_ns_per_pkt"] = walk / pkts
	b.layers["aptree.depth_mean"] = depth / pkts
	b.layers["server.self_us"] = mean(selfs) / 1e3
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// replica is the traced run's second build of the workload's network.
type replica struct {
	ds      *netgen.Dataset
	m       *aptree.Manager
	portRef [][]bdd.Ref // current forwarding predicate of each box port
}

// buildReplay repeats apclassifier.New's build step by step through the
// public layer functions on a fresh DD, timing each step, and checks that
// it arrives at the served classifier's atom count.
func (b *bench) buildReplay(gen func() *netgen.Dataset, wantAtoms int) *replica {
	ds := gen()
	sb := b.tr.buf()
	id := sb.req()
	root := sb.start("build", -1, id)
	defer sb.finish(root)
	d := bdd.New(ds.Layout.Bits())
	reg := aptree.NewRegistry()
	portRef := make([][]bdd.Ref, len(ds.Boxes))
	conv := timed(sb, "predicate.convert", root, id, func() {
		for bi := range ds.Boxes {
			box := &ds.Boxes[bi]
			portRef[bi] = predicate.PortPredicates(d, ds.Layout, "dstIP", &box.Fwd, box.NumPorts)
			for _, p := range portRef[bi] {
				if p != bdd.False {
					d.Retain(p)
					reg.Add(p)
				}
			}
		}
		for bi := range ds.Boxes {
			box := &ds.Boxes[bi]
			ports := make([]int, 0, len(box.PortACL))
			for pi := range box.PortACL {
				ports = append(ports, pi)
			}
			sort.Ints(ports)
			for _, pi := range ports {
				p := predicate.ACLPredicate(d, ds.Layout, box.PortACL[pi])
				d.Retain(p)
				reg.Add(p)
			}
			if box.InACL != nil {
				p := predicate.ACLPredicate(d, ds.Layout, box.InACL)
				d.Retain(p)
				reg.Add(p)
			}
		}
	})
	live := reg.LiveIDs()
	var atoms *predicate.Atoms
	dAtoms := timed(sb, "predicate.ComputeMapped", root, id, func() {
		refs := make([]bdd.Ref, len(live))
		ids := make([]int, len(live))
		for i, lid := range live {
			refs[i] = reg.Ref(lid)
			ids[i] = int(lid)
		}
		atoms = predicate.ComputeMapped(d, refs, ids, reg.NumIDs())
	})
	var tree *aptree.Tree
	dBuild := timed(sb, "aptree.Build", root, id, func() {
		tree = aptree.Build(aptree.Input{D: d, Preds: reg.Refs(), Live: live, Atoms: atoms}, aptree.MethodOAPT)
	})
	timed(sb, "bdd.GC", root, id, func() { d.GC() })
	var m *aptree.Manager
	dPub := timed(sb, "aptree.NewManagerWith", root, id, func() {
		m = aptree.NewManagerWith(d, reg, tree, aptree.MethodOAPT)
	})
	b.layers["predicate.convert_s"] = conv / 1e9
	b.layers["predicate.atoms_s"] = dAtoms / 1e9
	b.layers["aptree.build_s"] = dBuild / 1e9
	b.layers["aptree.publish_ms"] = dPub / 1e6
	b.attempted++
	b.countChecks(1)
	if got := m.Snapshot().Tree().NumLeaves(); got != wantAtoms {
		b.checkFail("replayed build has %d atoms, served classifier %d", got, wantAtoms)
	}
	return &replica{ds: ds, m: m, portRef: portRef}
}

// maxConeReplay bounds the deltas the cone replay repeats.
const maxConeReplay = 4096

// coneReplay repeats the forwarding deltas the firehose applied on the
// replica, one at a time: the LPM cone of the table mutation
// (AddWithCone/RemoveWithCone), then the cone-scoped recomputation of the
// box's port predicates (DeltaPortPredicates). The predicates are built in
// the replica's DD inside one Update; the tree is left as it was.
func (b *bench) coneReplay(r *replica) {
	sb := b.tr.buf()
	var cones, deltas []float64
	r.m.Update(func(tx *aptree.Tx) {
		d := tx.DD()
		n := 0
		for _, batch := range b.stream[:b.churned.applied] {
			for _, dl := range batch {
				if n >= maxConeReplay {
					return
				}
				spec := &r.ds.Boxes[dl.Box]
				var cone rule.Cone
				ok := true
				id := sb.req()
				switch dl.Op {
				case apclassifier.OpAddFwdRule:
					cones = append(cones, timed(sb, "rule.AddWithCone", -1, id, func() { cone = spec.Fwd.AddWithCone(dl.Rule) }))
				case apclassifier.OpRemoveFwdRule:
					cones = append(cones, timed(sb, "rule.RemoveWithCone", -1, id, func() { cone, ok = spec.Fwd.RemoveWithCone(dl.Prefix) }))
				default:
					continue
				}
				n++
				if !ok {
					b.checkFail("cone replay: %v %v absent from the replica", dl.Box, dl.Prefix)
					continue
				}
				refs := r.portRef[dl.Box]
				var pd []predicate.PortPredicateDelta
				deltas = append(deltas, timed(sb, "predicate.DeltaPortPredicates", -1, id, func() {
					pd = predicate.DeltaPortPredicates(d, r.ds.Layout, "dstIP", &spec.Fwd, []rule.Cone{cone}, spec.NumPorts,
						func(port int) bdd.Ref { return refs[port] })
				}))
				for _, p := range pd {
					refs[p.Port] = p.New
				}
			}
		}
	})
	b.layers["rule.cone_us"] = mean(cones) / 1e3
	b.layers["predicate.delta_us"] = mean(deltas) / 1e3
}

// spanLayers derives the per-layer times that come straight from spans.
func (b *bench) spanLayers() {
	st := b.tr.spanDurations()
	med := func(names ...string) float64 {
		var xs []float64
		for _, n := range names {
			xs = append(xs, st[n]...)
		}
		return median(xs)
	}
	b.layers["apclassifier.apply_ms"] = med("apclassifier.ApplyRuleDeltasSeq") / 1e6
	b.layers["verify.new_ms"] = med("verify.New") / 1e6
	b.layers["verify.loops_s"] = med("verify.Loops") / 1e9
	b.layers["verify.reach_ms"] = med("verify.ReachSet") / 1e6
	b.layers["verify.blackholes_ms"] = med("verify.Blackholes") / 1e6
	direct := med("verify.New") + med("verify.ReachSet", "verify.Blackholes")
	b.layers["server.verify_self_ms"] = (med("server.verify_reach", "server.verify_blackholes") - direct) / 1e6

	// Reader wait on the mirrored lock while the firehose ran.
	var waits []float64
	b.tr.each("apclassifier.lock_wait", func(s span) {
		for _, w := range b.churnWins {
			if s.Start >= w[0] && s.Start < w[1] {
				waits = append(waits, float64(s.End-s.Start))
			}
		}
	})
	b.layers["apclassifier.lock_wait_us"] = mean(waits) / 1e3
}

// flatShare reads the share of compiled flat-core nodes that fall back to
// BDD evaluation, from the gauges of the last published epoch.
func (b *bench) flatShare() {
	c := counters()
	b.layers["aptree.flat_fallback_share"] = c["apc_flat_fallback_nodes"] / c["apc_flat_nodes"]
}

// traceNow is the tracer's clock, for marking phase windows.
func (b *bench) traceNow() int64 {
	if b.tr == nil {
		return 0
	}
	return int64(time.Since(b.tr.epoch))
}

func (t *tracer) each(name string, fn func(span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if s.Name == name {
				fn(s)
			}
		}
	}
}
