// Package apclassifier is a control-plane tool for network-wide packet
// behavior identification, reproducing "Practical Network-Wide Packet
// Behavior Identification by AP Classifier" (Wang, Qian, Yu, Yang, Lam;
// CoNEXT 2015 / ToN 2017).
//
// Given the data-plane state of a network — forwarding tables and ACLs on
// every box — a Classifier answers, for any packet header and ingress box,
// the packet's complete network-wide behavior: the path (or multicast
// tree) it takes, where it is delivered, and where and why it is dropped.
//
// Queries run in two stages. Stage 1 classifies the packet to its atomic
// predicate by searching the AP Tree, a binary decision tree over the
// network's predicates whose construction order is optimized to minimize
// average search depth. Stage 2 walks the topology using the atomic
// predicate's membership bits — one bit per predicate — without touching a
// single BDD.
//
// Basic use:
//
//	ds := netgen.Internet2Like(netgen.Config{Seed: 1, RuleScale: 0.05})
//	c, err := apclassifier.New(ds, apclassifier.Options{})
//	...
//	pkt := c.Layout.NewPacket()
//	c.Layout.Set(pkt, "dstIP", 0x0A000001)
//	b := c.Behavior(ingressBox, pkt)
//	fmt.Println(b)
package apclassifier

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/checkpoint"
	"apclassifier/internal/header"
	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/obs"
	"apclassifier/internal/predicate"
	"apclassifier/internal/rule"
)

// Method re-exports the AP Tree construction methods.
type Method = aptree.Method

// Construction methods.
const (
	MethodOrder  = aptree.MethodOrder
	MethodRandom = aptree.MethodRandom
	MethodQuick  = aptree.MethodQuick
	MethodOAPT   = aptree.MethodOAPT
)

// Options configures Classifier construction.
type Options struct {
	// Method selects the AP Tree construction algorithm; the zero value
	// selects MethodOAPT, the paper's optimized construction. (The plain
	// fixed-order construction is available through TreeInput +
	// aptree.Build for experiments, not through the facade.)
	Method Method
	// Weights, if non-nil, holds per-atom query weights for the
	// distribution-aware construction (§V-D). Most callers instead query
	// for a while and call ReconstructWeighted.
	// (Weights indexes atoms of the initial build; advanced use only.)
	Weights []float64
	// SkipGC keeps intermediate BDD nodes after construction. Default
	// false: a mark-sweep pass reclaims conversion scratch space.
	SkipGC bool
}

// Classifier is the compiled form of a dataset: predicates, atoms, the AP
// Tree behind a reconstruction manager, and the topology for stage 2.
//
// Every reader pins one published epoch — tree, flat core, topology
// wiring and behavior cache from a single load — and holds no lock.
// Writers (rule deltas, middlebox changes, what-if forks) serialize on an
// internal mutex and publish a new epoch.
type Classifier struct {
	Layout  *header.Layout
	Manager *aptree.Manager
	// Net is the build-time topology (names, links, hosts), read-only:
	// updates never write it; the current wiring is Snapshot.Net.
	Net *network.Network
	// Dataset's rule tables are edited in place by the update methods;
	// read them only while no update runs.
	Dataset *netgen.Dataset

	// mu serializes writers: whatever edits or reads the rule tables or
	// derives the next epoch's wiring. Readers never take it.
	mu sync.Mutex

	// sink, when non-nil, receives per-query stage traces from Behavior
	// and BehaviorWith; see SetTraceSink for the hook contract.
	sink atomic.Pointer[obs.TraceRing]

	// deltaSeq is the sequence number of the last applied sequenced
	// rule-delta batch (ApplyRuleDeltasSeq); checkpoints record it so a
	// restored classifier resumes the firehose idempotently.
	deltaSeq atomic.Uint64
}

// New compiles a dataset: converts every forwarding table and ACL to
// predicates, computes atomic predicates, builds the AP Tree, and wires
// the topology.
func New(ds *netgen.Dataset, opts Options) (*Classifier, error) {
	if opts.Method == aptree.MethodRandom {
		return nil, fmt.Errorf("apclassifier: MethodRandom is for experiments; use TreeInput with aptree.Build")
	}
	if opts.Method == aptree.MethodOrder {
		opts.Method = aptree.MethodOAPT
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("apclassifier: invalid dataset: %w", err)
	}
	c := &Classifier{Layout: ds.Layout, Dataset: ds}
	d := bdd.New(ds.Layout.Bits())
	reg := aptree.NewRegistry()

	dstField := "dstIP"
	if _, ok := ds.Layout.FieldByName(dstField); !ok {
		return nil, fmt.Errorf("apclassifier: layout lacks %q field", dstField)
	}

	// Convert forwarding tables (one predicate per non-empty output port),
	// then ACLs, into the registry and the per-box wiring.
	add := func(p bdd.Ref) int32 {
		d.Retain(p)
		return reg.Add(p)
	}
	boxes := make([]checkpoint.BoxWiring, len(ds.Boxes))
	for bi := range ds.Boxes {
		box := &ds.Boxes[bi]
		w := checkpoint.BoxWiring{InACL: network.NoPred, Fwd: make([]int32, box.NumPorts), OutACL: make([]int32, box.NumPorts)}
		for pi, p := range predicate.PortPredicates(d, ds.Layout, dstField, &box.Fwd, box.NumPorts) {
			w.Fwd[pi], w.OutACL[pi] = network.NoPred, network.NoPred
			if p != bdd.False {
				w.Fwd[pi] = add(p)
			}
		}
		boxes[bi] = w
	}
	for bi := range ds.Boxes {
		box := &ds.Boxes[bi]
		// Sorted port order, not map order: predicate registry IDs fix the
		// atom numbering, and a sharded fleet (internal/cluster) relies on
		// independent builds of one dataset agreeing bit for bit.
		ports := make([]int, 0, len(box.PortACL))
		for pi := range box.PortACL {
			ports = append(ports, pi)
		}
		sort.Ints(ports)
		for _, pi := range ports {
			boxes[bi].OutACL[pi] = add(predicate.ACLPredicate(d, ds.Layout, box.PortACL[pi]))
		}
		if box.InACL != nil {
			boxes[bi].InACL = add(predicate.ACLPredicate(d, ds.Layout, box.InACL))
		}
	}

	// Atoms and tree.
	in := treeInput(d, reg.LiveIDs(), reg.Ref)
	in.Weights = opts.Weights
	tree := aptree.Build(in, opts.Method)
	// Reclaim conversion scratch before the manager publishes its first
	// snapshot: once a frozen view of the DD is out, the DD must never be
	// garbage collected again (the GC-at-swap rule; see bdd.View).
	if !opts.SkipGC {
		d.GC()
	}
	c.Manager = aptree.NewManagerWith(d, reg, tree, opts.Method)
	c.wire(boxes)
	return c, nil
}

// wire finishes a cold build or warm restore: it builds the topology bound
// to the given predicate IDs and publishes it as the epoch's wiring.
func (c *Classifier) wire(boxes []checkpoint.BoxWiring) {
	ds := c.Dataset
	c.Net = network.New()
	for bi, w := range boxes {
		b := c.Net.Boxes[c.Net.AddBox(ds.Boxes[bi].Name, ds.Boxes[bi].NumPorts)]
		b.InACL = w.InACL
		for pi := range b.Ports {
			b.Ports[pi].Fwd, b.Ports[pi].OutACL = w.Fwd[pi], w.OutACL[pi]
		}
	}
	for _, l := range ds.Links {
		c.Net.Link(l.A, l.PA, l.B, l.PB)
	}
	for _, h := range ds.Hosts {
		c.Net.AttachHost(h.Box, h.Port, h.Name)
	}
	if flatDisabledByEnv() {
		c.Manager.SetFlatCompile(false)
	}
	w := &wiring{net: c.Net, rules: ds.NumRules(), aclRules: ds.NumACLRules()}
	c.Manager.Update(func(tx *aptree.Tx) { tx.SetWiring(w) })
}

// flatDisabledByEnv reports the APC_FLAT=0 escape hatch: operators set it
// to serve stage 1 from the pointer tree instead of the compiled flat
// core — the rollback lever if a flat-compile bug ever ships. Read at
// classifier construction; flip at runtime via Manager.SetFlatCompile.
func flatDisabledByEnv() bool { return os.Getenv("APC_FLAT") == "0" }

// Env returns a stage-2 environment over the live classifier
// (classification, liveness), for driving network.Behavior directly.
func (c *Classifier) Env() *network.Env { return &network.Env{Source: c.Manager} }

// TreeInput recomputes the atomic predicates of the live predicate set and
// returns a build input suitable for constructing additional AP Trees over
// the same predicates — the experiment harness uses it to compare
// construction methods. The classifier must be quiescent (no concurrent
// updates or reconstructions) while the input and trees built from it are
// in use, because they share the live DD.
func (c *Classifier) TreeInput() aptree.Input {
	return treeInput(c.Manager.DD(), c.Manager.LiveIDs(), c.Manager.Ref)
}

// treeInput computes the atomic predicates of the live predicate IDs
// (ascending) and returns them as a build input over those predicates.
func treeInput(d *bdd.DD, live []int32, ref func(int32) bdd.Ref) aptree.Input {
	numIDs := 0
	if len(live) > 0 {
		numIDs = int(live[len(live)-1]) + 1
	}
	preds := make([]bdd.Ref, numIDs)
	refs := make([]bdd.Ref, len(live))
	ids := make([]int, len(live))
	for i, id := range live {
		preds[id], refs[i], ids[i] = ref(id), ref(id), int(id)
	}
	return aptree.Input{D: d, Preds: preds, Live: live, Atoms: predicate.ComputeMapped(d, refs, ids, numIDs)}
}

// Classify runs stage 1: it returns the AP Tree leaf (atomic predicate)
// for the packet. It acquires no lock.
func (c *Classifier) Classify(pkt header.Packet) *aptree.Node {
	leaf, _ := c.Manager.Classify(pkt)
	return leaf
}

// Behavior runs both stages: it classifies the packet and computes its
// network-wide behavior from the given ingress box. The whole query is
// pinned to one published epoch and acquires no lock; it runs safely
// concurrent with updates and reconstructions. Deterministic walks are
// memoized per (ingress, atom) in the epoch's behavior cache, so repeated
// queries in the same traffic class skip stage 2 entirely; the returned
// behavior may be that shared cached value and must be treated as
// read-only.
func (c *Classifier) Behavior(ingress int, pkt header.Packet) *network.Behavior {
	return c.BehaviorWith(nil, ingress, pkt)
}

// behaviorVia is the one stage-2 pipeline every query path funnels
// through: consult epoch s's behavior cache bc (nil for none), walk the
// epoch's wiring on a miss (through the caller's Walker scratch when
// given), and memoize the walk if it was deterministic. With persist set
// the result never aliases Walker scratch, the form batch queries need.
func behaviorVia(bc *network.BehaviorCache, w *network.Walker, s *aptree.Snapshot, ingress int, pkt header.Packet, leaf *aptree.Node, persist bool) *network.Behavior {
	debugCheckCacheEpoch(bc, s)
	if bc != nil {
		if b := bc.Lookup(ingress, leaf.AtomID); b != nil {
			return b
		}
	}
	net := wiringOf(s).net
	var b *network.Behavior
	if w != nil {
		b = w.BehaviorPinned(net, s, ingress, pkt, leaf)
		if persist || (bc != nil && b.Deterministic()) {
			b = b.Clone()
		}
	} else {
		b = net.Behavior(&network.Env{Source: s}, ingress, pkt, leaf)
	}
	if bc != nil && b.Deterministic() {
		bc.Store(ingress, leaf.AtomID, b)
	}
	return b
}

// NewWalker returns a reusable stage-2 traverser bound to this classifier,
// for allocation-free hot query loops. One Walker per goroutine.
func (c *Classifier) NewWalker() *network.Walker {
	return network.NewWalker(c.Net, nil)
}

// BehaviorWith is Behavior through the caller's Walker (nil for none);
// assume the result is valid only until the Walker's next query.
func (c *Classifier) BehaviorWith(w *network.Walker, ingress int, pkt header.Packet) *network.Behavior {
	if ring := c.sink.Load(); ring != nil {
		return c.traceQuery(ring, w, ingress, pkt)
	}
	return c.Snapshot().BehaviorWith(w, ingress, pkt)
}

// NumPredicates reports the number of live predicates.
func (c *Classifier) NumPredicates() int { return c.Manager.NumLive() }

// NumAtoms reports the number of leaves (atomic predicates) of the
// published tree.
func (c *Classifier) NumAtoms() int { return c.Manager.Snapshot().Tree().NumLeaves() }

// AverageDepth reports the published tree's mean leaf depth.
func (c *Classifier) AverageDepth() float64 { return c.Manager.Snapshot().Tree().AverageDepth() }

// MemBytes estimates the memory footprint of the classifier state: BDD
// store (predicates + atoms + tree labels share it), membership vectors
// and tree nodes. It reads the published snapshot, so it is safe
// concurrent with updates.
func (c *Classifier) MemBytes() int {
	s := c.Manager.Snapshot()
	tree := s.Tree()
	mem := s.View().MemBytes()
	perLeaf := 64 // node struct
	mem += tree.NumLeaves() * (perLeaf + (tree.NumPreds()+7)/8)
	mem += (tree.NumLeaves() - 1) * perLeaf // internal nodes
	return mem
}

// Reconstruct rebuilds the AP Tree (optionally distribution-aware) and
// swaps it in; safe concurrently with queries and updates.
func (c *Classifier) Reconstruct(weighted bool) { c.Manager.Reconstruct(weighted) }

// AddFwdRule installs a forwarding rule on a box and updates the AP Tree
// in real time through the delta pipeline: the table mutation reports its
// LPM cone, only the port predicates whose covering set changed are
// recomputed (and only inside the cone region), and each swap runs the
// atom split/merge path — the rule-update-to-predicate-change conversion
// of §VI-A made incremental end to end. See ApplyRuleDeltas for batches.
func (c *Classifier) AddFwdRule(box int, r rule.FwdRule) {
	c.mustApply(RuleDelta{Op: OpAddFwdRule, Box: box, Rule: r})
}

// mustApply applies one delta, panicking on a validation error.
func (c *Classifier) mustApply(dl RuleDelta) {
	if err := c.ApplyRuleDeltas([]RuleDelta{dl}); err != nil {
		panic(err)
	}
}

// RemoveFwdRule removes a forwarding rule (by exact prefix) from a box and
// updates the AP Tree in real time via the delta pipeline; the atoms the
// rule's predicates refined are merged back immediately rather than
// tombstoned until the next Reconstruct.
func (c *Classifier) RemoveFwdRule(box int, p rule.Prefix) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !slices.ContainsFunc(c.Dataset.Boxes[box].Fwd.Rules, func(r rule.FwdRule) bool { return r.Prefix == p }) {
		return false
	}
	c.applyLocked([]RuleDelta{{Op: OpRemoveFwdRule, Box: box, Prefix: p}})
	return true
}

// SetPortACL installs, replaces, or (with nil) removes the egress ACL of a
// port, converting it to a predicate and updating the AP Tree in real time.
func (c *Classifier) SetPortACL(box, port int, acl *rule.ACL) {
	c.mustApply(RuleDelta{Op: OpSetPortACL, Box: box, Port: port, ACL: acl})
}

// SetInACL installs, replaces, or (with nil) removes a box's ingress ACL.
func (c *Classifier) SetInACL(box int, acl *rule.ACL) {
	c.mustApply(RuleDelta{Op: OpSetInACL, Box: box, ACL: acl})
}

// SetMiddlebox attaches (nil: detaches) a header-modifying middlebox to
// a box (§V-E) as a new epoch, whose behavior cache starts empty. Do not
// edit an attached middlebox's entries; attach a new one.
func (c *Classifier) SetMiddlebox(box int, mb *network.Middlebox) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Manager.Update(func(tx *aptree.Tx) {
		w := *tx.Wiring().(*wiring)
		old := w.net
		w.net = nextNet(old)
		ownBox(w.net, old, box).MB = mb
		tx.SetWiring(&w)
	})
}

// ReconvertBox recomputes every port predicate of a box from scratch and
// swaps the changed ones, tombstoning replaced IDs until the next
// Reconstruct. This is the pre-delta update path, kept as the baseline the
// churn benchmark (and EXPERIMENTS.md) compares the delta pipeline
// against; production callers should use ApplyRuleDeltas or the rule-level
// mutators, which touch only the cone a change actually affects.
func (c *Classifier) ReconvertBox(box int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	spec := &c.Dataset.Boxes[box]
	c.Manager.Update(func(tx *aptree.Tx) {
		w := *tx.Wiring().(*wiring)
		old := w.net
		w.net = nextNet(old)
		preds := predicate.PortPredicates(tx.DD(), c.Layout, "dstIP", &spec.Fwd, spec.NumPorts)
		for pi := 0; pi < spec.NumPorts; pi++ {
			oldID := old.Boxes[box].Ports[pi].Fwd
			oldRef := bdd.False
			if oldID != network.NoPred {
				oldRef = tx.Ref(oldID)
			}
			if preds[pi] == oldRef {
				continue
			}
			newID := network.NoPred
			if oldID != network.NoPred {
				tx.Delete(oldID)
			}
			if preds[pi] != bdd.False {
				newID = tx.Add(preds[pi])
			}
			ownBox(w.net, old, box).Ports[pi].Fwd = newID
		}
		w.rules = c.Dataset.NumRules()
		tx.SetWiring(&w)
	})
}
