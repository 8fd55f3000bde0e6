// Package verify builds the control-plane applications of §I on top of
// packet behavior identification: network-wide invariant checking at
// atomic-predicate granularity.
//
// Because every packet in an atom behaves identically at every box,
// network-wide questions ("which packets reach host h from box b?", "does
// any packet loop?", "can traffic bypass the firewall?") reduce to one
// behavior computation per (atom, ingress) pair, and their answers are
// exact packet sets — unions of atoms — rather than samples.
//
// The Analyzer is snapshot-native: New pins one published classifier
// epoch (tree, wiring and behavior cache, in O(1), copying nothing) and
// never reads the live Manager again. Analyses are therefore lock-free and
// churn-safe, with no quiescence requirement. Results are PacketSets:
// interval-coded atom-ID sets interpreted against the pinned epoch.
package verify

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"apclassifier"
	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/header"
	"apclassifier/internal/network"
	"apclassifier/internal/predicate"
)

// Analyzer answers network-wide verification queries against one pinned
// classifier epoch. It is safe for concurrent use; sweep queries
// parallelize internally.
type Analyzer struct {
	layout *header.Layout
	snap   *aptree.Snapshot
	view   *aptree.AtomView
	net    *network.Network
	// cache is the epoch's behavior cache, shared with the query path,
	// for targeted queries. Exhaustive sweeps (Loops, ReachabilityMatrix)
	// deliberately bypass it: at fat-tree scale persisting millions of
	// cloned behaviors costs more than the walks they would save.
	cache *network.BehaviorCache
}

// ErrMiddlebox rejects a topology with middleboxes, whose rewrites depend
// on concrete headers, not atoms.
var ErrMiddlebox = errors.New("verify: atom-level analysis does not support middleboxes")

// Pin builds an analyzer over the classifier's published epoch, which
// later updates do not change; it fails with ErrMiddlebox when that
// epoch's topology carries a middlebox.
func Pin(c *apclassifier.Classifier) (*Analyzer, error) {
	s := c.Snapshot()
	net := s.Net()
	for _, b := range net.Boxes {
		if b.MB != nil {
			return nil, fmt.Errorf("%w (middlebox %q on box %s)", ErrMiddlebox, b.MB.Name, b.Name)
		}
	}
	snap := s.Epoch()
	return &Analyzer{
		layout: c.Layout,
		snap:   snap,
		view:   snap.Atoms(),
		net:    net,
		cache:  s.BehaviorCache(),
	}, nil
}

// New is Pin for networks known to carry no middlebox; it panics with
// Pin's error otherwise.
func New(c *apclassifier.Classifier) *Analyzer {
	a, err := Pin(c)
	if err != nil {
		panic(err)
	}
	return a
}

// Epoch reports the reconstruction epoch the analyzer is pinned to.
func (a *Analyzer) Epoch() uint64 { return a.snap.Version() }

// NumAtoms reports the number of atoms in the pinned epoch.
func (a *Analyzer) NumAtoms() int { return a.view.N() }

// NumBoxes reports the number of boxes in the pinned topology.
func (a *Analyzer) NumBoxes() int { return len(a.net.Boxes) }

// BoxByName resolves a box name against the pinned topology (not the live
// one, which may gain boxes concurrently). Returns -1 if absent.
func (a *Analyzer) BoxByName(name string) int { return a.net.BoxByName(name) }

// BoxName returns the pinned topology's name for a box ID.
func (a *Analyzer) BoxName(i int) string { return a.net.Boxes[i].Name }

// newWalker returns a traverser over the pinned topology and epoch. One
// per goroutine; the analyzer itself holds none.
func (a *Analyzer) newWalker() *network.Walker {
	return network.NewWalker(a.net, &network.Env{Source: a.snap})
}

// behavior computes (or recalls) the behavior of an atom from an ingress
// through the per-epoch cache.
func (a *Analyzer) behavior(w *network.Walker, ingress int, atom int32) *network.Behavior {
	if b := a.cache.Lookup(ingress, atom); b != nil {
		return b
	}
	b := w.Behavior(ingress, nil, a.view.Leaf(atom)).Clone()
	a.cache.Store(ingress, atom, b)
	return b
}

// PacketSet is an exact set of packets of the analyzer's epoch: a union
// of atomic predicates, held as an interval-coded atom-ID set. All
// per-packet questions (membership, counting, examples) are answered
// from the pinned snapshot without touching the live classifier.
type PacketSet struct {
	a   *Analyzer
	set predicate.AtomSet
}

// Empty reports whether the set contains no packets.
func (ps PacketSet) Empty() bool { return ps.set.Empty() }

// NumAtoms reports how many atoms make up the set.
func (ps PacketSet) NumAtoms() int { return ps.set.Len() }

// Atoms returns the underlying interval-coded atom-ID set.
func (ps PacketSet) Atoms() predicate.AtomSet { return ps.set }

// Contains reports whether the concrete packet belongs to the set,
// classifying it against the pinned epoch.
func (ps PacketSet) Contains(pkt []byte) bool {
	leaf, _ := ps.a.snap.ClassifyPointer(pkt)
	return ps.set.Contains(leaf.AtomID)
}

// Count returns the number of headers in the set (atoms are disjoint, so
// their satisfying-assignment counts add).
func (ps PacketSet) Count() float64 {
	v := ps.a.snap.View()
	total := 0.0
	ps.set.Each(func(id int32) bool {
		total += v.SatCount(ps.a.view.BDD(id))
		return true
	})
	return total
}

// Fraction returns the set's share of the whole header space, in [0, 1].
func (ps PacketSet) Fraction() float64 {
	return ps.Count() / ps.a.snap.View().SatCount(bdd.True)
}

// Example returns one satisfying header assignment (bdd.AnySat form:
// entries 0, 1 or -1 for don't-care) from the set, or nil if it is empty.
func (ps PacketSet) Example() []int8 {
	if ps.set.Empty() {
		return nil
	}
	return ps.a.snap.View().AnySat(ps.a.view.BDD(ps.set.Min()))
}

// UnionRef materializes the set as a single BDD by disjoining its atom
// BDDs in d. The atom refs belong to the pinned epoch's DD lineage, so d
// must be that same DD — in practice: the classifier's live DD, with no
// Reconstruct between New and this call. That is the situation of
// quiescent tests and BDD-interoperating tools (the policy guard); the
// analyzer itself never needs it.
func (ps PacketSet) UnionRef(d *bdd.DD) bdd.Ref {
	set := bdd.False
	ps.set.Each(func(id int32) bool {
		set = d.Or(set, ps.a.view.BDD(id))
		return true
	})
	return set
}

// packetSet assembles a PacketSet from an ascending-ID builder.
func (a *Analyzer) packetSet(b *predicate.AtomSetBuilder) PacketSet {
	return PacketSet{a: a, set: b.Set()}
}

// ReachSet returns the exact set of packets that, entering at ingress,
// are delivered to the named host.
func (a *Analyzer) ReachSet(ingress int, host string) PacketSet {
	w := a.newWalker()
	var b predicate.AtomSetBuilder
	a.view.Each(func(atom int32) bool {
		if a.behavior(w, ingress, atom).Delivered(host) {
			b.Add(atom)
		}
		return true
	})
	return a.packetSet(&b)
}

// Blackholes returns the set of packets that, entering at ingress, have
// at least one branch dropped for lack of any matching output port.
func (a *Analyzer) Blackholes(ingress int) PacketSet {
	w := a.newWalker()
	var b predicate.AtomSetBuilder
	a.view.Each(func(atom int32) bool {
		for _, drop := range a.behavior(w, ingress, atom).Drops {
			if drop.Reason == network.DropNoRoute {
				b.Add(atom)
				break
			}
		}
		return true
	})
	return a.packetSet(&b)
}

// Loop describes a forwarding loop: an atom that revisits a box when
// entering at Ingress.
type Loop struct {
	Ingress int
	AtomID  int32
	Example []int8 // one satisfying header assignment (bdd.AnySat form)
}

// LoopSet returns the set of packets that loop when entering at ingress.
func (a *Analyzer) LoopSet(ingress int) PacketSet {
	w := a.newWalker()
	var b predicate.AtomSetBuilder
	a.view.Each(func(atom int32) bool {
		if loops(a.behavior(w, ingress, atom)) {
			b.Add(atom)
		}
		return true
	})
	return a.packetSet(&b)
}

func loops(b *network.Behavior) bool {
	for _, drop := range b.Drops {
		if drop.Reason == network.DropLoop {
			return true
		}
	}
	return false
}

// Loops sweeps every (ingress, atom) pair — in parallel, one worker per
// CPU — and reports every forwarding loop with an example header.
func (a *Analyzer) Loops() []Loop {
	view := a.snap.View()
	perIngress := make([][]Loop, len(a.net.Boxes))
	a.sweep(func(w *network.Walker, ingress int) {
		var out []Loop
		a.view.Each(func(atom int32) bool {
			if loops(w.Behavior(ingress, nil, a.view.Leaf(atom))) {
				out = append(out, Loop{
					Ingress: ingress,
					AtomID:  atom,
					Example: view.AnySat(a.view.BDD(atom)),
				})
			}
			return true
		})
		perIngress[ingress] = out
	})
	var out []Loop
	for _, l := range perIngress {
		out = append(out, l...)
	}
	return out
}

// WaypointViolations returns the set of packets that reach the host from
// ingress without traversing the waypoint box — the policy-enforcement
// check of §I ("HTTP traffic should be forwarded through firewall, IDS,
// proxy"). An empty result means the waypoint property holds.
func (a *Analyzer) WaypointViolations(ingress int, host string, waypoint int) PacketSet {
	w := a.newWalker()
	var b predicate.AtomSetBuilder
	a.view.Each(func(atom int32) bool {
		beh := a.behavior(w, ingress, atom)
		if beh.Delivered(host) && !beh.Traverses(waypoint) {
			b.Add(atom)
		}
		return true
	})
	return a.packetSet(&b)
}

// CanReach returns the set of packets that, entering at box from,
// traverse box to (the VLAN-isolation check of §I asks for this to be
// empty between tenants).
func (a *Analyzer) CanReach(from, to int) PacketSet {
	if from == to {
		return PacketSet{a: a, set: a.view.IDs()}
	}
	w := a.newWalker()
	var b predicate.AtomSetBuilder
	a.view.Each(func(atom int32) bool {
		if a.behavior(w, from, atom).Traverses(to) {
			b.Add(atom)
		}
		return true
	})
	return a.packetSet(&b)
}

// Isolated reports whether no packet entering at from can traverse to.
func (a *Analyzer) Isolated(from, to int) bool {
	if from == to {
		return false
	}
	w := a.newWalker()
	isolated := true
	a.view.Each(func(atom int32) bool {
		if a.behavior(w, from, atom).Traverses(to) {
			isolated = false
			return false
		}
		return true
	})
	return isolated
}

// ReachabilityMatrix computes, for every ordered box pair (i, j), how
// many atoms entering at i traverse j — a compact network-wide
// connectivity summary (the diagonal counts atoms that do anything at all
// at i). Rows are computed in parallel.
func (a *Analyzer) ReachabilityMatrix() [][]int {
	n := len(a.net.Boxes)
	m := make([][]int, n)
	a.sweep(func(w *network.Walker, ingress int) {
		row := make([]int, n)
		// stamp marks the boxes one behavior traverses; stamping with a
		// per-behavior token avoids clearing it between atoms.
		stamp := make([]int32, n)
		token := int32(0)
		a.view.Each(func(atom int32) bool {
			b := w.Behavior(ingress, nil, a.view.Leaf(atom))
			token++
			mark := func(box int) {
				if stamp[box] != token {
					stamp[box] = token
					row[box]++
				}
			}
			if len(b.Edges) > 0 || len(b.Deliveries) > 0 || len(b.Drops) > 0 {
				mark(ingress)
			}
			for _, e := range b.Edges {
				mark(e.Box)
				if e.To.Kind == network.DestBox {
					mark(e.To.Box)
				}
			}
			return true
		})
		m[ingress] = row
	})
	return m
}

// sweep runs fn once per ingress box across GOMAXPROCS workers, each with
// its own Walker. fn must only write state owned by its ingress.
func (a *Analyzer) sweep(fn func(w *network.Walker, ingress int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(a.net.Boxes) {
		workers = len(a.net.Boxes)
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := a.newWalker()
			for ingress := range next {
				fn(w, ingress)
			}
		}()
	}
	for ingress := range a.net.Boxes {
		next <- ingress
	}
	close(next)
	wg.Wait()
}

// Describe renders a packet set as a human-readable summary: its share of
// the header space and one example header.
func (a *Analyzer) Describe(ps PacketSet) string {
	if ps.Empty() {
		return "(empty)"
	}
	pkt := a.layout.NewPacket()
	for i, v := range ps.Example() {
		if v == 1 {
			pkt[i/8] |= 0x80 >> uint(i%8)
		}
	}
	return fmt.Sprintf("%.4g%% of header space, e.g. %s", ps.Fraction()*100, a.layout.String(pkt))
}

// DescribeRef renders a BDD packet set against a live DD the same way
// Describe renders a PacketSet; for BDD-interoperating callers (the
// policy guard) that still work in refs.
func DescribeRef(d *bdd.DD, layout *header.Layout, set bdd.Ref) string {
	if set == bdd.False {
		return "(empty)"
	}
	frac := d.SatCount(set) / d.SatCount(bdd.True)
	pkt := layout.NewPacket()
	for i, v := range d.AnySat(set) {
		if v == 1 {
			pkt[i/8] |= 0x80 >> uint(i%8)
		}
	}
	return fmt.Sprintf("%.4g%% of header space, e.g. %s", frac*100, layout.String(pkt))
}
