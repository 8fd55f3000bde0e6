package apclassifier

import (
	"apclassifier/internal/aptree"
	"apclassifier/internal/header"
	"apclassifier/internal/network"
)

// Snapshot is one immutable epoch of the classifier, pinned at the
// moment Classifier.Snapshot was called. Every query method answers
// against that epoch — the same AP Tree, BDD view, predicate liveness,
// topology wiring and behavior cache — no matter how many updates or
// reconstructions the live classifier absorbs afterwards, and none of
// them takes a lock.
//
// Use a Snapshot when a batch of queries must be mutually consistent
// (an invariant sweep, a what-if analysis, a /stats report), or simply
// to amortize the one atomic load per query that Classifier.Behavior
// performs. Snapshots are safe for concurrent use by any number of
// goroutines and may be retained indefinitely; an old epoch's memory is
// reclaimed by Go's GC once the last snapshot referencing it is
// dropped.
type Snapshot struct {
	s *aptree.Snapshot
}

// Snapshot pins the current epoch.
func (c *Classifier) Snapshot() *Snapshot {
	return &Snapshot{s: c.Manager.Snapshot()}
}

// Version reports the reconstruction epoch this snapshot is pinned to.
func (s *Snapshot) Version() uint64 { return s.s.Version() }

// Epoch returns the pinned aptree epoch, for engines working on atoms.
func (s *Snapshot) Epoch() *aptree.Snapshot { return s.s }

// Net returns the epoch's topology wiring: box, port and link structure
// with the predicate IDs and middleboxes stage 2 walks. Read-only.
func (s *Snapshot) Net() *network.Network { return wiringOf(s.s).net }

// BehaviorCache returns the epoch's behavior cache, shared by all its
// readers; store only deterministic behaviors walked on this epoch.
func (s *Snapshot) BehaviorCache() *network.BehaviorCache { return behaviorCache(s.s) }

// RuleCounts reports the forwarding and ACL rules the epoch compiles.
func (s *Snapshot) RuleCounts() (fwd, acl int) {
	return wiringOf(s.s).rules, wiringOf(s.s).aclRules
}

// Classify runs stage 1 against the pinned epoch.
func (s *Snapshot) Classify(pkt header.Packet) *aptree.Node {
	leaf, _ := s.s.Classify(pkt)
	return leaf
}

// Behavior runs both stages against the pinned epoch. Like
// Classifier.Behavior it consults the epoch's behavior cache and
// memoizes deterministic walks; the result may be that shared cached
// value and must be treated as read-only.
func (s *Snapshot) Behavior(ingress int, pkt header.Packet) *network.Behavior {
	return s.BehaviorWith(nil, ingress, pkt)
}

// BehaviorWith is Behavior using the caller's Walker scratch space (nil
// for none); the result is read-only and valid until the Walker's next
// query.
func (s *Snapshot) BehaviorWith(w *network.Walker, ingress int, pkt header.Packet) *network.Behavior {
	leaf, _ := s.s.Classify(pkt)
	return behaviorVia(behaviorCache(s.s), w, s.s, ingress, pkt, leaf, false)
}

// BehaviorFrom runs stage 2 only, from a leaf the caller already
// obtained via Classify on this same snapshot. Callers that need both
// the leaf and the behavior (the server's /query, traced queries) use it
// to avoid classifying the packet twice.
func (s *Snapshot) BehaviorFrom(ingress int, pkt header.Packet, leaf *aptree.Node) *network.Behavior {
	return behaviorVia(behaviorCache(s.s), nil, s.s, ingress, pkt, leaf, false)
}

// NumPredicates reports the number of live predicates in the epoch.
func (s *Snapshot) NumPredicates() int { return s.s.NumLive() }

// NumAtoms reports the number of leaves of the epoch's tree.
func (s *Snapshot) NumAtoms() int { return s.s.Tree().NumLeaves() }

// AverageDepth reports the epoch tree's mean leaf depth.
func (s *Snapshot) AverageDepth() float64 { return s.s.Tree().AverageDepth() }

// LiveMemBytes reports the live BDD bytes of the epoch's frozen view.
func (s *Snapshot) LiveMemBytes() int { return s.s.View().LiveMemBytes() }
