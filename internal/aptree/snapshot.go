package aptree

import (
	"sync/atomic"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// Snapshot is one immutable epoch of classifier state: an AP Tree, a
// frozen evaluation view of the BDD it labels its nodes with, the
// predicate-liveness set and the owner's wiring payload, all captured
// together under the manager's write lock and published through a single
// atomic pointer.
//
// Everything reachable from a Snapshot is immutable, so any number of
// goroutines may Classify through one concurrently — with updates, with
// reconstructions, and with each other — without any lock. A query that
// loads the snapshot pointer once is pinned to that epoch: stage 1 and
// stage 2 see one consistent tree, DD and liveness set even if the
// manager swaps several times mid-query. A retained Snapshot stays
// valid across swaps indefinitely; its DD view is never garbage
// collected (the manager abandons a retired DD wholesale instead of
// reclaiming nodes from it — see bdd.View on the GC-at-swap rule).
//
// Visit counters are the one deliberate exception to immutability:
// Classify increments the per-atom counter store shared with the live
// lineage, so queries answered from an old epoch still inform the
// distribution-aware rebuild (§V-D).
type Snapshot struct {
	tree *Tree
	view *bdd.View
	// flat is the cache-packed classify core compiled for this epoch at
	// publish time, or nil when flat compilation is off (APC_FLAT=0 /
	// Manager.SetFlatCompile(false)). When present it is the stage-1
	// engine; the pointer tree stays the reference implementation.
	flat *Flat
	// live has bit id set iff predicate id was not tombstoned at capture
	// time. Out-of-range IDs (added after the capture) read as dead,
	// which keeps stage 2 consistent with the pinned tree.
	live    predicate.Bitset
	numLive int
	version uint64

	count  bool
	visits visitView

	// atomView caches the lazily built per-epoch atom index (see
	// Snapshot.Atoms in atomview.go). CAS-installed; benign build race.
	atomView atomic.Pointer[AtomView]

	// wiring is the owner's payload for this epoch (Tx.SetWiring).
	wiring any
	// memo holds the value Memo installs, the way atomView is installed.
	memo atomic.Value
}

// Wiring returns the read-only payload attached with Tx.SetWiring (nil if
// none), shared by every snapshot published until the next SetWiring.
func (s *Snapshot) Wiring() any { return s.wiring }

// Memo returns the epoch-scoped value built by mk on first use (the
// facade's behavior cache). Concurrent first calls race benignly: one
// value is installed and every caller gets it. mk must always return the
// same dynamic type, never nil.
func (s *Snapshot) Memo(mk func(*Snapshot) any) any {
	if v := s.memo.Load(); v != nil {
		return v
	}
	s.memo.CompareAndSwap(nil, mk(s))
	return s.memo.Load()
}

// classifyPointer is the pointer-tree stage-1 walk, visit counting
// excluded: node BDDs evaluate through the frozen view, so a writer
// growing the live DD never races with it.
func (s *Snapshot) classifyPointer(pkt []byte) *Node {
	n := s.tree.root
	v := s.view
	preds := s.tree.preds
	for !n.IsLeaf() {
		if v.EvalBits(preds[n.Pred], pkt) {
			n = n.T
		} else {
			n = n.F
		}
	}
	return n
}

// Classify runs the stage-1 search against this epoch and returns the
// leaf together with the epoch's version. It takes no lock and does not
// allocate. When the epoch carries a compiled flat core the descent runs
// over it; otherwise (flat compilation disabled) the pointer tree is
// walked directly. Either way the answer and the visit accounting are
// identical.
func (s *Snapshot) Classify(pkt []byte) (*Node, uint64) {
	var n *Node
	if f := s.flat; f != nil {
		s.debugCheckFlat()
		n = f.Classify(pkt)
	} else {
		n = s.classifyPointer(pkt)
	}
	if s.count {
		s.visits.add(n.AtomID)
	}
	return n, s.version
}

// ClassifyPointer runs stage 1 through the pointer tree regardless of
// whether a flat core was compiled — the reference engine the
// differential fuzz and churn suites pit the flat form against. It does
// no visit accounting, so differential probing never skews the §V-D
// distribution statistics.
func (s *Snapshot) ClassifyPointer(pkt []byte) (*Node, uint64) {
	return s.classifyPointer(pkt), s.version
}

// Flat returns the epoch's compiled flat classify core, or nil when flat
// compilation was disabled at publish time.
func (s *Snapshot) Flat() *Flat { return s.flat }

// IsLive reports whether predicate id was live in this epoch.
func (s *Snapshot) IsLive(id int32) bool { return s.live.Get(int(id)) }

// Version reports the reconstruction epoch this snapshot belongs to.
func (s *Snapshot) Version() uint64 { return s.version }

// NumLive reports the number of live predicates in this epoch.
func (s *Snapshot) NumLive() int { return s.numLive }

// Tree returns the epoch's AP Tree. The tree (like everything else
// reachable from the snapshot) must be treated as read-only.
func (s *Snapshot) Tree() *Tree { return s.tree }

// View returns the frozen BDD evaluation view, whose memory statistics
// describe the DD as of this epoch.
func (s *Snapshot) View() *bdd.View { return s.view }
