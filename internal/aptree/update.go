package aptree

import (
	"fmt"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// AddPredicate installs a new predicate with the given global ID per
// §VI-A: every leaf whose atom straddles p is split into a node labeled
// id with two child leaves (atom∧p and atom∧¬p); leaves entirely inside
// p gain the membership bit. The result is a correct classifier for the
// enlarged predicate set immediately.
//
// The update is persistent: the receiver is left untouched and a new
// *Tree is returned, sharing every unchanged subtree with the old
// version by pointer. A published snapshot of the old tree therefore
// keeps classifying against the old predicate set while the manager
// republishes the new one — this is what makes the lock-free query path
// possible. Leaves entirely outside p are shared as-is (their shorter
// membership vectors read bit id as clear, see predicate.Bitset.Get);
// leaves inside p are replaced by a copy with the bit set; straddling
// leaves split into two fresh leaves whose atom BDDs are retained.
//
// The old leaf's BDD reference is deliberately NOT released: the old
// tree version may still be pinned by a snapshot, and all references of
// an epoch die together when Reconstruct swaps in a fresh DD. Because
// of this transfer of release responsibility to the epoch boundary,
// Drop must not be used on a lineage that has seen AddPredicate; the
// manager never does.
func (t *Tree) AddPredicate(id int32, p bdd.Ref) *Tree {
	var st DeltaStats
	return t.addPredicate(id, p, &st)
}

func (t *Tree) addPredicate(id int32, p bdd.Ref, st *DeltaStats) *Tree {
	if int(id) < len(t.preds) && t.preds[id] != bdd.False {
		panic(fmt.Sprintf("aptree: predicate ID %d already present", id))
	}
	nt := &Tree{
		D:           t.D,
		preds:       append([]bdd.Ref(nil), t.preds...),
		numLeaves:   t.numLeaves,
		nextAtom:    t.nextAtom,
		CountVisits: t.CountVisits,
		visits:      t.visits,
	}
	for int(id) >= len(nt.preds) {
		nt.preds = append(nt.preds, bdd.False)
	}
	nt.preds[id] = p
	nt.root = nt.addRec(t.root, id, p, st)
	nt.visits.grow(int(nt.nextAtom))
	nt.debugCheckPartition()
	return nt
}

// addRec returns the updated version of n, sharing n itself whenever the
// subtree is unaffected by the new predicate.
func (t *Tree) addRec(n *Node, id int32, p bdd.Ref, st *DeltaStats) *Node {
	if !n.IsLeaf() {
		nt, nf := t.addRec(n.T, id, p, st), t.addRec(n.F, id, p, st)
		if nt == n.T && nf == n.F {
			return n
		}
		return &Node{Pred: n.Pred, Depth: n.Depth, T: nt, F: nf}
	}
	d := t.D
	tr := d.And(n.BDD, p)
	switch tr {
	case bdd.False:
		// Atom entirely outside p: the leaf is shared unchanged. Its
		// membership vector may be shorter than the new predicate space;
		// Bitset.Get reads the missing bit as clear, which is correct.
		return n
	case n.BDD:
		// Atom entirely inside p: copy the leaf with the bit set.
		m := n.Member.Clone(len(t.preds))
		m.Set(int(id), true)
		st.TouchedLeaves++
		return &Node{Pred: -1, Depth: n.Depth, AtomID: n.AtomID, BDD: n.BDD, Member: m}
	}
	// Straddles: split into two fresh leaves. The old leaf (and its BDD
	// reference) lives on in any pinned older tree version; see the
	// AddPredicate doc comment for why n.BDD is not released here.
	fr := d.Diff(n.BDD, p)
	mt := n.Member.Clone(len(t.preds))
	mt.Set(int(id), true)
	mf := n.Member.Clone(len(t.preds))
	d.Retain(tr)
	d.Retain(fr)
	tLeaf := &Node{Pred: -1, Depth: n.Depth + 1, AtomID: t.nextAtom, BDD: tr, Member: mt}
	fLeaf := &Node{Pred: -1, Depth: n.Depth + 1, AtomID: t.nextAtom + 1, BDD: fr, Member: mf}
	t.nextAtom += 2
	t.numLeaves++
	st.TouchedLeaves++
	st.Splits++
	return &Node{Pred: id, Depth: n.Depth, T: tLeaf, F: fLeaf}
}

// Registry assigns stable global IDs to predicate BDDs and tracks
// tombstones. IDs are never reused: a deleted predicate's slot stays dead
// so membership vectors and network references remain unambiguous.
type Registry struct {
	refs []bdd.Ref
	live []bool
	n    int // live count
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Add registers a predicate BDD and returns its new global ID.
func (r *Registry) Add(ref bdd.Ref) int32 {
	r.refs = append(r.refs, ref)
	r.live = append(r.live, true)
	r.n++
	return int32(len(r.refs) - 1)
}

// Delete tombstones an ID per §VI-A. The predicate may keep routing inside
// existing AP Trees, but behavior computation must ignore it.
func (r *Registry) Delete(id int32) {
	if !r.live[id] {
		panic(fmt.Sprintf("aptree: double delete of predicate %d", id))
	}
	r.live[id] = false
	r.n--
}

// Ref returns the BDD of predicate id (valid even if tombstoned).
func (r *Registry) Ref(id int32) bdd.Ref { return r.refs[id] }

// IsLive reports whether id has not been deleted.
func (r *Registry) IsLive(id int32) bool { return r.live[id] }

// NumIDs reports the size of the ID space (live + tombstoned).
func (r *Registry) NumIDs() int { return len(r.refs) }

// NumLive reports the number of live predicates.
func (r *Registry) NumLive() int { return r.n }

// LiveIDs returns the live IDs in increasing order.
func (r *Registry) LiveIDs() []int32 {
	ids := make([]int32, 0, r.n)
	for i, l := range r.live {
		if l {
			ids = append(ids, int32(i))
		}
	}
	return ids
}

// Refs returns the full ID-indexed BDD slice (tombstoned slots included).
func (r *Registry) Refs() []bdd.Ref { return r.refs }

// liveBits returns the liveness set a snapshot captures: bit id set iff
// predicate id is not tombstoned.
func (r *Registry) liveBits() predicate.Bitset {
	live := predicate.NewBitset(len(r.refs))
	for id, l := range r.live {
		live.Set(id, l)
	}
	return live
}

// Clone returns an independent copy (used to snapshot for reconstruction).
func (r *Registry) Clone() *Registry {
	return &Registry{
		refs: append([]bdd.Ref(nil), r.refs...),
		live: append([]bool(nil), r.live...),
		n:    r.n,
	}
}
