package aptree

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"apclassifier/internal/bdd"
	"apclassifier/internal/predicate"
)

// Manager pairs a live AP Tree with its predicate registry and implements
// the paper's two-process operation (§VI): queries and real-time updates
// are served from the live tree, while Reconstruct — typically run on its
// own goroutine — rebuilds an optimized tree from a snapshot, replays the
// updates that arrived meanwhile, and atomically swaps it in.
//
// Queries never lock. Every mutation runs under the write lock, derives
// a new persistent tree version, and republishes an immutable Snapshot
// through one atomic pointer before releasing the lock; Classify is a
// single atomic load followed by the tree search against that epoch.
// Every rebuild happens in a fresh BDD manager, and a retired DD is
// abandoned whole rather than garbage collected, so snapshots pinned to
// old epochs keep evaluating correctly for as long as they are held.
type Manager struct {
	mu sync.RWMutex
	//lint:guard mu
	d   *bdd.DD
	reg *Registry
	//lint:guard mu
	tree *Tree
	// version increments at every swap; consumers caching per-tree data
	// (e.g. middlebox flow tables) invalidate on change.
	version uint64

	// snap is the published epoch read by the lock-free query path.
	// Writers store under mu; readers only Load.
	snap atomic.Pointer[Snapshot]

	method Method

	// flatOff disables compilation of the flat classify core at publish
	// time (APC_FLAT=0 escape hatch / A/B benchmarking); snapshots then
	// classify through the pointer tree.
	//lint:guard mu
	flatOff bool
	// flatPlans caches predicate lowering plans across the publishes of
	// one DD lineage; Reconstruct's DD swap discards it (refs from the
	// retired DD mean nothing in the new one).
	//lint:guard mu
	flatPlans *flatPlanner

	rebuildMu sync.Mutex
	journal   []journalOp // non-nil while a rebuild is in flight

	// updatesSinceSwap counts Add/Delete operations applied to the live
	// tree since the last reconstruction; the auto-reconstruction policy
	// triggers on it (§VI-B: "the number of updates on the current AP
	// Tree is higher than a threshold").
	updatesSinceSwap int

	// retiredVisits accumulates, at each reconstruction swap, the visit
	// total of the tree lineage being retired. Together with the live
	// lineage's counters it derives TotalClassifications without adding
	// any work to the lock-free Classify path. Queries still pinned to a
	// retired epoch keep incrementing the old lineage's counters; those
	// late increments are not folded in, so the derived total is a slight
	// undercount under heavy swap churn — an accepted trade for a
	// zero-cost query path.
	//lint:guard mu
	retiredVisits uint64

	// notify, once created by PublishNotify, receives a coalesced signal
	// (capacity-one, non-blocking send) after every snapshot publication.
	//lint:guard mu
	notify chan struct{}

	// wiring is the owner's per-epoch payload (Tx.SetWiring); every
	// publish, swaps included, carries it into the new snapshot.
	//lint:guard mu
	wiring any
}

type journalOp struct {
	del  bool
	hard bool // physical removal (atom merge), not a tombstone
	id   int32
	ref  bdd.Ref // in the DD that was live when the op was journaled
}

// NewManager returns a manager over an empty predicate set (every packet
// classifies to the single atom True).
func NewManager(numVars int, method Method) *Manager {
	d := bdd.New(numVars)
	tree := Build(Input{
		D:     d,
		Preds: nil,
		Live:  nil,
		Atoms: predicate.Compute(d, nil),
	}, MethodOrder)
	return NewManagerWith(d, NewRegistry(), tree, method)
}

// NewManagerWith wraps an already-built tree, its DD and its registry in a
// manager. It is the batch-construction path: converting a whole dataset
// and building the tree once is far cheaper than AddPredicate per
// predicate. The registry must hold retained refs in d, and the tree must
// have been built from the registry's live predicates. The DD must not be
// garbage collected after this call: the manager publishes frozen views
// of it, which a GC would invalidate (run any post-construction GC first).
func NewManagerWith(d *bdd.DD, reg *Registry, tree *Tree, method Method) *Manager {
	m := &Manager{d: d, reg: reg, tree: tree, method: method}
	// Single-threaded until returned, so publishing without mu is sound.
	m.publishLocked()
	return m
}

// publishLocked captures the current tree, DD, liveness set and wiring
// into a fresh immutable Snapshot for the lock-free query path. Callers
// must hold m.mu (or be a constructor with exclusive access).
func (m *Manager) publishLocked() {
	view, flat := m.compileLocked()
	m.snap.Store(&Snapshot{
		tree:    m.tree,
		view:    view,
		flat:    flat,
		live:    m.reg.liveBits(),
		numLive: m.reg.n,
		version: m.version,
		count:   m.tree.CountVisits,
		visits:  m.tree.visits.view(),
		wiring:  m.wiring,
	})
	// Publish boundaries are also the metrics flush points: the write
	// lock is held, so the DD's plain counters are stable to read.
	m.d.PublishStats()
	mPublishes.Inc()
	if m.notify != nil {
		select {
		case m.notify <- struct{}{}:
		default: // a signal is already pending; coalesce
		}
	}
}

// compileLocked returns the frozen view and flat core for the live tree,
// reusing the published pair when neither the tree version nor the
// compile mode changed (stage 1 reads neither wiring nor tombstones).
func (m *Manager) compileLocked() (*bdd.View, *Flat) {
	if prev := m.snap.Load(); prev != nil && prev.tree == m.tree && (prev.flat == nil) == m.flatOff {
		return prev.view, prev.flat
	}
	view := m.d.Freeze()
	if m.flatOff {
		return view, nil
	}
	if m.flatPlans == nil || m.flatPlans.d != m.d {
		m.flatPlans = newFlatPlanner(m.d)
	}
	start := time.Now()
	flat := compileFlat(m.tree, view, m.flatPlans)
	mFlatBuildDur.Record(time.Since(start).Seconds())
	mFlatBuilds.Inc()
	st := flat.Stats()
	mFlatNodes.Set(int64(st.Nodes))
	mFlatBytes.Set(int64(st.Bytes))
	mFlatMask.Set(int64(st.MaskNodes))
	mFlatTable.Set(int64(st.TableNodes))
	mFlatCubes.Set(int64(st.CubeNodes))
	mFlatFallback.Set(int64(st.FallbackNodes))
	return view, flat
}

// Snapshot returns the current published epoch. The result is immutable
// and remains valid (pinned to its epoch) across any number of later
// updates and reconstructions.
func (m *Manager) Snapshot() *Snapshot { return m.snap.Load() }

// SetFlatCompile toggles publish-time compilation of the flat classify
// core and republishes the current epoch in the chosen form. On is the
// default; the facade turns it off when APC_FLAT=0, and A/B benchmarks
// flip it to pit the two engines against each other on one manager.
func (m *Manager) SetFlatCompile(on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flatOff = !on
	if !on {
		m.flatPlans = nil
	}
	m.publishLocked()
}

// DD returns the live BDD manager. Callers must only use it inside
// AddPredicate's build callback or while holding no expectation of
// stability across updates; it exists mainly for tests and experiments.
func (m *Manager) DD() *bdd.DD {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.d
}

// Tree returns the live tree (snapshot pointer; safe to read concurrently
// with queries, not with updates).
func (m *Manager) Tree() *Tree {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.tree
}

// Version reports the published reconstruction epoch.
func (m *Manager) Version() uint64 { return m.snap.Load().version }

// NumLive reports the number of live predicates in the published epoch.
func (m *Manager) NumLive() int { return m.snap.Load().numLive }

// Classify returns the leaf for pkt together with the epoch it came
// from. It acquires no lock: the published snapshot is loaded once and
// the whole search runs against that epoch.
func (m *Manager) Classify(pkt []byte) (*Node, uint64) {
	return m.snap.Load().Classify(pkt)
}

// Tx is a handle for compound predicate updates executed atomically under
// the manager's write lock; see Manager.Update and Manager.Fork. It edits
// its own tree and registry (the live ones, or Fork's private copies) and
// builds BDDs in the live DD.
type Tx struct {
	m      *Manager
	reg    *Registry
	tree   *Tree
	wiring any
	// fork marks a private transaction: neither journaled nor counted.
	fork bool
	// stats accumulates the structural delta work of the transaction's
	// Add/Remove calls; Update flushes it into the apc_delta_* metrics.
	stats DeltaStats
}

// DD returns the live BDD manager; valid only inside the callback.
//
//lint:ignore lockguard Update and Fork hold m.mu for the life of the Tx
func (tx *Tx) DD() *bdd.DD { return tx.m.d }

// Ref returns the BDD of predicate id.
func (tx *Tx) Ref(id int32) bdd.Ref { return tx.reg.Ref(id) }

// Wiring returns the wiring the transaction will publish: the current
// epoch's until SetWiring replaces it.
func (tx *Tx) Wiring() any { return tx.wiring }

// SetWiring attaches the owner's per-epoch payload to the epoch this
// transaction publishes; snapshots share it, so it must stay immutable.
func (tx *Tx) SetWiring(v any) { tx.wiring = v }

// record journals one operation for an in-flight rebuild and counts it
// toward the reconstruction trigger; private transactions do neither.
func (tx *Tx) record(op journalOp) {
	if m := tx.m; !tx.fork {
		m.updatesSinceSwap++
		if m.journal != nil {
			m.journal = append(m.journal, op)
		}
	}
}

// Add registers a predicate BDD (built in tx.DD()) and splices it into the
// tree in real time (§VI-A), returning its new global ID. The tree
// update is persistent: pinned snapshots keep the previous version.
//
//lint:ignore lockguard Update and Fork hold m.mu for the life of the Tx
func (tx *Tx) Add(ref bdd.Ref) int32 {
	tx.m.d.Retain(ref)
	id := tx.reg.Add(ref)
	tx.tree = tx.tree.addPredicate(id, ref, &tx.stats)
	tx.record(journalOp{id: id, ref: ref})
	return id
}

// Delete tombstones a predicate (§VI-A): the tree keeps routing on it,
// but behavior computation skips it; the next reconstruction removes it
// physically.
func (tx *Tx) Delete(id int32) {
	tx.reg.Delete(id)
	tx.record(journalOp{del: true, id: id})
}

// Remove physically deletes a live predicate: the registry slot dies (IDs
// are never reused) and the tree runs the atom-merge dual of
// AddPredicate, so the partition coarsens immediately instead of waiting
// for a Reconstruct to sweep tombstones. Like Add, the tree update is
// persistent and pinned snapshots keep the previous version.
func (tx *Tx) Remove(id int32) {
	tx.reg.Delete(id)
	tx.tree = tx.tree.removePredicate(id, &tx.stats)
	tx.record(journalOp{del: true, hard: true, id: id})
}

// Update runs fn under the write lock and republishes the snapshot. All
// predicate changes triggered by one data-plane event (a rule insertion
// can alter several port predicates through LPM shadowing) should share
// one Update so queries see them atomically: concurrent queries answer
// from the previous epoch until the single publish at the end.
func (m *Manager) Update(fn func(tx *Tx)) {
	start := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	tx := &Tx{m: m, reg: m.reg, tree: m.tree, wiring: m.wiring}
	fn(tx)
	m.tree, m.wiring = tx.tree, tx.wiring
	m.publishLocked()
	mUpdates.Inc()
	mUpdateDur.Record(time.Since(start).Seconds())
	if !tx.stats.zero() {
		mDeltaTouched.Add(tx.stats.TouchedLeaves)
		mDeltaSplits.Add(tx.stats.Splits)
		mDeltaMerges.Add(tx.stats.Merges)
		mDeltaApplyDur.Record(time.Since(start).Seconds())
	}
}

// Fork runs fn against a private copy of the live predicate state and
// returns the resulting epoch unpublished — a what-if's hypothesis. Live
// state is untouched except that the live DD gains fn's nodes. The
// snapshot classifies through the pointer tree and counts no visits.
func (m *Manager) Fork(fn func(tx *Tx)) *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	tx := &Tx{m: m, reg: m.reg.Clone(), tree: m.tree, wiring: m.wiring, fork: true}
	fn(tx)
	return &Snapshot{
		tree:    tx.tree,
		view:    m.d.Freeze(),
		live:    tx.reg.liveBits(),
		numLive: tx.reg.n,
		version: m.version,
		wiring:  tx.wiring,
	}
}

// AddPredicate registers a new predicate and updates the live tree in real
// time (§VI-A). The build callback constructs the predicate's BDD in the
// live DD under the write lock; it must not retain the *DD.
func (m *Manager) AddPredicate(build func(d *bdd.DD) bdd.Ref) int32 {
	var id int32
	m.Update(func(tx *Tx) { id = tx.Add(build(tx.DD())) })
	return id
}

// DeletePredicate tombstones a predicate; see Tx.Delete.
func (m *Manager) DeletePredicate(id int32) {
	m.Update(func(tx *Tx) { tx.Delete(id) })
}

// Ref returns the BDD of predicate id in the live DD. The ref is only
// stable until the next Reconstruct swap.
func (m *Manager) Ref(id int32) bdd.Ref {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.reg.Ref(id)
}

// IsLive reports whether predicate id is live in the published epoch.
// Like Classify it is lock-free, so Manager satisfies network.Source
// without reintroducing a mutex on the stage-2 hot path.
func (m *Manager) IsLive(id int32) bool { return m.snap.Load().IsLive(id) }

// LiveIDs returns the live predicate IDs.
func (m *Manager) LiveIDs() []int32 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.reg.LiveIDs()
}

// Reconstruct rebuilds an optimized tree from the current live predicates
// and swaps it in (§VI-B). If weighted is true, per-leaf visit counters of
// the old tree are carried over as atom weights so frequently queried atoms
// end up closer to the root (§V-D). Reconstruct is safe to run concurrently
// with Classify/AddPredicate/DeletePredicate; concurrent Reconstruct calls
// serialize.
func (m *Manager) Reconstruct(weighted bool) {
	start := time.Now()
	m.rebuildMu.Lock()
	defer m.rebuildMu.Unlock()
	defer func() { mRebuildDur.Record(time.Since(start).Seconds()) }()

	// Phase 1: open the journal and snapshot the live predicate set.
	m.mu.Lock()
	m.journal = []journalOp{}
	snap := m.reg.Clone()
	oldD := m.d
	type leafWeight struct {
		ref bdd.Ref
		w   float64
	}
	var weights []leafWeight
	if weighted {
		tree := m.tree
		tree.Leaves(func(n *Node) {
			if v := tree.Visits(n); v > 0 {
				weights = append(weights, leafWeight{n.BDD, float64(v)})
			}
		})
	}
	m.mu.Unlock()

	// Phase 2: transfer live predicates (and weighted leaf BDDs) into a
	// private DD. Reading oldD requires the read lock because concurrent
	// updates mutate it.
	newD := bdd.New(oldD.NumVars())
	liveIDs := snap.LiveIDs()
	newRefs := make([]bdd.Ref, snap.NumIDs())
	m.mu.RLock()
	for _, id := range liveIDs {
		newRefs[id] = bdd.Transfer(newD, oldD, snap.Ref(id))
	}
	weightByRef := make(map[bdd.Ref]float64, len(weights))
	for _, lw := range weights {
		weightByRef[bdd.Transfer(newD, oldD, lw.ref)] = lw.w
	}
	m.mu.RUnlock()
	for _, id := range liveIDs {
		newD.Retain(newRefs[id])
	}

	// Phase 3: compute atoms and build the new tree, entirely in the
	// private DD — no locks, queries continue on the old tree.
	liveRefs := make([]bdd.Ref, len(liveIDs))
	intIDs := make([]int, len(liveIDs))
	for i, id := range liveIDs {
		liveRefs[i] = newRefs[id]
		intIDs[i] = int(id)
	}
	atoms := predicate.ComputeMapped(newD, liveRefs, intIDs, snap.NumIDs())
	var atomWeights []float64
	if weighted && len(weightByRef) > 0 {
		atomWeights = make([]float64, atoms.N())
		for i, ref := range atoms.List {
			if w, ok := weightByRef[ref]; ok {
				atomWeights[i] = w
			} else {
				atomWeights[i] = 1 // new or re-cut atom: neutral weight
			}
		}
	}
	newTree := Build(Input{
		D:       newD,
		Preds:   newRefs,
		Live:    liveIDs,
		Atoms:   atoms,
		Weights: atomWeights,
		Rand:    rand.New(rand.NewSource(1)),
	}, m.method)

	// Phase 4: replay updates that arrived during the rebuild, then swap.
	m.mu.Lock()
	for _, op := range m.journal {
		if op.del {
			if !op.hard {
				continue // tombstone: the rebuilt tree keeps routing on it
			}
			// Hard removal journaled mid-rebuild. The new tree placed this
			// predicate (it was live at the phase-1 snapshot, or added by an
			// earlier journal entry), so replay the atom merge too.
			newTree = newTree.RemovePredicate(op.id)
			newRefs[op.id] = bdd.False
			continue
		}
		ref := bdd.Transfer(newD, oldD, op.ref)
		newD.Retain(ref)
		for int32(len(newRefs)) <= op.id {
			newRefs = append(newRefs, bdd.False)
		}
		newRefs[op.id] = ref
		newTree = newTree.AddPredicate(op.id, ref)
	}
	// Point every live registry entry at the new DD; tombstoned slots die.
	for id := range m.reg.refs {
		if m.reg.live[id] {
			m.reg.refs[id] = newRefs[id]
		} else {
			m.reg.refs[id] = bdd.False
		}
	}
	// Retire the old epoch's counters: flush the abandoned DD's work
	// stats one last time and bank the old lineage's visit total.
	m.d.PublishStats()
	m.retiredVisits += m.tree.visits.total()
	m.d = newD
	m.tree = newTree
	m.version++
	mSwaps.Inc()
	// Updates replayed from the journal are already in the new tree but
	// count toward the next rebuild trigger, since the new tree was not
	// optimized for them.
	m.updatesSinceSwap = len(m.journal)
	m.journal = nil
	// Publish the new epoch. The old DD is abandoned whole — never GC'd —
	// so snapshots pinned to earlier epochs keep evaluating against it.
	m.publishLocked()
	m.mu.Unlock()
}

// UpdatesSinceSwap reports tree updates applied since the last
// reconstruction swap.
func (m *Manager) UpdatesSinceSwap() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.updatesSinceSwap
}

// AutoReconstruct starts the §VI-B reconstruction policy on its own
// goroutine: every interval it checks whether at least threshold updates
// hit the live tree since the last swap and, if so, rebuilds (optionally
// distribution-aware) and swaps. The returned stop function halts the
// policy and waits for any in-flight rebuild to finish; it is idempotent,
// so callers may both defer it and invoke it early.
func (m *Manager) AutoReconstruct(threshold int, interval time.Duration, weighted bool) (stop func()) {
	if threshold < 1 {
		panic("aptree: AutoReconstruct threshold must be >= 1")
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if m.UpdatesSinceSwap() >= threshold {
					m.Reconstruct(weighted)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}
