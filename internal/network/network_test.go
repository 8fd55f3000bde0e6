package network

import (
	"testing"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
)

// fig1Net builds the paper's running example (Fig. 1(c)/Fig. 3): boxes b1
// and b2, hosts h1 and h2, and predicates p1 (b1→h1), p2 (b1→b2),
// p3 (b2→h2) over an 8-bit toy header.
func fig1Net(t *testing.T) (*Network, *aptree.Manager, *Env, [3]int32) {
	t.Helper()
	m := aptree.NewManager(8, aptree.MethodOAPT)
	p1 := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b00000000, 2, 8) })
	p2 := m.AddPredicate(func(d *bdd.DD) bdd.Ref {
		return d.Or(d.FromPrefix(0, 0b01000000, 2, 8), d.FromPrefix(0, 0b10000000, 2, 8))
	})
	p3 := m.AddPredicate(func(d *bdd.DD) bdd.Ref {
		return d.Or(d.FromPrefix(0, 0b10000000, 2, 8), d.FromPrefix(0, 0b11000000, 3, 8))
	})

	n := New()
	b1 := n.AddBox("b1", 2)
	b2 := n.AddBox("b2", 2)
	n.AttachHost(b1, 0, "h1")
	n.Boxes[b1].Ports[0].Fwd = p1
	n.Boxes[b1].Ports[1].Fwd = p2
	n.Link(b1, 1, b2, 1)
	n.AttachHost(b2, 0, "h2")
	n.Boxes[b2].Ports[0].Fwd = p3

	env := &Env{Source: m}
	return n, m, env, [3]int32{p1, p2, p3}
}

func classify(m *aptree.Manager, pkt []byte) *aptree.Node {
	leaf, _ := m.Classify(pkt)
	return leaf
}

func TestPaperFig3ForwardingPath(t *testing.T) {
	n, m, env, _ := fig1Net(t)
	b1, b2 := n.BoxByName("b1"), n.BoxByName("b2")

	// A packet in a4 = ¬p1∧p2∧p3 (pattern 10******) entering b1 follows
	// b1 → b2 → h2.
	pkt := []byte{0b10000001}
	b := n.Behavior(env, b1, pkt, classify(m, pkt))
	if !b.Delivered("h2") {
		t.Fatalf("a4 packet must reach h2: %v", b)
	}
	if got := b.Path(); len(got) != 2 || got[0] != b1 || got[1] != b2 {
		t.Fatalf("path = %v, want [b1 b2]", got)
	}
	if len(b.Drops) != 0 {
		t.Fatalf("unexpected drops: %v", b.Drops)
	}
	if !b.Traverses(b1) || !b.Traverses(b2) {
		t.Fatal("behavior must traverse both boxes")
	}

	// A packet in a5 = ¬p1∧¬p2∧p3 (pattern 110*****) is dropped at b1...
	pkt5 := []byte{0b11000001}
	b = n.Behavior(env, b1, pkt5, classify(m, pkt5))
	if b.Delivered("") {
		t.Fatalf("a5 packet from b1 must not be delivered: %v", b)
	}
	if len(b.Drops) != 1 || b.Drops[0].Reason != DropNoRoute || b.Drops[0].Box != b1 {
		t.Fatalf("expected no-route drop at b1: %v", b.Drops)
	}
	// ...but delivered to h2 if it enters at b2.
	b = n.Behavior(env, b2, pkt5, classify(m, pkt5))
	if !b.Delivered("h2") {
		t.Fatalf("a5 packet from b2 must reach h2: %v", b)
	}

	// A packet in a1 (p1, pattern 00******) goes straight to h1.
	pkt1 := []byte{0b00000001}
	b = n.Behavior(env, b1, pkt1, classify(m, pkt1))
	if !b.Delivered("h1") || b.Delivered("h2") {
		t.Fatalf("a1 packet must reach exactly h1: %v", b)
	}
}

func TestTombstonedPredicateIsIgnored(t *testing.T) {
	n, m, env, preds := fig1Net(t)
	b1 := n.BoxByName("b1")
	pkt := []byte{0b10000001}   // a4: normally b1→b2→h2
	m.DeletePredicate(preds[1]) // delete p2 (b1→b2)
	b := n.Behavior(env, b1, pkt, classify(m, pkt))
	if b.Delivered("") {
		t.Fatalf("packet must drop once its forwarding predicate is deleted: %v", b)
	}
	if len(b.Drops) != 1 || b.Drops[0].Reason != DropNoRoute {
		t.Fatalf("drops = %v", b.Drops)
	}
}

func TestIngressAndEgressACLs(t *testing.T) {
	n, m, env, _ := fig1Net(t)
	b1, b2 := n.BoxByName("b1"), n.BoxByName("b2")
	pkt := []byte{0b10000001}

	// Egress ACL on b1's b2-facing port that denies the packet's atom.
	aclDeny := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b11000000, 2, 8) })
	n.Boxes[b1].Ports[1].OutACL = aclDeny
	b := n.Behavior(env, b1, pkt, classify(m, pkt))
	if b.Delivered("") {
		t.Fatalf("egress ACL must drop: %v", b)
	}
	if len(b.Drops) != 1 || b.Drops[0].Reason != DropOutACL {
		t.Fatalf("drops = %v", b.Drops)
	}

	// Permit ACL lets it through.
	aclPermit := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 1, 8) })
	n.Boxes[b1].Ports[1].OutACL = aclPermit
	b = n.Behavior(env, b1, pkt, classify(m, pkt))
	if !b.Delivered("h2") {
		t.Fatalf("permitting egress ACL must pass: %v", b)
	}

	// Ingress ACL at b2 denies.
	n.Boxes[b2].InACL = aclDeny
	b = n.Behavior(env, b1, pkt, classify(m, pkt))
	if b.Delivered("") {
		t.Fatalf("ingress ACL must drop: %v", b)
	}
	found := false
	for _, d := range b.Drops {
		if d.Box == b2 && d.Reason == DropInACL {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected ingress-ACL drop at b2: %v", b.Drops)
	}

	// A tombstoned ACL passes everything.
	m.DeletePredicate(aclDeny)
	b = n.Behavior(env, b1, pkt, classify(m, pkt))
	if !b.Delivered("h2") {
		t.Fatalf("tombstoned ACL must pass: %v", b)
	}
}

func TestLoopDetection(t *testing.T) {
	m := aptree.NewManager(8, aptree.MethodOAPT)
	p := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 1, 8) })
	n := New()
	b1 := n.AddBox("b1", 1)
	b2 := n.AddBox("b2", 1)
	n.Boxes[b1].Ports[0].Fwd = p
	n.Boxes[b2].Ports[0].Fwd = p
	n.Link(b1, 0, b2, 0)
	env := &Env{Source: m}
	pkt := []byte{0b10000001}
	b := n.Behavior(env, b1, pkt, classify(m, pkt))
	foundLoop := false
	for _, d := range b.Drops {
		if d.Reason == DropLoop {
			foundLoop = true
		}
	}
	if !foundLoop {
		t.Fatalf("expected loop detection: %v", b)
	}
}

// TestPathStopsOnLoop checks that Path on a two-box forwarding loop
// terminates: the walk's back edge leads to a box already on the path,
// which closes the path instead of being followed forever.
func TestPathStopsOnLoop(t *testing.T) {
	m := aptree.NewManager(8, aptree.MethodOAPT)
	p := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 1, 8) })
	n := New()
	b1 := n.AddBox("b1", 1)
	b2 := n.AddBox("b2", 1)
	n.Boxes[b1].Ports[0].Fwd = p
	n.Boxes[b2].Ports[0].Fwd = p
	n.Link(b1, 0, b2, 0)
	pkt := []byte{0b10000001}
	b := n.Behavior(&Env{Source: m}, b1, pkt, classify(m, pkt))
	got := b.Path()
	if want := []int{b1, b2, b1}; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("path = %v, want %v", got, want)
	}
}

func TestMulticast(t *testing.T) {
	m := aptree.NewManager(8, aptree.MethodOAPT)
	p := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 1, 8) })
	q := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 2, 8) })
	n := New()
	b1 := n.AddBox("b1", 2)
	b2 := n.AddBox("b2", 2)
	b3 := n.AddBox("b3", 2)
	n.Boxes[b1].Ports[0].Fwd = p
	n.Boxes[b1].Ports[1].Fwd = q
	n.Link(b1, 0, b2, 1)
	n.Link(b1, 1, b3, 1)
	n.AttachHost(b2, 0, "h1")
	n.AttachHost(b3, 0, "h2")
	n.Boxes[b2].Ports[0].Fwd = p
	n.Boxes[b3].Ports[0].Fwd = p
	env := &Env{Source: m}
	pkt := []byte{0b10000001} // in both p and q
	b := n.Behavior(env, b1, pkt, classify(m, pkt))
	if !b.Delivered("h1") || !b.Delivered("h2") {
		t.Fatalf("multicast packet must reach both hosts: %v", b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Path must panic on multicast")
		}
	}()
	b.Path()
}

func TestDanglingPort(t *testing.T) {
	m := aptree.NewManager(8, aptree.MethodOAPT)
	p := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 1, 8) })
	n := New()
	b1 := n.AddBox("b1", 1)
	n.Boxes[b1].Ports[0].Fwd = p // peer left at DestNone
	env := &Env{Source: m}
	pkt := []byte{0b10000001}
	b := n.Behavior(env, b1, pkt, classify(m, pkt))
	if len(b.Drops) != 1 || b.Drops[0].Reason != DropDangling {
		t.Fatalf("drops = %v", b.Drops)
	}
}

// mbNet: b1 --- b2 --- h2, with a middlebox on b1 that rewrites the
// header's leading bits from 111 to 10 (so an otherwise-dropped packet is
// forwarded), mirroring the NAT example of Fig. 7.
func mbNet(t *testing.T, typ MBType) (*Network, *aptree.Manager, *Env) {
	t.Helper()
	m := aptree.NewManager(8, aptree.MethodOAPT)
	p2 := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 2, 8) })
	p3 := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 2, 8) })
	match := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b11100000, 3, 8) })

	n := New()
	b1 := n.AddBox("b1", 1)
	b2 := n.AddBox("b2", 2)
	n.Boxes[b1].Ports[0].Fwd = p2
	n.Link(b1, 0, b2, 1)
	n.AttachHost(b2, 0, "h2")
	n.Boxes[b2].Ports[0].Fwd = p3

	n.Boxes[b1].MB = &Middlebox{
		Name: "MB1",
		Entries: []MBEntry{{
			Match: match,
			Type:  typ,
			Rewrite: SetFieldRewrite(func(pkt []byte) {
				pkt[0] = 0b10000000 | pkt[0]&0x1F
			}),
		}},
	}
	env := &Env{Source: m}
	return n, m, env
}

func TestMiddleboxRewriteDeterministic(t *testing.T) {
	n, m, env := mbNet(t, MBDeterministic)
	b1 := n.BoxByName("b1")
	pkt := []byte{0b11100101} // matches MB entry; rewritten to 100xxxxx
	b := n.Behavior(env, b1, pkt, classify(m, pkt))
	if !b.Delivered("h2") {
		t.Fatalf("rewritten packet must reach h2: %v", b)
	}
	if b.Rewrites != 1 {
		t.Fatalf("Rewrites = %d, want 1", b.Rewrites)
	}
	if b.Probabilistic {
		t.Fatal("deterministic rewrite must not mark probabilistic")
	}
	// The Type-1 cache must be primed and reused.
	mb := n.Boxes[b1].MB
	if mb.CacheLen() != 1 {
		t.Fatalf("cache length = %d, want 1", mb.CacheLen())
	}
	b = n.Behavior(env, b1, pkt, classify(m, pkt))
	if !b.Delivered("h2") || mb.CacheLen() != 1 {
		t.Fatalf("second query must hit the cache: %v len=%d", b, mb.CacheLen())
	}
}

func TestMiddleboxCacheInvalidatedOnReconstruct(t *testing.T) {
	n, m, env := mbNet(t, MBDeterministic)
	b1 := n.BoxByName("b1")
	pkt := []byte{0b11100101}
	n.Behavior(env, b1, pkt, classify(m, pkt))
	mb := n.Boxes[b1].MB
	if mb.CacheLen() != 1 {
		t.Fatalf("cache not primed")
	}
	m.Reconstruct(false)
	b := n.Behavior(env, b1, pkt, classify(m, pkt))
	if !b.Delivered("h2") {
		t.Fatalf("behavior wrong after reconstruct: %v", b)
	}
	if mb.CacheLen() != 1 {
		t.Fatalf("cache should be rebuilt with one fresh entry, len=%d", mb.CacheLen())
	}
}

func TestMiddleboxPayloadTypeDoesNotCache(t *testing.T) {
	n, m, env := mbNet(t, MBPayload)
	b1 := n.BoxByName("b1")
	pkt := []byte{0b11100101}
	b := n.Behavior(env, b1, pkt, classify(m, pkt))
	if !b.Delivered("h2") {
		t.Fatalf("Type-2 rewrite must still deliver: %v", b)
	}
	if n.Boxes[b1].MB.CacheLen() != 0 {
		t.Fatal("Type-2 entries must not populate the Type-1 cache")
	}
}

func TestMiddleboxProbabilistic(t *testing.T) {
	n, m, env := mbNet(t, MBProbabilistic)
	b1 := n.BoxByName("b1")
	// Rewrite to two possible headers: one forwarded, one dropped.
	n.Boxes[b1].MB.Entries[0].Rewrite = func(pkt []byte) [][]byte {
		fwd := append([]byte(nil), pkt...)
		fwd[0] = 0b10000001
		drop := append([]byte(nil), pkt...)
		drop[0] = 0b00000001
		return [][]byte{fwd, drop}
	}
	pkt := []byte{0b11100101}
	b := n.Behavior(env, b1, pkt, classify(m, pkt))
	if !b.Probabilistic {
		t.Fatal("Type-3 must mark the behavior probabilistic")
	}
	if !b.Delivered("h2") {
		t.Fatalf("one alternative must deliver: %v", b)
	}
	if len(b.Drops) == 0 {
		t.Fatalf("the other alternative must drop: %v", b)
	}
	if b.Rewrites != 2 {
		t.Fatalf("Rewrites = %d, want 2", b.Rewrites)
	}
}

func TestMiddleboxDropAndPassthrough(t *testing.T) {
	n, m, env := mbNet(t, MBDeterministic)
	b1 := n.BoxByName("b1")
	// Entry that drops matching packets.
	n.Boxes[b1].MB.Entries[0].Rewrite = func(pkt []byte) [][]byte { return [][]byte{} }
	pkt := []byte{0b11100101}
	b := n.Behavior(env, b1, pkt, classify(m, pkt))
	if b.Delivered("") || len(b.Drops) != 1 || b.Drops[0].Reason != DropMiddlebox {
		t.Fatalf("middlebox drop expected: %v", b)
	}

	// A packet matching no entry passes through untouched (here: it is in
	// p2 so it is forwarded normally).
	pkt2 := []byte{0b10000001}
	b = n.Behavior(env, b1, pkt2, classify(m, pkt2))
	if !b.Delivered("h2") || b.Rewrites != 0 {
		t.Fatalf("non-matching packet must pass through unmodified: %v", b)
	}

	// A nil rewrite result is an explicit pass-through entry.
	n.Boxes[b1].MB.Entries[0].Rewrite = func(pkt []byte) [][]byte { return nil }
	b = n.Behavior(env, b1, pkt, classify(m, pkt))
	// 111xxxxx is in no forwarding predicate, so it drops with no route —
	// but not at the middlebox.
	if len(b.Drops) != 1 || b.Drops[0].Reason != DropNoRoute {
		t.Fatalf("pass-through entry must leave forwarding to the box: %v", b)
	}
}

func TestWalkerMatchesBehavior(t *testing.T) {
	n, m, env, _ := fig1Net(t)
	w := NewWalker(n, env)
	for _, pktByte := range []byte{0b00000001, 0b01000001, 0b10000001, 0b11000001, 0b11100001} {
		for ingress := 0; ingress < 2; ingress++ {
			pkt := []byte{pktByte}
			leaf := classify(m, pkt)
			want := n.Behavior(env, ingress, pkt, leaf)
			got := w.Behavior(ingress, pkt, leaf)
			if got.String() != want.String() {
				t.Fatalf("pkt %08b ingress %d: walker %q vs behavior %q",
					pktByte, ingress, got.String(), want.String())
			}
		}
	}
}

func TestWalkerReuseDoesNotLeakState(t *testing.T) {
	n, m, env, _ := fig1Net(t)
	w := NewWalker(n, env)
	// A delivering query followed by a dropping query must not inherit
	// the earlier edges/deliveries.
	pktGood := []byte{0b10000001}
	w.Behavior(0, pktGood, classify(m, pktGood))
	pktBad := []byte{0b11100001}
	got := w.Behavior(0, pktBad, classify(m, pktBad))
	if len(got.Edges) != 0 || len(got.Deliveries) != 0 {
		t.Fatalf("scratch leaked into next query: %v", got)
	}
	if len(got.Drops) != 1 {
		t.Fatalf("drops = %v", got.Drops)
	}
	// And back again.
	got = w.Behavior(0, pktGood, classify(m, pktGood))
	if !got.Delivered("h2") {
		t.Fatalf("walker broken after reuse: %v", got)
	}
}

func TestBehaviorString(t *testing.T) {
	n, m, env, _ := fig1Net(t)
	pkt := []byte{0b10000001}
	b := n.Behavior(env, n.BoxByName("b1"), pkt, classify(m, pkt))
	s := b.String()
	if s == "" || !b.Delivered("h2") {
		t.Fatalf("String() = %q", s)
	}
}

func TestBehaviorDeterministic(t *testing.T) {
	// Identical queries must produce identical behaviors (stage 2 is a
	// pure function of the data plane and the atom) — including edge
	// order, which downstream fingerprinting relies on.
	n, m, env, _ := fig1Net(t)
	for _, pktByte := range []byte{0b00000001, 0b10000001, 0b11000001} {
		pkt := []byte{pktByte}
		leaf := classify(m, pkt)
		first := n.Behavior(env, 0, pkt, leaf).String()
		for i := 0; i < 10; i++ {
			if got := n.Behavior(env, 0, pkt, leaf).String(); got != first {
				t.Fatalf("behavior not deterministic: %q vs %q", got, first)
			}
		}
	}
}

func TestBehaviorIndependentOfCounters(t *testing.T) {
	// Visit counters must not affect results.
	n, m, env, _ := fig1Net(t)
	pkt := []byte{0b10000001}
	a := n.Behavior(env, 0, pkt, classify(m, pkt)).String()
	for i := 0; i < 1000; i++ {
		m.Classify(pkt)
	}
	b := n.Behavior(env, 0, pkt, classify(m, pkt)).String()
	if a != b {
		t.Fatalf("behavior changed after counter churn: %q vs %q", a, b)
	}
}

func TestHopBudget(t *testing.T) {
	// A long chain with MaxHops smaller than its length must stop.
	m := aptree.NewManager(8, aptree.MethodOAPT)
	p := m.AddPredicate(func(d *bdd.DD) bdd.Ref { return d.FromPrefix(0, 0b10000000, 1, 8) })
	n := New()
	const chain = 10
	ids := make([]int, chain)
	for i := range ids {
		ids[i] = n.AddBox("", 1)
		n.Boxes[ids[i]].Ports[0].Fwd = p
	}
	for i := 0; i+1 < chain; i++ {
		n.Boxes[ids[i]].Ports[0].Peer = Dest{Kind: DestBox, Box: ids[i+1], Port: 0}
	}
	env := &Env{Source: m, MaxHops: 3}
	pkt := []byte{0b10000001}
	b := n.Behavior(env, ids[0], pkt, classify(m, pkt))
	budget := false
	for _, d := range b.Drops {
		if d.Reason == DropHopBudget {
			budget = true
		}
	}
	if !budget {
		t.Fatalf("hop budget must trigger: %v", b)
	}
}
