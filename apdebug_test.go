//go:build apdebug

package apclassifier

import (
	"math/rand"
	"strings"
	"testing"

	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

// TestApdebugCacheEpochCheck drives the apdebug assertion that a cached
// behavior is never served from a retired epoch: the cache's snapshot
// pointer must equal the query's pinned snapshot at the single lookup
// point (behaviorVia). The epoch owns its cache (behaviorCache), which
// guarantees this by construction, so the panic can only be provoked by
// calling the check directly with a mismatched pair.
func TestApdebugCacheEpochCheck(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 51, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	old := c.Manager.Snapshot()
	bc := behaviorCache(old)
	if bc == nil || bc.Epoch() != old {
		t.Fatal("the published epoch must own a cache built for it")
	}
	if behaviorCache(old) != bc {
		t.Fatal("an epoch must keep one cache for its whole life")
	}
	// Matching pair and nil cache are silent.
	debugCheckCacheEpoch(bc, old)
	debugCheckCacheEpoch(nil, old)

	c.Reconstruct(false)
	fresh := c.Manager.Snapshot()
	if fresh == old {
		t.Fatal("reconstruction must publish a new snapshot")
	}
	// The normal path never pairs the old cache with the new epoch…
	if got := behaviorCache(fresh); got == bc || got.Epoch() != fresh {
		t.Fatal("a new epoch must own a fresh cache")
	}
	// …and the assertion catches anyone who does.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mismatched cache/epoch pair must panic under apdebug")
		}
		if !strings.Contains(r.(string), "apdebug") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	debugCheckCacheEpoch(bc, fresh)
}

// TestApdebugDeltaPartition drives the delta pipeline with the leaf
// partition sanitizer armed: under -tags apdebug every ApplyDelta and
// RemovePredicate self-checks inside the transaction, and this test
// additionally audits the published tree after each batch — the
// incrementally split/merged leaves must remain a disjoint, exhaustive
// partition of the header space, with membership labels matching the
// full refinement (Validate).
func TestApdebugDeltaPartition(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 52, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	var added []RuleDelta
	for batch := 0; batch < 8; batch++ {
		var deltas []RuleDelta
		for k := 0; k < 3; k++ {
			box := rng.Intn(len(ds.Boxes))
			tbl := &ds.Boxes[box].Fwd
			parent := tbl.Rules[rng.Intn(len(tbl.Rules))]
			if parent.Prefix.Length >= 32 {
				continue
			}
			length := parent.Prefix.Length + 1 + rng.Intn(32-parent.Prefix.Length)
			r := rule.FwdRule{
				Prefix: rule.P(parent.Prefix.Value|rng.Uint32()&^uint32(0xFFFFFFFF<<uint(32-parent.Prefix.Length)), length),
				Port:   parent.Port,
			}
			deltas = append(deltas, RuleDelta{Op: OpAddFwdRule, Box: box, Rule: r})
			added = append(added, RuleDelta{Op: OpRemoveFwdRule, Box: box, Prefix: r.Prefix})
		}
		if len(added) > 2 && rng.Intn(2) == 0 {
			j := rng.Intn(len(added))
			deltas = append(deltas, added[j])
			added = append(added[:j], added[j+1:]...)
		}
		if err := c.ApplyRuleDeltas(deltas); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		tree := c.Manager.Tree()
		if err := tree.CheckLeafPartition(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if err := tree.Validate(c.Manager.LiveIDs()); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
}
