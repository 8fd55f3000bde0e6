package apclassifier

import (
	"math/rand"
	"testing"

	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

func TestWhatIfFwdRuleDetectsBlackhole(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 14, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))

	// Build probes from currently delivered flows.
	var probes []FlowProbe
	for len(probes) < 10 {
		f := ds.RandomFields(rng)
		ing := rng.Intn(len(ds.Boxes))
		if c.Behavior(ing, ds.PacketFromFields(f)).Delivered("") {
			probes = append(probes, FlowProbe{Ingress: ing, Fields: f})
		}
	}

	// Hypothetical: blackhole the first probe's destination on its
	// ingress box. The what-if must flag at least that probe.
	victim := probes[0]
	changes := c.WhatIfFwdRule(victim.Ingress, rule.FwdRule{
		Prefix: rule.P(victim.Fields.Dst, 32),
		Port:   rule.Drop,
	}, probes)
	found := false
	for _, ch := range changes {
		if ch.Probe == victim {
			found = true
			if !ch.DeliveryChange {
				t.Fatal("blackhole must be a delivery change")
			}
			if ch.After.Delivered("") {
				t.Fatal("after-behavior should not deliver")
			}
		}
	}
	if !found {
		t.Fatalf("what-if missed the blackholed probe (changes: %d)", len(changes))
	}

	// Live state unchanged — every probe behaves as before, and the
	// dataset holds no trace of the hypothetical rule.
	for _, p := range probes {
		if !c.Behavior(p.Ingress, ds.PacketFromFields(p.Fields)).Delivered("") {
			t.Fatal("what-if leaked state: probe no longer delivered")
		}
	}
	for _, r := range ds.Boxes[victim.Ingress].Fwd.Rules {
		if r.Prefix == rule.P(victim.Fields.Dst, 32) {
			t.Fatal("hypothetical rule still installed")
		}
	}
}

func TestWhatIfNoEffectRuleReportsNothing(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 15, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	var probes []FlowProbe
	for i := 0; i < 10; i++ {
		probes = append(probes, FlowProbe{Ingress: rng.Intn(len(ds.Boxes)), Fields: ds.RandomFields(rng)})
	}
	// A rule for entirely unrelated address space (240/8 unused) cannot
	// change any probe... unless a probe randomly lands there; use a
	// prefix guaranteed untouched by RandomFields' bases and check.
	changes := c.WhatIfFwdRule(0, rule.FwdRule{Prefix: rule.P(0xF0000000, 8), Port: rule.Drop}, probes)
	for _, ch := range changes {
		if ch.Probe.Fields.Dst>>24 != 0xF0 {
			t.Fatalf("unrelated rule changed probe %+v", ch.Probe)
		}
	}
}

func TestWhatIfWithExistingSamePrefixRule(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 16, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	box := 0
	// Pick a rule that is the LPM winner for its own base address, so a
	// same-prefix override actually changes the forwarding decision.
	var existing rule.FwdRule
	found := false
	for _, r := range ds.Boxes[box].Fwd.Rules {
		best := -1
		for _, o := range ds.Boxes[box].Fwd.Rules {
			if o.Prefix.Matches(r.Prefix.Value) && o.Prefix.Length > best {
				best = o.Prefix.Length
			}
		}
		if best == r.Prefix.Length && r.Port != rule.Drop {
			existing, found = r, true
			break
		}
	}
	if !found {
		t.Fatal("no LPM-winning rule found")
	}
	probe := FlowProbe{Ingress: box, Fields: rule.Fields{Dst: existing.Prefix.Value}}
	beforeStr := c.Behavior(box, ds.PacketFromFields(probe.Fields)).String()

	// Hypothetical rule with the SAME prefix but dropping: must take
	// effect during the what-if...
	changes := c.WhatIfFwdRule(box, rule.FwdRule{Prefix: existing.Prefix, Port: rule.Drop}, []FlowProbe{probe})
	if len(changes) == 0 {
		t.Fatal("same-prefix override not observed")
	}
	// ...and the original rule must still be in force afterwards.
	afterStr := c.Behavior(box, ds.PacketFromFields(probe.Fields)).String()
	if beforeStr != afterStr {
		t.Fatalf("what-if changed live behavior: %q -> %q", beforeStr, afterStr)
	}
	count := 0
	for _, r := range ds.Boxes[box].Fwd.Rules {
		if r.Prefix == existing.Prefix {
			count++
			if r.Port != existing.Port {
				t.Fatal("restored rule has wrong port")
			}
		}
	}
	if count != 1 {
		t.Fatalf("expected exactly 1 restored rule, got %d", count)
	}
}
