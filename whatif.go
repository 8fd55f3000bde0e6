package apclassifier

import (
	"fmt"
	"slices"

	"apclassifier/internal/aptree"
	"apclassifier/internal/network"
	"apclassifier/internal/rule"
)

// FlowProbe names one flow whose behavior a what-if check observes.
type FlowProbe struct {
	Ingress int
	Fields  rule.Fields
}

// BehaviorChange records how one probed flow's behavior differs between
// the current data plane and the hypothetical one.
type BehaviorChange struct {
	Probe          FlowProbe
	Before, After  *network.Behavior
	DeliveryChange bool // delivered-host set differs
	PathChange     bool // traversed-edge set differs
}

// WhatIfFwdRule answers §I's pre-installation verification question: if
// this forwarding rule were installed on the box, how would the probed
// flows behave? The rule goes into a private copy of the box's table,
// displacing any same-prefix rule so it wins the LPM tie, and the probes
// walk the unpublished epoch Manager.Fork derives from it. Live state,
// concurrent queries and c.Dataset never see the hypothetical rule.
func (c *Classifier) WhatIfFwdRule(box int, r rule.FwdRule, probes []FlowProbe) []BehaviorChange {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.validateDelta(RuleDelta{Op: OpAddFwdRule, Box: box, Rule: r}); err != nil {
		panic(fmt.Errorf("apclassifier: %w", err))
	}
	live := c.Snapshot()
	fwd := rule.FwdTable{Rules: slices.Clone(c.Dataset.Boxes[box].Fwd.Rules)}
	var cones []rule.Cone
	if cone, ok := fwd.RemoveWithCone(r.Prefix); ok {
		cones = append(cones, cone)
	}
	cones = append(cones, fwd.AddWithCone(r))
	hyp := c.Manager.Fork(func(tx *aptree.Tx) {
		net := c.rewire(tx, func(int) *rule.FwdTable { return &fwd }, map[int][]rule.Cone{box: cones}, nil)
		tx.SetWiring(&wiring{net: net})
	})

	changes := make([]BehaviorChange, 0, len(probes))
	for _, p := range probes {
		pkt := c.Dataset.PacketFromFields(p.Fields)
		before := live.Behavior(p.Ingress, pkt)
		leaf, _ := hyp.Classify(pkt)
		after := behaviorVia(nil, nil, hyp, p.Ingress, pkt, leaf, false)
		ch := BehaviorChange{Probe: p, Before: before, After: after}
		ch.DeliveryChange = !sameDeliveries(before, after)
		ch.PathChange = !sameEdges(before, after)
		if ch.DeliveryChange || ch.PathChange {
			changes = append(changes, ch)
		}
	}
	return changes
}

func sameDeliveries(a, b *network.Behavior) bool {
	if len(a.Deliveries) != len(b.Deliveries) {
		return false
	}
	count := map[string]int{}
	for _, d := range a.Deliveries {
		count[d.Host]++
	}
	for _, d := range b.Deliveries {
		count[d.Host]--
		if count[d.Host] < 0 {
			return false
		}
	}
	return true
}

func sameEdges(a, b *network.Behavior) bool {
	if len(a.Edges) != len(b.Edges) {
		return false
	}
	type ek struct {
		box, port int
	}
	count := map[ek]int{}
	for _, e := range a.Edges {
		count[ek{e.Box, e.Port}]++
	}
	for _, e := range b.Edges {
		count[ek{e.Box, e.Port}]--
		if count[ek{e.Box, e.Port}] < 0 {
			return false
		}
	}
	return true
}
