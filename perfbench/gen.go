package main

import (
	"fmt"
	"math/rand"
	"sort"

	"apclassifier"
	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

// Input generation. Every input is a pure function of the workload and
// --seed, so the same seed gives byte-identical datasets, query bodies and
// delta streams (TestSameSeedSameInputs). The network of each workload is
// fixed — it is what the workload is — and the seed draws the traffic, the
// churn stream and the verification sample on it.

// datasetSeed is the generator seed of the Internet2-like and
// Stanford-like networks (the fat tree is structural and takes none).
const datasetSeed = 1

// query is one stage-0 behavior query: an ingress box and a 5-tuple.
type query struct {
	ingress int
	f       rule.Fields
}

// genQueries draws n queries with uniform ingress. uniform selects
// uniformly random headers; otherwise destinations are biased toward
// installed prefixes (netgen.RandomFields), so walks cross the fabric
// instead of dropping at the first hop on networks whose address space is
// mostly unrouted.
func genQueries(ds *netgen.Dataset, rng *rand.Rand, n int, uniform bool) []query {
	qs := make([]query, n)
	for i := range qs {
		qs[i].ingress = rng.Intn(len(ds.Boxes))
		if uniform {
			qs[i].f = rule.Fields{
				Src:     rng.Uint32(),
				Dst:     rng.Uint32(),
				SrcPort: uint16(rng.Intn(1 << 16)),
				DstPort: uint16(rng.Intn(1 << 16)),
				Proto:   uint8(rng.Intn(256)),
			}
		} else {
			qs[i].f = ds.RandomFields(rng)
		}
	}
	return qs
}

func dottedQuad(v uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", v>>24, v>>16&0xFF, v>>8&0xFF, v&0xFF)
}

// churnBatch is the number of deltas per ApplyRuleDeltasSeq call.
const churnBatch = 16

// aclPeriod places the churn stream's port-ACL replacements: the last
// delta of every aclPeriod/churnBatch-th batch, on networks that carry
// port ACLs. The share is fixed rather than drawn, and the ports are
// visited in turn rather than drawn, because one ACL replacement costs as
// much as dozens of forwarding deltas and its cost depends on the port
// (44 to 136 ms against 14 to 25 ms for a whole forwarding batch on
// Stanford-like ×0.2): drawn at random, the ACL events alone would set a
// run's update rate. The share is small enough that ACL batches stay out
// of the 90th percentiles the workload reports, which are medians over
// one-second windows (see windowed): at one batch in 256 most windows hold
// none. At one in 8 they were 12% of the batches and 38% of the update
// time, and at one in 64 most windows held one, an 80 ms lock hold near
// a tenth of the window; either way the p90 fell on the edge between the
// two kinds of batch and jumped between runs (quartile spreads to 0.33).
const aclPeriod = 256 * churnBatch

// genChurn builds a delta stream of n events against the pristine dataset
// ds, following the experiments.Churn event model: the insertion of a
// more-specific child of an original prefix toward the parent's port, or
// the removal of a child inserted earlier, plus a small fixed share of
// port-ACL replacements that visit the ACL ports in turn from a drawn
// start and alternate each between its original ACL and a variant with one
// extra deny rule in front (see aclPeriod).
//
// The stream removes only prefixes it installed itself (a child never
// collides with a prefix already in the table, so RemoveFwdRule's
// exact-prefix match cannot take an original rule with it), and it never
// removes an ACL, so every prefix of the stream is a valid update
// sequence.
func genChurn(ds *netgen.Dataset, rng *rand.Rand, n int) []apclassifier.RuleDelta {
	type inst struct {
		box    int
		prefix rule.Prefix
	}
	present := make([]map[rule.Prefix]bool, len(ds.Boxes))
	var parentBoxes []int
	parents := make([][]rule.FwdRule, len(ds.Boxes))
	for b := range ds.Boxes {
		present[b] = make(map[rule.Prefix]bool, len(ds.Boxes[b].Fwd.Rules))
		for _, r := range ds.Boxes[b].Fwd.Rules {
			present[b][r.Prefix] = true
			if r.Prefix.Length < 32 {
				parents[b] = append(parents[b], r)
			}
		}
		if len(parents[b]) > 0 {
			parentBoxes = append(parentBoxes, b)
		}
	}
	type aclPort struct {
		box, port int
		orig      *rule.ACL
	}
	var aclPorts []aclPort
	for b := range ds.Boxes {
		ports := make([]int, 0, len(ds.Boxes[b].PortACL))
		for p := range ds.Boxes[b].PortACL {
			ports = append(ports, p)
		}
		sort.Ints(ports)
		for _, p := range ports {
			aclPorts = append(aclPorts, aclPort{b, p, ds.Boxes[b].PortACL[p]})
		}
	}
	varied := make([]bool, len(aclPorts))
	nextACL := 0
	if len(aclPorts) > 0 {
		nextACL = rng.Intn(len(aclPorts))
	}

	var installed []inst
	out := make([]apclassifier.RuleDelta, 0, n)
	for len(out) < n {
		if len(aclPorts) > 0 && len(out)%aclPeriod == aclPeriod-1 {
			k := nextACL
			nextACL = (nextACL + 1) % len(aclPorts)
			ap := aclPorts[k]
			acl := ap.orig
			if !varied[k] {
				acl = aclVariant(ap.orig, rng)
			}
			varied[k] = !varied[k]
			out = append(out, apclassifier.RuleDelta{Op: apclassifier.OpSetPortACL, Box: ap.box, Port: ap.port, ACL: acl})
			continue
		}
		if len(installed) > 8 && rng.Intn(2) == 0 {
			k := rng.Intn(len(installed))
			e := installed[k]
			installed = append(installed[:k], installed[k+1:]...)
			delete(present[e.box], e.prefix)
			out = append(out, apclassifier.RuleDelta{Op: apclassifier.OpRemoveFwdRule, Box: e.box, Prefix: e.prefix})
			continue
		}
		box := parentBoxes[rng.Intn(len(parentBoxes))]
		parent := parents[box][rng.Intn(len(parents[box]))]
		length := parent.Prefix.Length + 1 + rng.Intn(32-parent.Prefix.Length)
		p := rule.P(parent.Prefix.Value|rng.Uint32()&^maskOf(parent.Prefix.Length), length)
		if present[box][p] {
			continue
		}
		present[box][p] = true
		installed = append(installed, inst{box, p})
		out = append(out, apclassifier.RuleDelta{Op: apclassifier.OpAddFwdRule, Box: box,
			Rule: rule.FwdRule{Prefix: p, Port: parent.Port}})
	}
	return out
}

func maskOf(length int) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << uint(32-length)
}

// aclVariant returns a copy of acl with one deny rule for a random /16 of
// source addresses in front.
func aclVariant(acl *rule.ACL, rng *rand.Rand) *rule.ACL {
	m := rule.MatchAll()
	m.Src = rule.P(rng.Uint32(), 16)
	rules := make([]rule.ACLRule, 0, len(acl.Rules)+1)
	rules = append(rules, rule.ACLRule{Match: m, Action: rule.Deny})
	rules = append(rules, acl.Rules...)
	return &rule.ACL{Rules: rules, Default: acl.Default}
}

// batches cuts a delta stream into ApplyRuleDeltasSeq batches.
func batches(stream []apclassifier.RuleDelta) [][]apclassifier.RuleDelta {
	var out [][]apclassifier.RuleDelta
	for len(stream) > 0 {
		n := churnBatch
		if n > len(stream) {
			n = len(stream)
		}
		out = append(out, stream[:n:n])
		stream = stream[n:]
	}
	return out
}
