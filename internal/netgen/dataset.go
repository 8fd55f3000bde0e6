// Package netgen generates synthetic data-plane datasets standing in for
// the two real networks the paper evaluates on: Internet2 (a national
// backbone with pure destination-IP routing) and the Stanford campus
// backbone (a two-tier enterprise network with 5-tuple ACLs).
//
// The real datasets are not redistributable; these generators reproduce
// their aggregate structure — router/link counts, rule volumes, predicate
// counts, prefix-length mix, and the nesting that makes longest-prefix
// shadowing matter — so the algorithmic behavior the paper measures (tree
// depths, construction cost, update cost, query throughput shape) carries
// over. Generation is deterministic per seed.
package netgen

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"apclassifier/internal/header"
	"apclassifier/internal/rule"
)

// BoxSpec describes one box's data-plane state.
type BoxSpec struct {
	Name     string
	NumPorts int
	// Fwd is the box's forwarding table over dstIP.
	Fwd rule.FwdTable
	// PortACL maps a port index to its egress ACL, if any.
	PortACL map[int]*rule.ACL
	// InACL optionally filters everything entering the box.
	InACL *rule.ACL
}

// Link is a bidirectional cable between two box ports.
type Link struct {
	A, PA, B, PB int
}

// Host attaches a named end host to a box port.
type Host struct {
	Box, Port int
	Name      string
}

// Dataset is a complete data-plane snapshot: topology plus rule state.
type Dataset struct {
	Name   string
	Layout *header.Layout
	Boxes  []BoxSpec
	Links  []Link
	Hosts  []Host
}

// Clone returns a copy whose rule tables and ACL maps change independently
// of ds; topology and the ACLs themselves (replaced, never edited) are shared.
func (ds *Dataset) Clone() *Dataset {
	c := *ds
	c.Boxes = make([]BoxSpec, len(ds.Boxes))
	for i, b := range ds.Boxes {
		b.Fwd.Rules = slices.Clone(b.Fwd.Rules)
		b.PortACL = maps.Clone(b.PortACL)
		c.Boxes[i] = b
	}
	return &c
}

// NumRules reports the total number of forwarding rules.
func (ds *Dataset) NumRules() int {
	n := 0
	for i := range ds.Boxes {
		n += len(ds.Boxes[i].Fwd.Rules)
	}
	return n
}

// NumACLRules reports the total number of ACL rules.
func (ds *Dataset) NumACLRules() int {
	n := 0
	for i := range ds.Boxes {
		for _, acl := range ds.Boxes[i].PortACL {
			n += len(acl.Rules)
		}
		if ds.Boxes[i].InACL != nil {
			n += len(ds.Boxes[i].InACL.Rules)
		}
	}
	return n
}

// NumACLs reports the number of distinct ACLs.
func (ds *Dataset) NumACLs() int {
	n := 0
	for i := range ds.Boxes {
		n += len(ds.Boxes[i].PortACL)
		if ds.Boxes[i].InACL != nil {
			n++
		}
	}
	return n
}

// HostAt returns the host name attached to (box, port), or "".
func (ds *Dataset) HostAt(box, port int) string {
	for _, h := range ds.Hosts {
		if h.Box == box && h.Port == port {
			return h.Name
		}
	}
	return ""
}

// Config controls generator scale.
type Config struct {
	// Seed makes generation reproducible.
	Seed int64
	// RuleScale scales rule volume relative to the paper's dataset
	// (1.0 ≈ 126k rules for Internet2, ≈ 757k for Stanford). Values in
	// (0, 1] shrink the prefix pool proportionally.
	RuleScale float64
	// Multihome controls anycast-style dual announcement of prefixes,
	// which adds forwarding-pattern diversity (and hence atoms). 0
	// selects the generator's default — an absolute count, so atom counts
	// stay near the paper's at every scale; negative disables it (every
	// destination then delivers to the same host from every ingress);
	// a positive value is a fraction of the prefix pool.
	Multihome float64
}

// diversity resolves the atom-diversity knobs: the number of multihomed
// prefixes and of nested specifics with divergent owners. Defaults are
// absolute (capped by pool size) because real networks' atomic-predicate
// counts do not grow linearly with their rule counts.
func (c Config) diversity(count, defMultihome, defDivergent int) (multihome, divergent int) {
	divergent = defDivergent
	if divergent > count/4 {
		divergent = count / 4
	}
	switch {
	case c.Multihome < 0:
		multihome = 0
	case c.Multihome == 0:
		multihome = defMultihome
		if multihome > count/8 {
			multihome = count / 8
		}
	default:
		multihome = int(c.Multihome * float64(count))
	}
	return multihome, divergent
}

func (c Config) scale(full int) int {
	if c.RuleScale <= 0 {
		c.RuleScale = 1
	}
	n := int(float64(full) * c.RuleScale)
	if n < 8 {
		n = 8
	}
	return n
}

// topology is scaffolding shared by the generators.
type topology struct {
	ds        *Dataset
	rng       *rand.Rand
	nextPort  []int   // next free port index per box
	edgePorts [][]int // per box: ports facing hosts
	adj       [][]int // box adjacency (box IDs)
	linkPort  []map[int]int
}

func newTopology(name string, layout *header.Layout, numBoxes int, names []string, rng *rand.Rand) *topology {
	t := &topology{
		ds:       &Dataset{Name: name, Layout: layout},
		rng:      rng,
		nextPort: make([]int, numBoxes),
		adj:      make([][]int, numBoxes),
		linkPort: make([]map[int]int, numBoxes),
	}
	t.edgePorts = make([][]int, numBoxes)
	for i := 0; i < numBoxes; i++ {
		t.ds.Boxes = append(t.ds.Boxes, BoxSpec{Name: names[i], PortACL: map[int]*rule.ACL{}})
		t.linkPort[i] = map[int]int{}
	}
	return t
}

func (t *topology) link(a, b int) {
	pa, pb := t.nextPort[a], t.nextPort[b]
	t.nextPort[a]++
	t.nextPort[b]++
	t.ds.Links = append(t.ds.Links, Link{a, pa, b, pb})
	t.adj[a] = append(t.adj[a], b)
	t.adj[b] = append(t.adj[b], a)
	t.linkPort[a][b] = pa
	t.linkPort[b][a] = pb
}

func (t *topology) addEdgePorts(box, n int) {
	for i := 0; i < n; i++ {
		p := t.nextPort[box]
		t.nextPort[box]++
		t.edgePorts[box] = append(t.edgePorts[box], p)
		t.ds.Hosts = append(t.ds.Hosts, Host{Box: box, Port: p, Name: fmt.Sprintf("h%d_%d", box, p)})
	}
}

func (t *topology) finish() {
	for i := range t.ds.Boxes {
		t.ds.Boxes[i].NumPorts = t.nextPort[i]
	}
}

// nextHops computes, for every (from, to) box pair, the egress port at
// `from` on a shortest path to `to` and the hop distance, by BFS per
// destination.
func (t *topology) nextHops() (nh [][]int, dist [][]int) {
	n := len(t.ds.Boxes)
	nh = make([][]int, n)
	dist = make([][]int, n)
	for i := range nh {
		nh[i] = make([]int, n)
		dist[i] = make([]int, n)
		for j := range nh[i] {
			nh[i][j] = -1
			dist[i][j] = -1
		}
	}
	for dst := 0; dst < n; dst++ {
		dist[dst][dst] = 0
		queue := []int{dst}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range t.adj[u] {
				if dist[v][dst] < 0 {
					dist[v][dst] = dist[u][dst] + 1
					nh[v][dst] = t.linkPort[v][u]
					queue = append(queue, v)
				}
			}
		}
	}
	return nh, dist
}

// prefixOwner pairs an address block with the edge port that originates it.
type prefixOwner struct {
	prefix rule.Prefix
	box    int
	port   int
}

// generatePrefixes draws a prefix pool with BGP-like structure: a majority
// of quasi-disjoint base prefixes plus a tail of more-specifics nested in
// earlier prefixes. Nested specifics inherit their parent's owner — real
// FIBs are full of same-next-hop deaggregation, which inflates rule counts
// without creating new forwarding patterns — except for divergentNested of
// them, which get independent owners and therefore create new atoms. This
// is how the generators hit the paper's rule volumes *and* its modest
// atomic-predicate counts at the same time.
func (t *topology) generatePrefixes(count, minLen, maxLen int, bases []uint32, baseLen, divergentNested int) []prefixOwner {
	owners := make([]prefixOwner, 0, count)
	used := make(map[rule.Prefix]bool, count)
	var nested []int // indices of nested prefixes
	for len(owners) < count {
		var p rule.Prefix
		parent := -1
		if len(owners) > 0 && t.rng.Intn(100) < 40 {
			// Nested specific of an earlier prefix.
			parent = t.rng.Intn(len(owners))
			pp := owners[parent].prefix
			if pp.Length >= maxLen {
				continue
			}
			l := pp.Length + 1 + t.rng.Intn(maxLen-pp.Length)
			p = rule.P(pp.Value|t.rng.Uint32()&^maskFor(pp.Length), l)
		} else {
			base := bases[t.rng.Intn(len(bases))]
			l := minLen + t.rng.Intn(maxLen-minLen+1)
			p = rule.P(base|t.rng.Uint32()&^maskFor(baseLen), l)
		}
		if used[p] {
			continue // keep the pool at exactly `count` distinct prefixes
		}
		used[p] = true
		if parent >= 0 {
			owners = append(owners, prefixOwner{p, owners[parent].box, owners[parent].port})
			nested = append(nested, len(owners)-1)
		} else {
			b, port := t.randomEdge()
			owners = append(owners, prefixOwner{p, b, port})
		}
	}
	// Re-home a bounded number of nested specifics (traffic-engineered
	// more-specifics announced from elsewhere).
	t.rng.Shuffle(len(nested), func(i, j int) { nested[i], nested[j] = nested[j], nested[i] })
	if divergentNested > len(nested) {
		divergentNested = len(nested)
	}
	for _, idx := range nested[:divergentNested] {
		owners[idx].box, owners[idx].port = t.randomEdge()
	}
	return owners
}

// randomEdge picks a uniformly random host-facing (box, port).
func (t *topology) randomEdge() (int, int) {
	for {
		b := t.rng.Intn(len(t.edgePorts))
		if len(t.edgePorts[b]) > 0 {
			return b, t.edgePorts[b][t.rng.Intn(len(t.edgePorts[b]))]
		}
	}
}

func maskFor(length int) uint32 {
	if length == 0 {
		return 0
	}
	return ^uint32(0) << uint(32-length)
}

// populateFIBs installs, on every box, one rule per prefix: toward the
// nearest owner's edge port locally, or out the shortest-path backbone
// port. multihomeCount prefixes are multihomed (anycast-style, announced
// from a second edge port elsewhere), adding forwarding-pattern diversity
// in a bounded way.
func (t *topology) populateFIBs(owners []prefixOwner, multihomeCount int) {
	nh, dist := t.nextHops()
	multihomed := map[int]bool{}
	if multihomeCount > len(owners) {
		multihomeCount = len(owners)
	}
	for len(multihomed) < multihomeCount {
		multihomed[t.rng.Intn(len(owners))] = true
	}
	for oi, o := range owners {
		sites := []prefixOwner{o}
		if multihomed[oi] {
			b2, p2 := t.randomEdge()
			if b2 != o.box {
				sites = append(sites, prefixOwner{o.prefix, b2, p2})
			}
		}
		for b := range t.ds.Boxes {
			// Route toward the nearest announcing site.
			best := sites[0]
			bestDist := dist[b][best.box]
			for _, s := range sites[1:] {
				if d := dist[b][s.box]; d >= 0 && (bestDist < 0 || d < bestDist) {
					best, bestDist = s, d
				}
			}
			port := best.port
			if b != best.box {
				port = nh[b][best.box]
				if port < 0 {
					continue // disconnected (cannot happen in our graphs)
				}
			}
			t.ds.Boxes[b].Fwd.Add(rule.FwdRule{Prefix: o.prefix, Port: port})
		}
	}
}
