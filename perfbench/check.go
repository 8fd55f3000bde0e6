package main

import (
	"fmt"
	"sort"
	"strings"

	"apclassifier/internal/netgen"
	"apclassifier/internal/network"
	"apclassifier/internal/server"
)

// Output checks. An answer is right when it agrees with Dataset.Simulate
// — the box-by-box rule-table oracle — on where the packet is delivered,
// which boxes drop it, and whether it loops. Drops by loop detection are
// compared as the loop flag, since the oracle reports a loop rather than a
// dropping box.

type verdict struct {
	delivered []string
	drops     []int
	looped    bool
}

func (v verdict) String() string {
	return fmt.Sprintf("delivered=%v drops=%v looped=%v", v.delivered, v.drops, v.looped)
}

func (v verdict) equal(o verdict) bool {
	if v.looped != o.looped || len(v.delivered) != len(o.delivered) || len(v.drops) != len(o.drops) {
		return false
	}
	for i := range v.delivered {
		if v.delivered[i] != o.delivered[i] {
			return false
		}
	}
	for i := range v.drops {
		if v.drops[i] != o.drops[i] {
			return false
		}
	}
	return true
}

func normalize(v verdict) verdict {
	sort.Strings(v.delivered)
	sort.Ints(v.drops)
	uniq := v.drops[:0]
	for i, b := range v.drops {
		if i == 0 || b != v.drops[i-1] {
			uniq = append(uniq, b)
		}
	}
	v.drops = uniq
	return v
}

func simVerdict(ds *netgen.Dataset, q query) verdict {
	r := ds.Simulate(q.ingress, q.f)
	return normalize(verdict{
		delivered: append([]string(nil), r.Delivered...),
		drops:     append([]int(nil), r.DropBoxes...),
		looped:    r.Looped,
	})
}

func loopReason(r network.DropReason) bool {
	return r == network.DropLoop || r == network.DropHopBudget
}

func behaviorVerdict(b *network.Behavior) verdict {
	var v verdict
	for _, d := range b.Deliveries {
		v.delivered = append(v.delivered, d.Host)
	}
	for _, d := range b.Drops {
		if loopReason(d.Reason) {
			v.looped = true
		} else {
			v.drops = append(v.drops, d.Box)
		}
	}
	return normalize(v)
}

// responseVerdict reads an HTTP answer; drops are rendered "box: reason".
func responseVerdict(r *server.QueryResponse, boxIndex map[string]int) (verdict, error) {
	v := verdict{delivered: append([]string(nil), r.Delivered...)}
	for _, d := range r.Drops {
		name, reason, ok := strings.Cut(d, ": ")
		box, known := boxIndex[name]
		if !ok || !known {
			return v, fmt.Errorf("unparseable drop %q", d)
		}
		if loopReason(network.DropReason(reason)) {
			v.looped = true
		} else {
			v.drops = append(v.drops, box)
		}
	}
	return normalize(v), nil
}

// responseOf renders a behavior the way the server's /query does, so the
// mirrored encode in the traced run encodes the same payload. The path is
// left out for looping behaviors: network.Behavior.Path follows a loop's
// back edge forever (see README.md), and the mirror must not hang on a
// case the server cannot answer either.
func responseOf(atom, depth int32, b *network.Behavior, net *network.Network) server.QueryResponse {
	resp := server.QueryResponse{Atom: atom, Depth: depth}
	looped := false
	for _, d := range b.Deliveries {
		resp.Delivered = append(resp.Delivered, d.Host)
	}
	for _, d := range b.Drops {
		resp.Drops = append(resp.Drops, fmt.Sprintf("%s: %s", net.Boxes[d.Box].Name, d.Reason))
		looped = looped || loopReason(d.Reason)
	}
	if len(b.Deliveries) <= 1 && !looped {
		for _, box := range b.Path() {
			resp.Path = append(resp.Path, net.Boxes[box].Name)
		}
	}
	return resp
}
