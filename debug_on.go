//go:build apdebug

package apclassifier

import (
	"fmt"

	"apclassifier/internal/aptree"
	"apclassifier/internal/network"
)

// debugCheckCacheEpoch panics when a query pinned to snapshot s is about
// to consult a behavior cache built for a different epoch. Cached
// behaviors are only valid for the atoms of the epoch they were walked
// under — serving one across epochs would silently return stale paths.
// The epoch owns its cache (behaviorCache), which upholds this by
// construction; the apdebug build re-checks it at the single point of use.
func debugCheckCacheEpoch(bc *network.BehaviorCache, s *aptree.Snapshot) {
	if bc != nil && bc.Epoch() != s {
		panic(fmt.Sprintf("apdebug: behavior cache for epoch %p consulted by a query pinned to epoch %p",
			bc.Epoch(), s))
	}
}
