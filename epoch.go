package apclassifier

import (
	"slices"

	"apclassifier/internal/aptree"
	"apclassifier/internal/network"
)

// wiring is the facade's immutable payload on each epoch
// (aptree.Snapshot.Wiring): the topology stage 2 walks and the rule
// counts. Writers derive the next one copy-on-write (nextNet) in the
// transaction that changes the predicates, so both publish together.
type wiring struct {
	net             *network.Network
	rules, aclRules int
}

// wiringOf returns the wiring published with epoch s.
func wiringOf(s *aptree.Snapshot) *wiring { return s.Wiring().(*wiring) }

// behaviorCache returns epoch s's behavior cache, shared by every reader
// of the epoch and dropped with it.
func behaviorCache(s *aptree.Snapshot) *network.BehaviorCache {
	return s.Memo(newBehaviorCache).(*network.BehaviorCache)
}

func newBehaviorCache(s *aptree.Snapshot) any {
	return network.NewBehaviorCache(s, len(wiringOf(s).net.Boxes))
}

// nextNet starts the next epoch's topology from old, copy-on-write: the
// box slice is private, and each box stays shared until ownBox copies it.
func nextNet(old *network.Network) *network.Network {
	return &network.Network{Boxes: slices.Clone(old.Boxes)}
}

// ownBox returns box b of next, first replacing it with a private copy
// while it is still shared with old.
func ownBox(next, old *network.Network, b int) *network.Box {
	if next.Boxes[b] == old.Boxes[b] {
		nb := *old.Boxes[b]
		nb.Ports = slices.Clone(nb.Ports)
		next.Boxes[b] = &nb
	}
	return next.Boxes[b]
}
