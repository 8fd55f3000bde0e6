package apclassifier

import (
	"fmt"
	"sort"

	"apclassifier/internal/aptree"
	"apclassifier/internal/bdd"
	"apclassifier/internal/network"
	"apclassifier/internal/predicate"
	"apclassifier/internal/rule"
)

// RuleDeltaOp enumerates the data-plane mutations a RuleDelta can carry.
type RuleDeltaOp int

// Rule-delta operations.
const (
	// OpAddFwdRule installs Rule into Box's forwarding table.
	OpAddFwdRule RuleDeltaOp = iota
	// OpRemoveFwdRule removes all rules matching Prefix exactly from Box's
	// forwarding table; removing an absent prefix is a no-op.
	OpRemoveFwdRule
	// OpSetPortACL installs (or with a nil ACL removes) the egress ACL of
	// Box's Port.
	OpSetPortACL
	// OpSetInACL installs (or with a nil ACL removes) Box's ingress ACL.
	OpSetInACL
)

func (op RuleDeltaOp) String() string {
	switch op {
	case OpAddFwdRule:
		return "add-fwd"
	case OpRemoveFwdRule:
		return "remove-fwd"
	case OpSetPortACL:
		return "set-port-acl"
	case OpSetInACL:
		return "set-in-acl"
	}
	return fmt.Sprintf("RuleDeltaOp(%d)", int(op))
}

// RuleDelta is one data-plane mutation of a batched update transaction.
// Which fields are meaningful depends on Op; see the op constants.
type RuleDelta struct {
	Op     RuleDeltaOp
	Box    int
	Rule   rule.FwdRule // OpAddFwdRule
	Prefix rule.Prefix  // OpRemoveFwdRule
	Port   int          // OpSetPortACL
	ACL    *rule.ACL    // OpSetPortACL / OpSetInACL; nil clears
}

// validateDelta rejects a delta that names a box or port outside the
// dataset, before anything is mutated.
func (c *Classifier) validateDelta(dl RuleDelta) error {
	if dl.Box < 0 || dl.Box >= len(c.Dataset.Boxes) {
		return fmt.Errorf("unknown box %d", dl.Box)
	}
	spec := &c.Dataset.Boxes[dl.Box]
	switch dl.Op {
	case OpAddFwdRule:
		if dl.Rule.Port != rule.Drop && (dl.Rule.Port < 0 || dl.Rule.Port >= spec.NumPorts) {
			return fmt.Errorf("rule port %d out of range [0,%d)", dl.Rule.Port, spec.NumPorts)
		}
	case OpRemoveFwdRule:
	case OpSetPortACL:
		if dl.Port < 0 || dl.Port >= spec.NumPorts {
			return fmt.Errorf("port %d out of range [0,%d)", dl.Port, spec.NumPorts)
		}
	case OpSetInACL:
	default:
		return fmt.Errorf("unknown op %d", int(dl.Op))
	}
	return nil
}

// ApplyRuleDeltas applies a batch of data-plane mutations as one update
// transaction — the delta pipeline behind AddFwdRule, RemoveFwdRule,
// SetPortACL, SetInACL and the server's /rules/batch firehose.
//
// The whole batch is validated before anything is touched; an error means
// no mutation happened. The forwarding-table mutations report their LPM
// cones (rule.Cone), so only the port predicates whose covering set
// actually changed are recomputed — and only inside the cone regions
// (predicate.DeltaPortPredicates). Each changed predicate is swapped in the
// registry and the tree by the atom-merge/split delta path (Tx.Remove +
// Tx.Add), and the rewired topology rides in the same Manager.Update:
// queries observe either the pre-batch or the post-batch epoch, never an
// intermediate state. Concurrent writers serialize on the classifier's
// writer mutex.
func (c *Classifier) ApplyRuleDeltas(deltas []RuleDelta) error {
	_, err := c.ApplyRuleDeltasSeq(0, deltas)
	return err
}

// aclOp is one ACL slot assignment of a delta batch.
type aclOp struct {
	box, port int // port == -1 for box ingress ACLs
	acl       *rule.ACL
}

// applyLocked applies a validated batch to the dataset's tables and
// publishes the resulting predicates and wiring as one epoch; c.mu held.
func (c *Classifier) applyLocked(deltas []RuleDelta) {
	// The cones are exact against the final table: DeltaPortPredicates
	// recomputes winners inside the union of regions from the post-batch
	// table, and nothing outside the union changed.
	cones := make(map[int][]rule.Cone)
	var aclOps []aclOp
	for _, dl := range deltas {
		spec := &c.Dataset.Boxes[dl.Box]
		switch dl.Op {
		case OpAddFwdRule:
			cones[dl.Box] = append(cones[dl.Box], spec.Fwd.AddWithCone(dl.Rule))
		case OpRemoveFwdRule:
			if cone, ok := spec.Fwd.RemoveWithCone(dl.Prefix); ok {
				cones[dl.Box] = append(cones[dl.Box], cone)
			}
		case OpSetPortACL:
			if dl.ACL == nil {
				delete(spec.PortACL, dl.Port)
			} else {
				spec.PortACL[dl.Port] = dl.ACL
			}
			aclOps = append(aclOps, aclOp{dl.Box, dl.Port, dl.ACL})
		case OpSetInACL:
			spec.InACL = dl.ACL
			aclOps = append(aclOps, aclOp{dl.Box, -1, dl.ACL})
		}
	}
	if len(cones) == 0 && len(aclOps) == 0 {
		return
	}
	c.Manager.Update(func(tx *aptree.Tx) {
		net := c.rewire(tx, func(box int) *rule.FwdTable { return &c.Dataset.Boxes[box].Fwd }, cones, aclOps)
		tx.SetWiring(&wiring{net: net, rules: c.Dataset.NumRules(), aclRules: c.Dataset.NumACLRules()})
	})
}

// rewire swaps, inside tx, the port predicates of table(box) that changed
// inside each box's cones, then the ACL assignments, and returns the
// transaction's topology rewired to the new IDs (copy-on-write).
func (c *Classifier) rewire(tx *aptree.Tx, table func(box int) *rule.FwdTable, cones map[int][]rule.Cone, aclOps []aclOp) *network.Network {
	old := tx.Wiring().(*wiring).net
	next := nextNet(old)
	boxes := make([]int, 0, len(cones))
	for box := range cones {
		boxes = append(boxes, box)
	}
	sort.Ints(boxes)
	for _, box := range boxes {
		ports := old.Boxes[box].Ports
		pd := predicate.DeltaPortPredicates(tx.DD(), c.Layout, "dstIP", table(box),
			cones[box], len(ports), func(port int) bdd.Ref {
				if id := ports[port].Fwd; id != network.NoPred {
					return tx.Ref(id)
				}
				return bdd.False
			})
		for _, dp := range pd {
			if oldID := ports[dp.Port].Fwd; oldID != network.NoPred {
				tx.Remove(oldID)
			}
			newID := network.NoPred
			if dp.New != bdd.False {
				newID = tx.Add(dp.New)
			}
			ownBox(next, old, box).Ports[dp.Port].Fwd = newID
		}
	}
	for _, op := range aclOps {
		var slot *int32
		if op.port < 0 {
			slot = &ownBox(next, old, op.box).InACL
		} else {
			slot = &ownBox(next, old, op.box).Ports[op.port].OutACL
		}
		newRef := bdd.False
		if op.acl != nil {
			newRef = predicate.ACLPredicate(tx.DD(), c.Layout, op.acl)
		}
		if old := *slot; old != network.NoPred {
			if op.acl != nil && tx.Ref(old) == newRef {
				continue // identical predicate: no structural change
			}
			tx.Remove(old)
		}
		id := network.NoPred
		if op.acl != nil {
			id = tx.Add(newRef)
		}
		*slot = id
	}
	return next
}

// ApplyRuleDeltasSeq is ApplyRuleDeltas for a sequenced firehose: batches
// carry monotonically increasing sequence numbers, and a batch whose seq is
// at or below the last applied one is acknowledged without being applied
// (applied == false), making redelivery after a reconnect or a warm restart
// idempotent. seq 0 means unsequenced and always applies. The cursor check
// and the apply are one step under the writer mutex, and the cursor is
// recorded in checkpoints (see CheckpointSource), so a restored classifier
// resumes rejecting already-applied deltas.
func (c *Classifier) ApplyRuleDeltasSeq(seq uint64, deltas []RuleDelta) (applied bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq != 0 && seq <= c.deltaSeq.Load() {
		return false, nil
	}
	for i, dl := range deltas {
		if err := c.validateDelta(dl); err != nil {
			return false, fmt.Errorf("apclassifier: delta %d: %w", i, err)
		}
	}
	c.applyLocked(deltas)
	if seq != 0 {
		c.deltaSeq.Store(seq)
	}
	return true, nil
}

// DeltaSeq reports the sequence number of the last applied sequenced
// rule-delta batch (0 if none).
func (c *Classifier) DeltaSeq() uint64 { return c.deltaSeq.Load() }
