package apclassifier

import (
	"fmt"

	"apclassifier/internal/checkpoint"
)

// This file is the facade's warm-restart surface: capturing a running
// classifier into a checkpoint.Source, and rebuilding a Classifier from
// a decoded checkpoint without touching raw rules. The expensive work a
// cold New performs — predicate conversion, atomic-predicate
// computation, AP Tree construction — is exactly what the checkpoint
// already holds, so NewFromRestored only rewires the topology around
// the restored manager.

// CheckpointSource captures the classifier's published epoch plus the
// dataset and topology wiring into an encodable Source. Epoch, rule-table
// copy and delta cursor are taken together under the writer mutex, so
// they describe one state; queries never wait.
func (c *Classifier) CheckpointSource() *checkpoint.Source {
	c.mu.Lock()
	s := c.Manager.Snapshot()
	ds := c.Dataset.Clone()
	seq := c.deltaSeq.Load()
	c.mu.Unlock()
	net := wiringOf(s).net
	wiring := make([]checkpoint.BoxWiring, len(net.Boxes))
	for b, box := range net.Boxes {
		w := &wiring[b]
		w.InACL, w.Fwd, w.OutACL = box.InACL, make([]int32, len(box.Ports)), make([]int32, len(box.Ports))
		for p, port := range box.Ports {
			w.Fwd[p], w.OutACL[p] = port.Fwd, port.OutACL
		}
	}
	return &checkpoint.Source{
		Snap:     s,
		Dataset:  ds,
		Method:   c.Manager.Method(),
		Wiring:   wiring,
		DeltaSeq: seq,
	}
}

// NewFromRestored assembles a Classifier around a decoded checkpoint:
// the restored manager already answers stage 1, so all that remains is
// wiring the checkpointed predicate IDs into the dataset's topology. No
// predicate is converted, no atom computed, no tree built — that
// asymmetry is the point of warm restart.
func NewFromRestored(res *checkpoint.Restored) (*Classifier, error) {
	ds := res.Dataset
	if len(res.Wiring) != len(ds.Boxes) {
		return nil, fmt.Errorf("apclassifier: checkpoint wires %d boxes, dataset has %d", len(res.Wiring), len(ds.Boxes))
	}
	// Per-box port counts were checked against the dataset by the decoder.
	c := &Classifier{Layout: ds.Layout, Manager: res.Manager, Dataset: ds}
	c.wire(res.Wiring)
	// Resume the firehose cursor: sequenced /rules/batch deliveries the
	// checkpointed classifier already applied stay acknowledged-only.
	c.deltaSeq.Store(res.DeltaSeq)
	return c, nil
}

// RestoreFile is the one-call warm restart: decode a checkpoint file
// and assemble the classifier around it.
func RestoreFile(path string) (*Classifier, error) {
	res, err := checkpoint.RestoreFile(path)
	if err != nil {
		return nil, err
	}
	return NewFromRestored(res)
}

// RestoreDir warm-restarts from the newest intact checkpoint in a
// managed directory, falling back past corrupt entries.
func RestoreDir(dir *checkpoint.Dir) (*Classifier, error) {
	res, err := dir.Restore()
	if err != nil {
		return nil, err
	}
	return NewFromRestored(res)
}
