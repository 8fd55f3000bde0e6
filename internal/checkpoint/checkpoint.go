// Package checkpoint gives the classifier durable state: a versioned,
// CRC-guarded binary snapshot of an entire published epoch — BDD node
// store, predicate roots, liveness, the AP Tree with its leaf labels,
// the dataset, and the topology wiring — written atomically and restored
// without touching raw rules.
//
// The paper's asymmetry motivates it (§V): queries are microseconds but
// OAPT construction is seconds-to-minutes, so a control-plane restart
// that recomputes predicates, atoms and the tree from rules leaves the
// service blind exactly when the network most needs answers. A restore
// is a sequential file read plus one hash-consing pass over the saved
// node store — no predicate conversion, no atom computation, no tree
// construction.
//
// File layout (all integers little-endian):
//
//	magic "APCKPT" | format version uint16
//	sections, each: name [4]byte | payloadLen uint32 | payload | crc32(name‖payload)
//
// in fixed order: META (epoch, method, variable and predicate counts,
// atom bound, rule-delta sequence cursor), DSET (the dataset in netgen
// text form), PRED (liveness
// bitset), BDDS (one bdd.Save stream whose roots are every predicate
// slot followed by every leaf atom), TREE (the node structure as an
// indexed record array), TOPO (per-box predicate wiring), END (empty
// terminator). Every section is independently CRC-checked; a flipped
// bit anywhere is detected before any state is built, and the decoder
// additionally re-validates all structural invariants (via bdd.Load and
// aptree.RestoreTree), so a checkpoint that passes Decode yields a
// classifier as well-formed as a freshly built one.
//
// Writes are crash-safe: Dir.Save writes to a temp file, fsyncs, renames
// into place, fsyncs the directory, and only then commits the file to
// the manifest (itself updated with the same protocol). A crash at any
// point leaves the previous manifest and checkpoints intact; Dir.Restore
// walks the manifest newest-first and falls back past corrupt entries.
package checkpoint

import (
	"errors"

	"apclassifier/internal/aptree"
	"apclassifier/internal/netgen"
)

// Typed decode errors; callers match with errors.Is. Payload-level
// failures from bdd.Load (bdd.ErrTruncated etc.) are wrapped in
// ErrMalformed so one sentinel covers "this file cannot become state".
var (
	// ErrBadMagic means the file does not start with the APCKPT marker.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrBadVersion means a format version this build does not speak.
	ErrBadVersion = errors.New("checkpoint: unsupported format version")
	// ErrTruncated means the file ended inside a promised structure.
	ErrTruncated = errors.New("checkpoint: truncated file")
	// ErrCorrupt means a section's CRC32 does not match its payload.
	ErrCorrupt = errors.New("checkpoint: section checksum mismatch")
	// ErrMalformed means a structurally invalid payload: bad section
	// order, out-of-range indices, or an embedded stream that fails its
	// own validation.
	ErrMalformed = errors.New("checkpoint: malformed file")
)

// BoxWiring is one box's predicate-ID wiring: which registered
// predicates implement its forwarding decisions and ACLs. IDs use -1
// (network.NoPred) for "no predicate". The dataset names the boxes and
// their rules; the wiring binds them to the checkpointed registry.
type BoxWiring struct {
	InACL  int32   // ingress ACL predicate, -1 if none
	Fwd    []int32 // per-port forwarding predicate, -1 if the port never forwards
	OutACL []int32 // per-port egress ACL predicate, -1 if none
}

// Source is everything Encode serializes: one immutable epoch plus the
// dataset and wiring that give its predicate IDs meaning. The snapshot
// pins the epoch, so encoding runs concurrently with queries and
// updates; Dataset and Wiring are read directly and must not change
// while a Source is encoded (apclassifier.CheckpointSource hands over
// private copies).
type Source struct {
	Snap    *aptree.Snapshot
	Dataset *netgen.Dataset
	Method  aptree.Method
	Wiring  []BoxWiring
	// DeltaSeq is the last applied rule-delta sequence number (the
	// /rules/batch idempotency cursor); 0 if no sequenced batch was ever
	// applied.
	DeltaSeq uint64
}

// Restored is a decoded checkpoint: a fully published manager (its
// Snapshot answers queries immediately) plus the dataset and wiring
// needed to rebuild the stage-2 topology around it.
type Restored struct {
	Manager *aptree.Manager
	Dataset *netgen.Dataset
	Method  aptree.Method
	Wiring  []BoxWiring
	Epoch   uint64
	// DeltaSeq restores the /rules/batch idempotency cursor: a sequenced
	// batch at or below it was already applied before the checkpoint.
	DeltaSeq uint64
}
