package apclassifier

import (
	"math/rand"
	"sync"
	"testing"

	"apclassifier/internal/netgen"
)

// fuzzClassifiers lazily builds one classifier per netgen dataset for the
// differential fuzz harness. Ordering is fixed (fuzz inputs address a
// dataset by index) and construction happens once per process — fuzz
// workers are separate processes, so each pays the build exactly once.
var fuzzClassifiers struct {
	once sync.Once
	cs   []*Classifier
	ds   []*netgen.Dataset
	err  error
}

func fuzzSetup() ([]*Classifier, []*netgen.Dataset, error) {
	fuzzClassifiers.once.Do(func() {
		names := []string{"internet2", "stanford", "multitenant"}
		all := diffDatasets()
		for _, name := range names {
			ds := all[name]
			c, err := New(ds, Options{})
			if err != nil {
				fuzzClassifiers.err = err
				return
			}
			fuzzClassifiers.cs = append(fuzzClassifiers.cs, c)
			fuzzClassifiers.ds = append(fuzzClassifiers.ds, ds)
		}
	})
	return fuzzClassifiers.cs, fuzzClassifiers.ds, fuzzClassifiers.err
}

// TestAPCFlatEnvHatch checks the operator escape hatch: with APC_FLAT=0
// a new classifier publishes pointer-only snapshots and still answers.
func TestAPCFlatEnvHatch(t *testing.T) {
	t.Setenv("APC_FLAT", "0")
	ds := netgen.MultiTenantLike(2, 2, 5)
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Manager.Snapshot().Flat() != nil {
		t.Fatal("APC_FLAT=0 classifier still compiled a flat core")
	}
	rng := rand.New(rand.NewSource(48))
	pkt := ds.PacketFromFields(ds.RandomFields(rng))
	if b := c.Behavior(0, pkt); b == nil {
		t.Fatal("pointer-only classifier failed to answer")
	}
}

// FuzzFlatVsPointer is the differential fuzz harness for the flat
// classify core: arbitrary header bytes (padded or truncated to the
// dataset's layout) plus a fuzzed dataset/ingress choice must classify to
// the identical leaf atom through the compiled flat form and the pointer
// tree, and yield the identical network-wide behavior. The corpus seeds
// with the boundary-header generator, so the fuzzer starts on
// classification edges — prefix first/last addresses, off-by-one
// neighbors, port and proto extremes — and mutates outward from there.
func FuzzFlatVsPointer(f *testing.F) {
	cs, dss, err := fuzzSetup()
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	for di, ds := range dss {
		for _, fl := range boundaryFields(ds, rng, 2) {
			f.Add(uint8(di), uint8(rng.Intn(len(ds.Boxes))), []byte(ds.PacketFromFields(fl)))
		}
	}

	f.Fuzz(func(t *testing.T, dsChoice, ingress uint8, hdr []byte) {
		c := cs[int(dsChoice)%len(cs)]
		ds := dss[int(dsChoice)%len(cs)]
		pkt := c.Layout.NewPacket()
		copy(pkt, hdr) // shorter fuzz input reads as zero-padded header
		in := int(ingress) % len(ds.Boxes)

		s := c.Manager.Snapshot()
		flat := s.Flat()
		if flat == nil {
			t.Fatal("published snapshot carries no flat core")
		}
		want, _ := s.ClassifyPointer(pkt)
		got := flat.Classify(pkt)
		if got != want {
			t.Errorf("dataset %d pkt %x: flat atom %d != pointer atom %d",
				int(dsChoice)%len(cs), pkt, got.AtomID, want.AtomID)
		}
		// Behavior must agree too — checked through the facade's pinned
		// stage-2 path, so a leaf divergence surfaces as the full
		// network-wide consequence, not just an atom ID.
		fs := &Snapshot{s: s}
		bf := fs.BehaviorFrom(in, pkt, got).String()
		bp := fs.BehaviorFrom(in, pkt, want).String()
		if bf != bp {
			t.Errorf("dataset %d pkt %x ingress %d: behaviors diverge:\n flat    %s\n pointer %s",
				int(dsChoice)%len(cs), pkt, in, bf, bp)
		}
	})
}
