package apclassifier

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"apclassifier/internal/netgen"
	"apclassifier/internal/rule"
)

// TestWhatIfNeverVisibleToReaders runs what-if previews of a rule that
// blackholes a delivered flow while readers probe that very flow through
// every query path. The preview must answer from a private fork: no
// reader may ever observe the hypothetical drop, no epoch may be
// published, and the dataset's tables must be identical afterwards.
func TestWhatIfNeverVisibleToReaders(t *testing.T) {
	ds := netgen.Internet2Like(netgen.Config{Seed: 15, RuleScale: 0.01})
	c, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	var probe FlowProbe
	for {
		f := ds.RandomFields(rng)
		ing := rng.Intn(len(ds.Boxes))
		if c.Behavior(ing, ds.PacketFromFields(f)).Delivered("") {
			probe = FlowProbe{Ingress: ing, Fields: f}
			break
		}
	}
	blackhole := rule.FwdRule{Prefix: rule.P(probe.Fields.Dst, 32), Port: rule.Drop}
	tables := make([][]rule.FwdRule, len(ds.Boxes))
	for i := range ds.Boxes {
		tables[i] = slices.Clone(ds.Boxes[i].Fwd.Rules)
	}
	published := c.Manager.Snapshot()
	pkt := ds.PacketFromFields(probe.Fields)

	stop := make(chan struct{})
	var seen atomic.Int64 // reader answers that lost the delivery
	var wg sync.WaitGroup
	readers := []func(buf *BatchBuffer) bool{
		func(*BatchBuffer) bool { return c.Behavior(probe.Ingress, pkt).Delivered("") },
		func(*BatchBuffer) bool { return c.Snapshot().Behavior(probe.Ingress, pkt).Delivered("") },
		func(buf *BatchBuffer) bool {
			return c.BehaviorBatch(buf, []int{probe.Ingress}, [][]byte{pkt})[0].Delivered("")
		},
	}
	for _, read := range readers {
		wg.Add(1)
		go func(read func(*BatchBuffer) bool) {
			defer wg.Done()
			buf := c.NewBatchBuffer()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !read(buf) {
					seen.Add(1)
				}
			}
		}(read)
	}
	for i := 0; i < 50; i++ {
		changes := c.WhatIfFwdRule(probe.Ingress, blackhole, []FlowProbe{probe})
		if len(changes) != 1 || !changes[0].DeliveryChange || changes[0].After.Delivered("") {
			close(stop)
			wg.Wait()
			t.Fatalf("preview %d: want the probe's delivery lost, got %d changes", i, len(changes))
		}
	}
	close(stop)
	wg.Wait()

	if n := seen.Load(); n > 0 {
		t.Fatalf("%d reader answers observed the hypothetical blackhole", n)
	}
	if c.Manager.Snapshot() != published {
		t.Fatal("a what-if preview published an epoch")
	}
	for i := range ds.Boxes {
		if !slices.Equal(tables[i], ds.Boxes[i].Fwd.Rules) {
			t.Fatalf("a what-if preview changed box %d's table", i)
		}
	}
}
