package mems

import (
	"testing"
	"time"

	"memstream/internal/device"
	"memstream/internal/units"
)

// layout is what the tests ask of a placement: tier.Layout's one method.
type layout interface {
	Map(stream int, block int64) (int64, error)
}

func TestLayoutConstructorsValidate(t *testing.T) {
	d, _ := New(G3())
	if _, err := NewContiguous(d, 0); err == nil {
		t.Error("contiguous n=0 accepted")
	}
	if _, err := NewInterleaved(d, 0, units.MB); err == nil {
		t.Error("interleaved n=0 accepted")
	}
	if _, err := NewInterleaved(d, 10, 20*units.GB); err == nil {
		t.Error("oversized interleave accepted")
	}
}

func TestLayoutMapBounds(t *testing.T) {
	d, _ := New(G3())
	co, _ := NewContiguous(d, 8)
	il, _ := NewInterleaved(d, 8, 1*units.MB)
	for name, l := range map[string]layout{"contiguous": co, "interleaved": il} {
		if _, err := l.Map(8, 0); err == nil {
			t.Errorf("%s: out-of-range stream accepted", name)
		}
		if _, err := l.Map(-1, 0); err == nil {
			t.Errorf("%s: negative stream accepted", name)
		}
		blocks := d.Geometry().Blocks
		for s := 0; s < 8; s++ {
			for _, b := range []int64{0, 1000, 1 << 20, 1 << 24} {
				lbn, err := l.Map(s, b)
				if err != nil {
					t.Fatalf("%s: Map(%d,%d): %v", name, s, b, err)
				}
				if lbn < 0 || lbn >= blocks {
					t.Fatalf("%s: Map(%d,%d) = %d outside device", name, s, b, lbn)
				}
			}
		}
	}
}

func TestInterleavedDistinctSlots(t *testing.T) {
	d, _ := New(G3())
	const n = 16
	il, _ := NewInterleaved(d, n, 1*units.MB)
	// At equal progress, all streams occupy disjoint chunks of one stripe.
	seen := map[int64]int{}
	for s := 0; s < n; s++ {
		lbn, err := il.Map(s, 4096) // same block offset for everyone
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[lbn]; dup {
			t.Fatalf("streams %d and %d collide at LBN %d", prev, s, lbn)
		}
		seen[lbn] = s
	}
}

// The future-work claim: streaming-aware placement cuts positioning time
// for lock-step round-robin service.
func TestInterleavedBeatsContiguous(t *testing.T) {
	const n = 32
	const ioBytes = 1 * units.MB
	run := func(l layout) time.Duration {
		d, _ := New(G3())
		chunkBlocks := int64(ioBytes / d.Geometry().BlockSize)
		var now time.Duration
		// Ten cycles of one IO per stream, all streams advancing together.
		for cycle := int64(0); cycle < 10; cycle++ {
			for s := 0; s < n; s++ {
				lbn, err := l.Map(s, cycle*chunkBlocks)
				if err != nil {
					t.Fatal(err)
				}
				if lbn+chunkBlocks > d.Geometry().Blocks {
					lbn = d.Geometry().Blocks - chunkBlocks
				}
				c, err := d.Service(now, device.Request{
					Op: device.Read, Block: lbn, Blocks: chunkBlocks, Stream: s,
				})
				if err != nil {
					t.Fatal(err)
				}
				now = c.Finish
			}
		}
		return d.TotalSeekTime()
	}
	dd, _ := New(G3())
	co, err := NewContiguous(dd, n)
	if err != nil {
		t.Fatal(err)
	}
	il, err := NewInterleaved(dd, n, ioBytes)
	if err != nil {
		t.Fatal(err)
	}
	contig := run(co)
	inter := run(il)
	if inter >= contig/2 {
		t.Errorf("interleaved positioning %v not well below contiguous %v", inter, contig)
	}
}
