package bank

import (
	"fmt"
	"testing"
	"time"

	"memstream/internal/allocgate"
	"memstream/internal/device"
	"memstream/internal/sim"
	"memstream/internal/tier"
	"memstream/internal/units"
)

// refStripedRead is StripedBank.Read as it was before lock-step devices
// were served once: every device serves the request in turn, and the
// read completes with the slowest.
func refStripedRead(devs []tier.Device, now time.Duration, stream int, block, blocks int64) (device.Completion, error) {
	per := max(blocks/int64(len(devs)), 1)
	rel := block / int64(len(devs))
	if g := devs[0].Geometry(); rel+per > g.Blocks {
		rel = g.Blocks - per
	}
	var last device.Completion
	for i, d := range devs {
		c, err := d.Service(now, device.Request{Op: device.Read, Block: rel, Blocks: per, Stream: stream})
		if err != nil {
			return device.Completion{}, fmt.Errorf("bank: striped read on device %d: %w", i, err)
		}
		if i == 0 || c.Finish > last.Finish {
			last = c
		}
	}
	return last, nil
}

// TestStripedReadMatchesDeviceByDevice runs random read programs on
// striped banks of every sled generation and of a flat tier (which is
// always served device by device), with the devices starting equal,
// diverged, tip-failed or cache-enabled, and with single devices driven
// on their own now and then (as a probe does). The
// bank must return every completion, and leave every device counter,
// exactly as serving each device in turn does.
func TestStripedReadMatchesDeviceByDevice(t *testing.T) {
	type failer interface{ FailTips(int) error }
	starts := []struct {
		name     string
		memsOnly bool
		prep     func(ds []tier.Device) error
	}{
		{"equal", false, func([]tier.Device) error { return nil }},
		{"diverged", false, func(ds []tier.Device) error {
			_, err := ds[1].Service(0, device.Request{Block: ds[1].Geometry().Blocks / 3, Blocks: 64})
			return err
		}},
		{"one-tip-failed", true, func(ds []tier.Device) error { return ds[2].(failer).FailTips(900) }},
		{"all-tips-failed", true, func(ds []tier.Device) error {
			for _, d := range ds {
				if err := d.(failer).FailTips(700); err != nil {
					return err
				}
			}
			return nil
		}},
		{"one-cached", false, func(ds []tier.Device) error {
			return ds[0].(tier.Cacheable).EnableCache(4*units.MB, units.GBPS)
		}},
		{"all-cached", false, func(ds []tier.Device) error {
			for _, d := range ds {
				if err := d.(tier.Cacheable).EnableCache(4*units.MB, units.GBPS); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, name := range []string{"mems-g1", "mems-g2", "mems-g3", "nvm-optane"} {
		for si, st := range starts {
			spec := tier.MustLookup(name)
			if st.memsOnly && spec.MEMS == nil {
				continue
			}
			t.Run(name+"/"+st.name, func(t *testing.T) {
				const k = 3
				got, want := mustBank(t, k, spec), mustBank(t, k, spec)
				if err := st.prep(got); err != nil {
					t.Fatal(err)
				}
				if err := st.prep(want); err != nil {
					t.Fatal(err)
				}
				sb, err := NewStripedBank(got)
				if err != nil {
					t.Fatal(err)
				}
				span := k * got[0].Geometry().Blocks
				rng := sim.NewRNG(uint64(31 + si))
				var now time.Duration
				for i := 0; i < 3000; i++ {
					if i%97 == 50 { // one device driven on its own
						j := rng.Intn(k)
						r := device.Request{Block: int64(rng.Uint64n(uint64(got[j].Geometry().Blocks - 8))), Blocks: 8}
						if i%2 == 0 {
							r.Op = device.Write
						}
						cg, errg := got[j].Service(now, r)
						cw, errw := want[j].Service(now, r)
						if cg != cw || errg != nil || errw != nil {
							t.Fatalf("step %d: lone service diverged: %+v (%v) vs %+v (%v)", i, cg, errg, cw, errw)
						}
					}
					blocks := int64(1 + rng.Intn(3000))
					if i%11 == 0 {
						blocks = int64(1 + rng.Intn(k)) // per rounds up to one block
					}
					block := int64(rng.Uint64n(uint64(span)))
					if i%13 == 0 { // reread a recent extent: cache hits
						block = int64(i%5) * 4096
					}
					c, err := sb.Read(now, i, block, blocks)
					w, werr := refStripedRead(want, now, i, block, blocks)
					if c != w || (err == nil) != (werr == nil) {
						t.Fatalf("step %d (block %d, %d blocks):\n got %+v (%v)\nwant %+v (%v)", i, block, blocks, c, err, w, werr)
					}
					for j := range got {
						g, w := got[j], want[j]
						if g.Served() != w.Served() || g.BusyTime() != w.BusyTime() || g.TotalSeekTime() != w.TotalSeekTime() {
							t.Fatalf("step %d: device %d counters (%d, %v, %v), want (%d, %v, %v)", i, j,
								g.Served(), g.BusyTime(), g.TotalSeekTime(),
								w.Served(), w.BusyTime(), w.TotalSeekTime())
						}
					}
					now = c.Finish + time.Duration(rng.Intn(2))*time.Millisecond
				}
			})
		}
	}
}

func mustBank(t *testing.T, k int, s tier.Spec) []tier.Device {
	t.Helper()
	ds, err := New(k, s)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// zeroAllocBenchmarks is the cache stage's reads: the striped bank's
// lock-step read and the replicated bank's pinned read.
var zeroAllocBenchmarks = []func(*testing.B){BenchmarkStripedRead, BenchmarkReplicatedRead}

// TestHotPathZeroAllocs holds every benchmark in zeroAllocBenchmarks to
// 0 allocs/op over a thousand reads, more than three visits of the 300
// streams.
func TestHotPathZeroAllocs(t *testing.T) { allocgate.Check(t, 1000, zeroAllocBenchmarks...) }

// BenchmarkStripedRead times one lock-step read on a 4-device mems-g3
// striped bank, on the cache stage's request shape: streams spread over
// the pinned image, one IO of 4 × 63 blocks each, visited in order.
func BenchmarkStripedRead(b *testing.B) {
	ds, err := New(4, tier.MustLookup("mems-g3"))
	if err != nil {
		b.Fatal(err)
	}
	sb, err := NewStripedBank(ds)
	if err != nil {
		b.Fatal(err)
	}
	const streams, blocks = 300, 4 * 63
	stride := 4 * ds[0].Geometry().Blocks / streams
	var now time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % streams
		c, err := sb.Read(now, s, int64(s)*stride+int64(i/streams)*blocks, blocks)
		if err != nil {
			b.Fatal(err)
		}
		now = c.Finish
	}
}

// BenchmarkReplicatedRead times one read on a 4-device mems-g3
// replicated bank, each stream pinned to its least-loaded replica, on
// the cache stage's request shape: streams spread over the image, each
// reading on through its stretch of it one IO of 4 × 63 blocks at a
// time, visited in order.
func BenchmarkReplicatedRead(b *testing.B) {
	ds, err := New(4, tier.MustLookup("mems-g3"))
	if err != nil {
		b.Fatal(err)
	}
	rb, err := NewReplicatedBank(ds)
	if err != nil {
		b.Fatal(err)
	}
	const streams, blocks = 300, 4 * 63
	for s := 0; s < streams; s++ {
		if err := rb.Assign(s); err != nil {
			b.Fatal(err)
		}
	}
	stride := (ds[0].Geometry().Blocks - blocks) / streams
	var now time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % streams
		c, err := rb.Read(now, s, int64(s)*stride+int64(i/streams)*blocks%stride, blocks)
		if err != nil {
			b.Fatal(err)
		}
		now = c.Finish
	}
}
