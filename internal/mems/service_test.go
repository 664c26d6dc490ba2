package mems

import (
	"math"
	"sync"
	"testing"
	"time"

	"memstream/internal/allocgate"
	"memstream/internal/device"
	"memstream/internal/sim"
	"memstream/internal/units"
)

// refSled is the sled arithmetic Device.Service used before a request was
// resolved to one (cylinder, Y offset) pair: Cylinder and the Y fraction
// computed independently for the seek, for the transfer's first and last
// cylinder, and again for the end state — a divide or a modulo each time.
// Cache-less devices only.
type refSled struct {
	p    Params
	geom device.Geometry
	bpt  int64

	cyl  int
	ypos float64
	ydir int

	served     uint64
	busy, seek time.Duration
}

func newRefSled(d *Device) *refSled {
	return &refSled{p: d.p, geom: d.geom, bpt: d.blocksPerTrack, ydir: 1}
}

func (s *refSled) cylinder(lbn int64) int { return int(lbn / s.bpt) }

func (s *refSled) yFraction(lbn int64) float64 {
	return float64(lbn%s.bpt) / float64(s.bpt)
}

func (s *refSled) seekTime(lbn int64) time.Duration {
	targetCyl := s.cylinder(lbn)
	targetY := s.yFraction(lbn)
	var tx time.Duration
	if targetCyl != s.cyl {
		frac := math.Abs(float64(targetCyl-s.cyl)) / float64(s.p.Cylinders)
		tx = time.Duration(float64(s.p.FullStrokeSeekX)*sqrtf(frac)) + s.p.SettleX
	}
	dy := targetY - s.ypos
	ty := time.Duration(float64(s.p.FullStrokeSeekY) * sqrtf(math.Abs(dy)))
	if (dy < 0 && s.ydir > 0) || (dy > 0 && s.ydir < 0) {
		ty += s.p.Turnaround
	}
	return max(tx, ty)
}

func (s *refSled) service(now time.Duration, r device.Request, rate units.ByteRate) (device.Completion, error) {
	if err := s.geom.Validate(r); err != nil {
		return device.Completion{}, err
	}
	seek := s.seekTime(r.Block)
	bytes := units.Bytes(r.Blocks) * s.geom.BlockSize
	xfer := bytes.Duration(rate)
	firstCyl := s.cylinder(r.Block)
	lastCyl := s.cylinder(r.Block + r.Blocks - 1)
	if lastCyl > firstCyl {
		xfer += time.Duration(lastCyl-firstCyl) * s.p.SettleX
	}
	end := r.Block + r.Blocks - 1
	s.cyl = s.cylinder(end)
	s.ypos = s.yFraction(end)
	s.ydir = 1
	s.served++
	s.busy += seek + xfer
	s.seek += seek
	return r.Done(now + seek + xfer), nil
}

// TestServiceMatchesThreeCylinderArithmetic pins the single-divmod Service
// to the arithmetic it replaced, on the requests where the shortcut could
// differ — transfers that end exactly on a cylinder's last block, start on
// its first, cross one or many cylinder boundaries, or touch the device's
// last block — and on a random sweep, with tip failures derating the rate
// half-way through.
func TestServiceMatchesThreeCylinderArithmetic(t *testing.T) {
	for _, p := range []Params{G1(), G2(), G3()} {
		t.Run(p.Name, func(t *testing.T) {
			d, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefSled(d)
			bpt, last := d.blocksPerTrack, d.geom.Blocks
			reqs := []device.Request{
				{Block: 0, Blocks: 1},
				{Block: bpt - 1, Blocks: 1},            // a cylinder's last block
				{Block: bpt, Blocks: 1},                // the next one's first
				{Block: bpt - 1, Blocks: 2},            // one block each side
				{Block: 5 * bpt, Blocks: bpt},          // exactly one cylinder
				{Block: 5*bpt + 1, Blocks: bpt},        // one cylinder, misaligned
				{Block: 7*bpt - 10, Blocks: 3*bpt + 5}, // several boundaries
				{Block: last - 1, Blocks: 1},
				{Block: last - bpt - 3, Blocks: bpt + 3},
				{Block: 0, Blocks: 1},        // full stroke back
				{Block: last, Blocks: 1},     // rejected
				{Block: last - 1, Blocks: 2}, // rejected
			}
			rng := sim.NewRNG(13)
			for i := 0; i < 5000; i++ {
				blocks := int64(1 + rng.Intn(400))
				if i%7 == 0 {
					blocks = bpt/2 + int64(rng.Intn(int(2*bpt)))
				}
				r := device.Request{Block: int64(rng.Uint64n(uint64(last - blocks))), Blocks: blocks, Stream: i}
				if i%5 == 0 {
					r.Op = device.Write
				}
				reqs = append(reqs, r)
			}
			var now time.Duration
			for i, r := range reqs {
				if i == len(reqs)/2 {
					if err := d.FailTips(p.ActiveTips / 4); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := d.SeekTime(r.Block%last), ref.seekTime(r.Block%last); got != want {
					t.Fatalf("request %d: SeekTime %v, reference %v", i, got, want)
				}
				c, err := d.Service(now, r)
				w, werr := ref.service(now, r, d.effectiveRate())
				if (err != nil) != (werr != nil) {
					t.Fatalf("request %d %+v: err=%v ref err=%v", i, r, err, werr)
				}
				if c != w {
					t.Fatalf("request %d %+v:\n got %+v\nwant %+v", i, r, c, w)
				}
				if d.cyl != ref.cyl || d.ypos != ref.ypos || d.ydir != ref.ydir {
					t.Fatalf("request %d: sled at (%d, %v, %d), reference (%d, %v, %d)",
						i, d.cyl, d.ypos, d.ydir, ref.cyl, ref.ypos, ref.ydir)
				}
				if d.Served() != ref.served || d.BusyTime() != ref.busy || d.TotalSeekTime() != ref.seek {
					t.Fatalf("request %d: cumulative statistics diverged from the reference", i)
				}
				now = c.Finish + time.Duration(rng.Intn(3))*time.Millisecond
			}
		})
	}
}

// zeroAllocBenchmarks is the sled's Service, which every buffered
// partition's MEMS cycle calls once a stream: its seek and transfer
// resolve through shared tables, never the heap.
var zeroAllocBenchmarks = []func(*testing.B){BenchmarkMEMSService}

// TestHotPathZeroAllocs holds every benchmark in zeroAllocBenchmarks to
// 0 allocs/op over a thousand reads, more than two visits of the ring.
func TestHotPathZeroAllocs(t *testing.T) { allocgate.Check(t, 1000, zeroAllocBenchmarks...) }

// BenchmarkMEMSService times Service on the buffered pipeline's request
// shape: a device's streams visited in ring order, one small read each,
// every ring about seven cylinders from the last.
func BenchmarkMEMSService(b *testing.B) {
	d, err := New(G3())
	if err != nil {
		b.Fatal(err)
	}
	const streams = 375 // 1500 streams over K = 4
	ring := d.geom.Blocks / streams
	reqs := make([]device.Request, streams)
	for i := range reqs {
		reqs[i] = device.Request{Op: device.Read, Block: int64(i) * ring, Blocks: 63, Stream: i}
	}
	var now time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := d.Service(now, reqs[i%streams])
		if err != nil {
			b.Fatal(err)
		}
		now = c.Finish
	}
}

// TestSledTablesMatchClosedForm checks every entry of every registered
// sled's tables against the expression it replaced — the X seek plus
// settle at every cylinder distance, the Y fraction at every offset in a
// cylinder — and checks that devices of one parameter set share one set
// of tables even when built concurrently, as sim.FanOut's workers do.
func TestSledTablesMatchClosedForm(t *testing.T) {
	for _, p := range []Params{G1(), G2(), G3()} {
		devs := make([]*Device, 8)
		var wg sync.WaitGroup
		for i := range devs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d, err := New(p)
				if err != nil {
					panic(err)
				}
				devs[i] = d
			}()
		}
		wg.Wait()
		d := devs[0]
		for _, o := range devs[1:] {
			if o.tab != d.tab {
				t.Fatalf("%s: devices of one parameter set built separate tables", p.Name)
			}
		}
		if len(d.tab.seekX) != p.Cylinders || int64(len(d.tab.yFrac)) != d.blocksPerTrack {
			t.Fatalf("%s: tables of %d and %d entries, want %d and %d", p.Name, len(d.tab.seekX), len(d.tab.yFrac), p.Cylinders, d.blocksPerTrack)
		}
		for dist := 0; dist < p.Cylinders; dist++ {
			var want time.Duration
			if dist != 0 {
				frac := math.Abs(float64(dist)) / float64(p.Cylinders)
				want = time.Duration(float64(p.FullStrokeSeekX)*sqrtf(frac)) + p.SettleX
			}
			if got := d.tab.seekX[dist]; got != want {
				t.Fatalf("%s: X seek at distance %d = %v, closed form %v", p.Name, dist, got, want)
			}
		}
		for off := int64(0); off < d.blocksPerTrack; off++ {
			if got, want := d.tab.yFrac[off], float64(off)/float64(d.blocksPerTrack); got != want {
				t.Fatalf("%s: Y fraction at offset %d = %v, closed form %v", p.Name, off, got, want)
			}
		}
	}
}
