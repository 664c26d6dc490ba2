package disk

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"memstream/internal/allocgate"
	"memstream/internal/device"
	"memstream/internal/sim"
	"memstream/internal/units"
)

// refCLook is the historical C-LOOK: an arrival-ordered queue rescanned on
// every pick, resolving each cylinder afresh. It is the specification the
// sorted sweep must reproduce pick for pick — nearest cylinder at or above
// the head, earliest arrival on ties, else the earliest arrival on the
// lowest pending cylinder.
type refCLook struct {
	dev   *Device
	queue []device.Request
}

func (o *refCLook) dispatch(now time.Duration) (device.Completion, error) {
	cur := o.dev.cyl
	best, bestD := -1, math.MaxInt
	lowest, lowestCyl := 0, math.MaxInt
	for i, r := range o.queue {
		c := o.dev.Cylinder(r.Block)
		if c < lowestCyl {
			lowest, lowestCyl = i, c
		}
		if d := c - cur; d >= 0 && d < bestD {
			best, bestD = i, d
		}
	}
	if best < 0 {
		best = lowest // wrap the sweep
	}
	r := o.queue[best]
	o.queue = append(o.queue[:best], o.queue[best+1:]...)
	return refService(o.dev, now, r)
}

// locate maps an LBN to (cylinder, head, sector) through its zone.
func locate(d *Device, lbn int64) (cyl, head int, sector int64) {
	return d.zoneOf(lbn).locate(lbn)
}

// refService is Device.Service as it was before each request's geometry
// was resolved once — a locate for the start and another for the end, the
// track count from two divisions, the curve evaluated on every seek and the
// platter angle from a modulo on every request — with one fix applied: a
// transfer that runs past its zone's last block is split at each zone
// boundary, each part charged its own zone's sector time and tracks, and
// the end angle taken from the end zone's track length.
func refService(d *Device, now time.Duration, r device.Request) (device.Completion, error) {
	if err := d.geom.Validate(r); err != nil {
		return device.Completion{}, err
	}
	if d.cache != nil {
		if r.Op == device.Write {
			d.cache.Invalidate(r.Block, r.Blocks)
		} else if d.cache.Lookup(r.Block, r.Blocks) {
			xfer := (units.Bytes(r.Blocks) * d.geom.BlockSize).Duration(d.cacheRate)
			d.served++
			d.busy += xfer
			return r.Done(now + xfer), nil
		}
	}
	z := d.zoneOf(r.Block)
	target, head, sector := locate(d, r.Block)

	var seek time.Duration
	if dist := max(target-d.cyl, d.cyl-target); dist > 0 {
		seek = d.p.seekTimeNorm(float64(dist)/float64(max(d.cyls-1, 1)), d.exponent)
	}
	if head != d.head && seek < d.p.HeadSwitch {
		seek = d.p.HeadSwitch
	}

	period := d.p.RotationPeriod()
	delta := float64((now+seek-d.lastTime)%period) / float64(period)
	angle := d.nowAngle + delta
	angle -= math.Floor(angle)
	wait := float64(sector)/float64(z.sectors) - angle
	if wait < 0 {
		wait++
	}
	rot := time.Duration(wait * float64(period))

	// One part per zone the transfer touches; stepping from a zone's last
	// track onto the next zone's first is one head switch and one
	// single-track seek.
	var xfer time.Duration
	heads := int64(d.p.Heads)
	last := r.Block + r.Blocks - 1
	for b := r.Block; b <= last; {
		pz := d.zoneOf(b)
		e := min(last, pz.firstBlock+pz.blocks-1)
		xfer += time.Duration(e-b+1) * (period / time.Duration(pz.sectors))
		firstTrack := (b - pz.firstBlock) / pz.sectors
		lastTrack := (e - pz.firstBlock) / pz.sectors
		if lastTrack > firstTrack {
			xfer += time.Duration(lastTrack-firstTrack) * d.p.HeadSwitch
			if cross := lastTrack/heads - firstTrack/heads; cross > 0 {
				xfer += time.Duration(cross) * d.p.SingleTrackSeek
			}
		}
		if e < last {
			xfer += d.p.HeadSwitch + d.p.SingleTrackSeek
		}
		b = e + 1
	}
	finish := now + seek + rot + xfer

	endCyl, endHead, endSector := locate(d, last)
	d.cyl, d.head = endCyl, endHead
	d.lastTime = finish
	d.nowAngle = float64(endSector+1) / float64(d.zoneOf(last).sectors)
	d.nowAngle -= math.Floor(d.nowAngle)

	d.served++
	d.busy += finish - now
	d.seekTime += seek
	d.rotTime += rot
	if d.cache != nil && r.Op == device.Read {
		d.cache.Insert(r.Block, r.Blocks)
	}
	return r.Done(finish), nil
}

// twinDevices returns two identical drives: one for the code under test,
// one for the reference, so both see the same head history.
func twinDevices(t testing.TB) (got, want *Device) {
	t.Helper()
	got, err := New(FutureDisk())
	if err != nil {
		t.Fatal(err)
	}
	want, _ = New(FutureDisk())
	return got, want
}

// sameHead fails unless both drives ended in the same mechanical state.
func sameHead(t *testing.T, got, want *Device) {
	t.Helper()
	if got.cyl != want.cyl || got.head != want.head || got.nowAngle != want.nowAngle || got.lastTime != want.lastTime {
		t.Fatalf("head state (cyl %d head %d angle %v at %v), want (cyl %d head %d angle %v at %v)",
			got.cyl, got.head, got.nowAngle, got.lastTime, want.cyl, want.head, want.nowAngle, want.lastTime)
	}
}

// randomRequest draws from a mix that exercises every tie-break: a few hot
// cylinders (duplicates), the whole surface, and transfers long enough to
// carry the head several cylinders past where they started.
func randomRequest(rng *sim.RNG, d *Device, stream int) device.Request {
	blocks := int64(1 + rng.Intn(512))
	if rng.Intn(8) == 0 {
		blocks = d.zones[0].perCyl * int64(1+rng.Intn(4)) // endCyl > cyl
	}
	var lbn int64
	if rng.Intn(3) == 0 {
		hot := int64(rng.Intn(6)) * (d.geom.Blocks / 7)
		lbn = hot + int64(rng.Intn(2048)) // same few cylinders again and again
	} else {
		lbn = int64(rng.Uint64n(uint64(d.geom.Blocks)))
	}
	lbn = min(lbn, d.geom.Blocks-blocks)
	return device.Request{Op: device.Read, Block: lbn, Blocks: blocks, Stream: stream}
}

func TestCLookMatchesArrivalOrderScan(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 300, 4096} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			got, want := twinDevices(t)
			s := NewScheduler(got, CLook)
			o := &refCLook{dev: want}
			rng := sim.NewRNG(uint64(n))
			var now time.Duration
			// Several batches back to back on one pooled scheduler: the
			// head starts each one wherever the last left it.
			for batch := 0; batch < 2; batch++ {
				s.Rebind(got, CLook)
				for i := 0; i < n; i++ {
					r := randomRequest(rng, got, i)
					s.Enqueue(r)
					o.queue = append(o.queue, r)
				}
				for k := 0; s.Len() > 0; k++ {
					c, ok, err := s.Dispatch(now)
					w, werr := o.dispatch(now)
					if !ok || err != nil || werr != nil {
						t.Fatalf("batch %d pick %d: ok=%v err=%v ref err=%v", batch, k, ok, err, werr)
					}
					if c != w {
						t.Fatalf("batch %d pick %d:\n got %+v\nwant %+v", batch, k, c, w)
					}
					now = c.Finish
				}
				if len(o.queue) != 0 {
					t.Fatalf("reference still holds %d requests", len(o.queue))
				}
			}
			sameHead(t, got, want)
		})
	}
}

// TestCLookInterleavedMatchesScan drives two schedulers sharing one drive
// through a random mix of enqueues and dispatches. Each dispatch moves the
// head under the other scheduler's sweep cursor, and each enqueue voids a
// built index mid-batch — the two ways the cursor shortcut must notice it
// no longer applies.
func TestCLookInterleavedMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		got, want := twinDevices(t)
		scheds := [2]*Scheduler{NewScheduler(got, CLook), NewScheduler(got, CLook)}
		refs := [2]*refCLook{{dev: want}, {dev: want}}
		rng := sim.NewRNG(seed)
		var now time.Duration
		stream := 0
		const steps = 1200
		for step := 0; step < steps || scheds[0].Len()+scheds[1].Len() > 0; step++ {
			w := rng.Intn(2)
			s, o := scheds[w], refs[w]
			// Frequent enqueue bursts in the first half grow both queues
			// well past the radix threshold; then dispatches dominate and,
			// past the last step, drain them.
			burst := step < steps/2 && rng.Intn(4) == 0 || step < steps && rng.Intn(50) == 0
			if burst {
				for k := 1 + rng.Intn(40); k > 0; k-- {
					r := randomRequest(rng, got, stream)
					stream++
					s.Enqueue(r)
					o.queue = append(o.queue, r)
				}
				continue
			}
			if s.Len() == 0 {
				continue
			}
			c, ok, err := s.Dispatch(now)
			wc, werr := o.dispatch(now)
			if !ok || err != nil || werr != nil {
				t.Fatalf("seed %d step %d: ok=%v err=%v ref err=%v", seed, step, ok, err, werr)
			}
			if c != wc {
				t.Fatalf("seed %d step %d scheduler %d:\n got %+v\nwant %+v", seed, step, w, c, wc)
			}
			now = c.Finish
		}
		sameHead(t, got, want)
	}
}

func TestSSTFMatchesArrivalOrderScan(t *testing.T) {
	got, want := twinDevices(t)
	s := NewScheduler(got, SSTF)
	rng := sim.NewRNG(7)
	var queue []device.Request
	for i := 0; i < 200; i++ {
		r := randomRequest(rng, got, i)
		s.Enqueue(r)
		queue = append(queue, r)
	}
	var now time.Duration
	for k := 0; len(queue) > 0; k++ {
		best, bestD := 0, math.MaxInt
		for i, r := range queue {
			c := want.Cylinder(r.Block)
			if d := max(c-want.cyl, want.cyl-c); d < bestD {
				best, bestD = i, d
			}
		}
		w, _ := refService(want, now, queue[best])
		queue = append(queue[:best], queue[best+1:]...)
		c, ok, err := s.Dispatch(now)
		if !ok || err != nil {
			t.Fatalf("pick %d: ok=%v err=%v", k, ok, err)
		}
		if c != w {
			t.Fatalf("pick %d:\n got %+v\nwant %+v", k, c, w)
		}
		now = c.Finish
	}
}

func TestDrainAllReturnsEveryCompletion(t *testing.T) {
	d, _ := New(FutureDisk())
	s := NewScheduler(d, CLook)
	for i := 0; i < 100; i++ {
		s.Enqueue(device.Request{Block: int64(i*997%100) * 1e7, Blocks: 8, Stream: i})
	}
	cs, err := s.DrainAll(0)
	if err != nil || len(cs) != 100 || cap(cs) != 100 {
		t.Fatalf("DrainAll: len %d cap %d err %v, want 100 completions in one allocation", len(cs), cap(cs), err)
	}
}

// TestServiceMatchesThreeLocateArithmetic pins Service to refService on
// the requests where the shortcuts could differ: transfers that end in the
// next zone (the end LBN's zone is not the start's), transfers ending on a
// zone's or the drive's last LBN, and a random sweep for everything else.
func TestServiceMatchesThreeLocateArithmetic(t *testing.T) {
	got, want := twinDevices(t)
	last := got.geom.Blocks
	var reqs []device.Request
	for zi := 1; zi < len(got.zones); zi++ {
		edge := got.zones[zi].firstBlock
		for _, r := range []device.Request{
			{Block: edge - 100, Blocks: 300},   // crosses into zone zi
			{Block: edge - 64, Blocks: 64},     // ends on the previous zone's last LBN
			{Block: edge, Blocks: 1},           // starts on zone zi's first LBN
			{Block: edge - 1, Blocks: 2},       // one block each side
			{Block: edge - 5000, Blocks: 9000}, // crosses with track and cylinder switches
		} {
			reqs = append(reqs, r)
		}
	}
	reqs = append(reqs,
		device.Request{Block: last - 1, Blocks: 1},
		device.Request{Block: last - 4096, Blocks: 4096},
		device.Request{Block: 0, Blocks: 1},
		device.Request{Block: last - 1, Blocks: 1}, // full stroke back out
	)
	rng := sim.NewRNG(11)
	for i := 0; i < 5000; i++ {
		r := randomRequest(rng, got, i)
		if i%5 == 0 {
			r.Op = device.Write
		}
		reqs = append(reqs, r)
	}
	var now time.Duration
	for i, r := range reqs {
		c, err := got.Service(now, r)
		w, werr := refService(want, now, r)
		if err != nil || werr != nil {
			t.Fatalf("request %d %+v: err=%v ref err=%v", i, r, err, werr)
		}
		if c != w {
			t.Fatalf("request %d:\n got %+v\nwant %+v", i, c, w)
		}
		sameHead(t, got, want)
		if got.TotalSeekTime() != want.TotalSeekTime() || got.rotTime != want.rotTime || got.BusyTime() != want.BusyTime() {
			t.Fatalf("request %d: cumulative statistics diverged from the reference", i)
		}
		now = c.Finish + time.Duration(rng.Intn(3))*time.Millisecond
	}
}

// oneCylinder is the smallest drive New accepts: a single zone whose
// capacity rounds to one cylinder.
func oneCylinder(t *testing.T) *Device {
	t.Helper()
	p := FutureDisk()
	p.Zones = 1
	p.InnerRate = p.OuterRate
	track := int64(float64(p.OuterRate) * p.RotationPeriod().Seconds() / float64(p.SectorBytes))
	p.Capacity = p.SectorBytes * units.Bytes(int64(p.Heads)*track)
	d, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cylinders() != 1 {
		t.Fatalf("built %d cylinders, want 1", d.Cylinders())
	}
	return d
}

func TestSeekTimeOneCylinderDevice(t *testing.T) {
	d := oneCylinder(t)
	last := d.Geometry().Blocks - 1
	if got := d.seekTo(d.Cylinder(last)); got != 0 {
		t.Errorf("seek within the only cylinder = %v, want 0", got)
	}
	c, err := d.Service(0, device.Request{Block: last, Blocks: 1})
	if err != nil || c.Finish <= 0 {
		t.Fatalf("service on a one-cylinder drive: %+v, %v", c, err)
	}
	// An LBN past the end resolves beyond the only cylinder. The distance
	// has no stroke to be normalized by; it must clamp to the full-stroke
	// time, not turn into NaN or a negative duration.
	if got, want := d.seekTo(d.Cylinder(last+1_000_000)), d.Params().FullStrokeSeek; got != want {
		t.Errorf("seek past the last cylinder = %v, want the full stroke %v", got, want)
	}
}

// cycleBatch is one IO cycle's worth of requests: n streams spread over
// the surface, one fixed-size read each — the shape the time-cycle server
// hands the scheduler every cycle.
func cycleBatch(d *Device, n int) []device.Request {
	rng := sim.NewRNG(42)
	batch := make([]device.Request, n)
	for i := range batch {
		lbn := int64(rng.Uint64n(uint64(d.geom.Blocks - 256)))
		batch[i] = device.Request{Op: device.Read, Block: lbn, Blocks: 256, Stream: i}
	}
	return batch
}

// runBatch enqueues and fully dispatches one batch on a re-armed scheduler.
func runBatch(s *Scheduler, d *Device, batch []device.Request, now time.Duration) time.Duration {
	s.Rebind(d, CLook)
	for _, r := range batch {
		s.Enqueue(r)
	}
	for s.Len() > 0 {
		c, _, _ := s.Dispatch(now)
		now = c.Finish
	}
	return now
}

// zeroAllocBenchmarks is the disk layer's share of a scheduling cycle: a
// warmed C-LOOK batch (key build, radix sort, cursor picks, Service) and
// Service alone on a sorted sweep, whose seek memo fills in place.
var zeroAllocBenchmarks = []func(*testing.B){BenchmarkCLookBatch, BenchmarkDiskService}

// TestCLookBatchZeroAllocs holds every benchmark in zeroAllocBenchmarks to
// 0 allocs/op at one iteration: BenchmarkCLookBatch's one iteration runs
// a whole batch, so a single allocation per batch fails it.
func TestCLookBatchZeroAllocs(t *testing.T) { allocgate.Check(t, 1, zeroAllocBenchmarks...) }

// BenchmarkCLookBatch times one request's share of a whole batch: key
// build, sort, pick and the Service call each dispatch makes.
func BenchmarkCLookBatch(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, _ := New(FutureDisk())
			batch := cycleBatch(d, n)
			s := NewScheduler(d, CLook)
			now := runBatch(s, d, batch, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += n {
				now = runBatch(s, d, batch, now)
			}
		})
	}
}

// BenchmarkDiskService times the service-time model alone on a sorted
// sweep, the order C-LOOK presents requests in.
func BenchmarkDiskService(b *testing.B) {
	d, _ := New(FutureDisk())
	batch := cycleBatch(d, 4096)
	slices.SortFunc(batch, func(x, y device.Request) int { return cmp.Compare(x.Block, y.Block) })
	var now time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := d.Service(now, batch[i%len(batch)])
		now = c.Finish
	}
}
