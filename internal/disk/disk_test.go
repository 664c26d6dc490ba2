package disk

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"memstream/internal/device"
	"memstream/internal/sim"
	"memstream/internal/units"
)

func TestParamsValidate(t *testing.T) {
	for _, p := range []Params{FutureDisk(), Atlas10K3()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.RPM = 0 },
		func(p *Params) { p.Capacity = 0 },
		func(p *Params) { p.Heads = 0 },
		func(p *Params) { p.Zones = 0 },
		func(p *Params) { p.InnerRate = p.OuterRate + 1 },
		func(p *Params) { p.AvgSeek = p.SingleTrackSeek },
		func(p *Params) { p.FullStrokeSeek = p.AvgSeek },
	}
	for i, mut := range mutations {
		p := FutureDisk()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestFutureDiskMatchesPaperTable3(t *testing.T) {
	p := FutureDisk()
	if p.RPM != 20000 {
		t.Errorf("RPM = %d, want 20000", p.RPM)
	}
	if p.OuterRate != 300*units.MBPS {
		t.Errorf("max bandwidth = %v, want 300MB/s", p.OuterRate)
	}
	if p.AvgSeek != units.Milliseconds(2.8) {
		t.Errorf("avg seek = %v, want 2.8ms", p.AvgSeek)
	}
	if p.FullStrokeSeek != units.Milliseconds(7.0) {
		t.Errorf("full stroke = %v, want 7ms", p.FullStrokeSeek)
	}
	if p.Capacity != 1000*units.GB {
		t.Errorf("capacity = %v, want 1TB", p.Capacity)
	}
	if p.CostPerGB != 0.2 {
		t.Errorf("cost = $%v/GB, want $0.2/GB", p.CostPerGB)
	}
}

func TestRotationPeriod(t *testing.T) {
	p := FutureDisk()
	if got := p.RotationPeriod(); got != 3*time.Millisecond {
		t.Errorf("20k RPM period = %v, want 3ms", got)
	}
	if got := p.AvgRotLatency(); got != 1500*time.Microsecond {
		t.Errorf("avg rotational latency = %v, want 1.5ms", got)
	}
}

func TestAvgAccess(t *testing.T) {
	p := FutureDisk()
	// L̄_disk = 2.8ms seek + 1.5ms rotation = 4.3ms.
	if got := p.AvgAccess(); got != units.Milliseconds(4.3) {
		t.Errorf("AvgAccess = %v, want 4.3ms", got)
	}
	if p.MaxAccess() != 10*time.Millisecond {
		t.Errorf("MaxAccess = %v, want 10ms", p.MaxAccess())
	}
}

func TestSeekCurveCalibration(t *testing.T) {
	// A uniformly random seek (measured over many random cylinder pairs)
	// should average close to the published AvgSeek.
	d, err := New(FutureDisk())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	var sum float64
	var n int
	p := d.Params()
	for i := 0; i < 50000; i++ {
		a, b := rng.Intn(d.Cylinders()), rng.Intn(d.Cylinders())
		dist := a - b
		if dist < 0 {
			dist = -dist
		}
		if dist == 0 {
			continue
		}
		sum += p.seekTimeNorm(float64(dist)/float64(d.Cylinders()-1), d.exponent).Seconds()
		n++
	}
	got := units.Seconds(sum / float64(n))
	if diff := got - p.AvgSeek; diff < -200*time.Microsecond || diff > 200*time.Microsecond {
		t.Errorf("measured avg seek %v, want ≈%v", got, p.AvgSeek)
	}
}

func TestSeekCurveAnchors(t *testing.T) {
	d, _ := New(FutureDisk())
	p := d.Params()
	if got := p.seekTimeNorm(0, d.exponent); got != 0 {
		t.Errorf("zero-distance seek = %v", got)
	}
	one := p.seekTimeNorm(1.0/float64(d.Cylinders()-1), d.exponent)
	if one < p.SingleTrackSeek || one > p.SingleTrackSeek+50*time.Microsecond {
		t.Errorf("single-track seek = %v, want ≈%v", one, p.SingleTrackSeek)
	}
	if got := p.seekTimeNorm(1, d.exponent); got != p.FullStrokeSeek {
		t.Errorf("full-stroke seek = %v, want %v", got, p.FullStrokeSeek)
	}
}

func TestGeometryRealizesCapacity(t *testing.T) {
	for _, params := range []Params{FutureDisk(), Atlas10K3()} {
		d, err := New(params)
		if err != nil {
			t.Fatal(err)
		}
		got := d.Geometry().Capacity()
		if math.Abs(float64(got-params.Capacity)) > 0.01*float64(params.Capacity) {
			t.Errorf("%s: realized capacity %v, want ≈%v", params.Name, got, params.Capacity)
		}
	}
}

func TestZonesOuterFasterThanInner(t *testing.T) {
	d, _ := New(FutureDisk())
	first := d.zoneOf(0).rate
	last := d.zoneOf(d.Geometry().Blocks - 1).rate
	if first != 300*units.MBPS {
		t.Errorf("outer zone rate = %v, want 300MB/s", first)
	}
	if last != 170*units.MBPS {
		t.Errorf("inner zone rate = %v, want 170MB/s", last)
	}
	if first <= last {
		t.Error("outer zone not faster than inner")
	}
}

func TestLocateRoundTrip(t *testing.T) {
	d, _ := New(FutureDisk())
	// Walking LBNs within one zone advances sector, then head, then cylinder.
	c0, h0, s0 := locate(d, 0)
	if c0 != 0 || h0 != 0 || s0 != 0 {
		t.Fatalf("locate(0) = (%d,%d,%d)", c0, h0, s0)
	}
	z := d.zones[0]
	_, h1, s1 := locate(d, z.sectors) // first sector of second track
	if h1 != 1 || s1 != 0 {
		t.Errorf("locate(track 1) = head %d sector %d, want 1, 0", h1, s1)
	}
	c2, _, _ := locate(d, z.sectors*int64(d.Params().Heads))
	if c2 != 1 {
		t.Errorf("locate(cyl 1) = cylinder %d, want 1", c2)
	}
}

func TestServiceSequentialStreamsAtZoneRate(t *testing.T) {
	d, _ := New(FutureDisk())
	// Read 30MB sequentially from the outer zone in 1MB chunks; aggregate
	// throughput should be close to 300MB/s (within switch overheads).
	const chunk = 2048 // sectors ≈ 1MiB
	var now time.Duration
	var bytes units.Bytes
	for i := int64(0); i < 30; i++ {
		c, err := d.Service(now, device.Request{Block: i * chunk, Blocks: chunk})
		if err != nil {
			t.Fatal(err)
		}
		now = c.Finish
		bytes += units.Bytes(chunk) * 512
	}
	rate := units.RateOf(bytes, now)
	if float64(rate) < 0.85*float64(300*units.MBPS) {
		t.Errorf("sequential throughput = %v, want ≈300MB/s", rate)
	}
}

// positioning is d's cumulative seek plus rotational wait; a request's
// positioning is how much it grows across the request's service.
func positioning(d *Device) time.Duration { return d.TotalSeekTime() + d.rotTime }

// transfer is d's cumulative media transfer time: a disk books
// positioning and transfer together, so it is busy − positioning.
func transfer(d *Device) time.Duration { return d.BusyTime() - positioning(d) }

func TestServiceRandomPaysPositioning(t *testing.T) {
	d, _ := New(FutureDisk())
	rng := sim.NewRNG(2)
	var pos float64
	const n = 2000
	now := time.Duration(0)
	for i := 0; i < n; i++ {
		lbn := int64(rng.Float64() * float64(d.Geometry().Blocks-64))
		before := positioning(d)
		c, err := d.Service(now, device.Request{Block: lbn, Blocks: 8})
		if err != nil {
			t.Fatal(err)
		}
		pos += (positioning(d) - before).Seconds()
		now = c.Finish
	}
	avg := units.Seconds(pos / n)
	want := d.Params().AvgAccess()
	// Random 4KB accesses should average near seek+rotation; allow 25%.
	if math.Abs(float64(avg-want)) > 0.25*float64(want) {
		t.Errorf("avg random positioning = %v, want ≈%v", avg, want)
	}
}

func TestServiceRejectsBadRequests(t *testing.T) {
	d, _ := New(FutureDisk())
	if _, err := d.Service(0, device.Request{Block: d.Geometry().Blocks, Blocks: 1}); err == nil {
		t.Error("out-of-range accepted")
	}
	if _, err := d.Service(0, device.Request{Block: 0, Blocks: 0}); err == nil {
		t.Error("zero-length accepted")
	}
}

func TestServiceAccountingAndReset(t *testing.T) {
	d, _ := New(FutureDisk())
	var now time.Duration
	for i := 0; i < 5; i++ {
		c, err := d.Service(now, device.Request{Block: int64(i) * 1e6, Blocks: 128})
		if err != nil {
			t.Fatal(err)
		}
		now = c.Finish
	}
	if d.Served() != 5 {
		t.Errorf("Served = %d", d.Served())
	}
	d.Reset()
	if d.Served() != 0 || d.BusyTime() != 0 {
		t.Error("Reset did not clear stats")
	}
}

func TestRotationalPositionTracking(t *testing.T) {
	d, _ := New(FutureDisk())
	// Two reads of the same sector back-to-back: the second must wait
	// almost a full revolution (deterministic, not random).
	c1, err := d.Service(0, device.Request{Block: 1000, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := positioning(d)
	if _, err := d.Service(c1.Finish, device.Request{Block: 1000, Blocks: 1}); err != nil {
		t.Fatal(err)
	}
	period := d.Params().RotationPeriod()
	if wait := positioning(d) - before; wait < time.Duration(0.9*float64(period)) {
		t.Errorf("re-read rotational wait = %v, want ≈%v", wait, period)
	}
}

// Property: service positioning never exceeds MaxAccess and transfer time
// is positive.
func TestServiceBoundsProperty(t *testing.T) {
	d, _ := New(FutureDisk())
	max := d.Params().MaxAccess() + d.Params().HeadSwitch
	now := time.Duration(0)
	f := func(a uint32, n uint8) bool {
		blocks := int64(n%64) + 1
		lbn := int64(a) % (d.Geometry().Blocks - blocks)
		pos0, xfer0 := positioning(d), transfer(d)
		c, err := d.Service(now, device.Request{Block: lbn, Blocks: blocks})
		if err != nil {
			return false
		}
		now = c.Finish
		pos := positioning(d) - pos0
		return pos >= 0 && pos <= max && transfer(d) > xfer0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSchedulerCLookBeatsFCFS(t *testing.T) {
	run := func(policy Policy) time.Duration {
		d, _ := New(FutureDisk())
		s := NewScheduler(d, policy)
		rng := sim.NewRNG(3)
		for i := 0; i < 50; i++ {
			lbn := int64(rng.Float64() * float64(d.Geometry().Blocks-256))
			s.Enqueue(device.Request{Block: lbn, Blocks: 128, Stream: i})
		}
		cs, err := s.DrainAll(0)
		if err != nil {
			t.Fatal(err)
		}
		return cs[len(cs)-1].Finish
	}
	fcfs, clook := run(FCFS), run(CLook)
	if clook >= fcfs {
		t.Errorf("C-LOOK (%v) not faster than FCFS (%v)", clook, fcfs)
	}
}

func TestSchedulerSSTFServesAll(t *testing.T) {
	d, _ := New(FutureDisk())
	s := NewScheduler(d, SSTF)
	n := 25
	for i := 0; i < n; i++ {
		s.Enqueue(device.Request{Block: int64(i*997%100) * 1e7, Blocks: 8, Stream: i})
	}
	cs, err := s.DrainAll(0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range cs {
		seen[c.Stream] = true
	}
	if len(seen) != n {
		t.Errorf("SSTF starved requests: served %d of %d", len(seen), n)
	}
}

func TestSchedulerFCFSPreservesOrder(t *testing.T) {
	d, _ := New(FutureDisk())
	s := NewScheduler(d, FCFS)
	for i := 0; i < 5; i++ {
		s.Enqueue(device.Request{Block: int64(4-i) * 1e6, Blocks: 8, Stream: i})
	}
	cs, _ := s.DrainAll(0)
	for i, c := range cs {
		if c.Stream != i {
			t.Fatalf("FCFS order violated: %v", cs)
		}
	}
}

func TestElevatorReducesAvgSeekBelowRandom(t *testing.T) {
	// The paper's L̄_disk is "scheduler-determined"; with C-LOOK over a
	// batch of N requests the per-request seek should be well under the
	// random-access average.
	d, _ := New(FutureDisk())
	s := NewScheduler(d, CLook)
	rng := sim.NewRNG(4)
	n := 100
	for i := 0; i < n; i++ {
		lbn := int64(rng.Float64() * float64(d.Geometry().Blocks-256))
		s.Enqueue(device.Request{Block: lbn, Blocks: 8})
	}
	if _, err := s.DrainAll(0); err != nil {
		t.Fatal(err)
	}
	avg := positioning(d) / time.Duration(n)
	if avg >= d.Params().AvgAccess() {
		t.Errorf("elevator avg positioning %v not below random-access %v", avg, d.Params().AvgAccess())
	}
}

func TestPolicyString(t *testing.T) {
	if FCFS.String() != "fcfs" || SSTF.String() != "sstf" || CLook.String() != "c-look" {
		t.Error("policy names wrong")
	}
}

func TestOnControllerCache(t *testing.T) {
	d, _ := New(FutureDisk())
	if err := d.EnableCache(8*units.MB, 600*units.MBPS); err != nil {
		t.Fatal(err)
	}
	miss, err := d.Service(0, device.Request{Op: device.Read, Block: 5e6, Blocks: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Seek elsewhere, then re-read the cached extent.
	if _, err := d.Service(miss.Finish, device.Request{Op: device.Read, Block: 0, Blocks: 8}); err != nil {
		t.Fatal(err)
	}
	before := positioning(d)
	hitStart := miss.Finish + time.Second
	hit, err := d.Service(hitStart, device.Request{Op: device.Read, Block: 5e6, Blocks: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if pos := positioning(d) - before; pos != 0 || hit.Finish-hitStart >= miss.Finish {
		t.Errorf("hit pos=%v time=%v vs miss %v", pos, hit.Finish-hitStart, miss.Finish)
	}
	if d.Cache().HitRatio() <= 0 {
		t.Error("no hits recorded")
	}
}
