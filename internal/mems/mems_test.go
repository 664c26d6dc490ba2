package mems

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"memstream/internal/device"
	"memstream/internal/units"
)

func TestGenerationsValidate(t *testing.T) {
	for _, p := range []Params{G1(), G2(), G3()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestG3MatchesPaperTable3(t *testing.T) {
	p := G3()
	if p.Rate != 320*units.MBPS {
		t.Errorf("G3 rate = %v, want 320MB/s", p.Rate)
	}
	if p.Capacity != 10*units.GB {
		t.Errorf("G3 capacity = %v, want 10GB", p.Capacity)
	}
	if p.FullStrokeSeekX != 450*time.Microsecond {
		t.Errorf("G3 full-stroke = %v, want 0.45ms", p.FullStrokeSeekX)
	}
	if p.SettleX != 140*time.Microsecond {
		t.Errorf("G3 settle = %v, want 0.14ms", p.SettleX)
	}
	if p.CostPerGB != 1 || p.CostPerDev != 10 {
		t.Errorf("G3 cost = $%v/GB $%v/dev, want $1/GB $10/dev", p.CostPerGB, p.CostPerDev)
	}
}

func TestMaxLatency(t *testing.T) {
	p := G3()
	want := p.FullStrokeSeekX + p.SettleX // 0.59ms; Y path is shorter
	if got := p.MaxLatency(); got != want {
		t.Errorf("MaxLatency = %v, want %v", got, want)
	}
	// Table 1 predicts 0.4–1 ms access time for 2007 MEMS.
	if got := p.MaxLatency(); got < 400*time.Microsecond || got > time.Millisecond {
		t.Errorf("G3 max latency %v outside paper's 0.4–1ms band", got)
	}
}

func TestAvgLatencyBelowMax(t *testing.T) {
	for _, p := range []Params{G1(), G2(), G3()} {
		avg, max := p.AvgLatency(), p.MaxLatency()
		if avg <= 0 || avg >= max {
			t.Errorf("%s: avg latency %v not in (0, %v)", p.Name, avg, max)
		}
		// Average random positioning should be well under the full stroke.
		if avg > time.Duration(0.9*float64(max)) {
			t.Errorf("%s: avg latency %v implausibly close to max %v", p.Name, avg, max)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.Capacity = 0 },
		func(p *Params) { p.SectorBytes = 0 },
		func(p *Params) { p.Cylinders = 0 },
		func(p *Params) { p.ActiveTips = 0 },
		func(p *Params) { p.Rate = 0 },
		func(p *Params) { p.SettleX = -time.Millisecond },
	}
	for i, mut := range mutations {
		p := G3()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewDeviceGeometry(t *testing.T) {
	d, err := New(G3())
	if err != nil {
		t.Fatal(err)
	}
	g := d.Geometry()
	if g.BlockSize != 512 {
		t.Errorf("block size = %v", g.BlockSize)
	}
	// Capacity is preserved up to cylinder-rounding.
	if math.Abs(float64(g.Capacity()-10*units.GB)) > float64(10*units.MB) {
		t.Errorf("capacity = %v, want ≈10GB", g.Capacity())
	}
}

func TestSeekTimeZeroAtCurrentPosition(t *testing.T) {
	d, _ := New(G3())
	if got := d.SeekTime(0); got != 0 {
		t.Errorf("seek to current position = %v, want 0", got)
	}
}

func TestSeekTimeFullStroke(t *testing.T) {
	d, _ := New(G3())
	// Seeking from block 0 to the far corner costs ≈ full stroke + settle.
	last := d.Geometry().Blocks - 1
	got := d.SeekTime(last)
	max := d.Params().MaxLatency()
	if got < time.Duration(0.9*float64(max)) || got > max {
		t.Errorf("far-corner seek = %v, want ≈%v", got, max)
	}
}

func TestSeekTimeSquareRootLaw(t *testing.T) {
	d, _ := New(G3())
	bpc := d.Geometry().Blocks / int64(d.Params().Cylinders)
	// Quarter stroke should cost about half of a full stroke (sqrt law),
	// comparing X components net of settle.
	settle := d.Params().SettleX
	quarter := d.SeekTime(bpc*int64(d.Params().Cylinders/4)) - settle
	full := d.SeekTime(bpc*int64(d.Params().Cylinders-1)) - settle
	ratio := float64(quarter) / float64(full)
	if math.Abs(ratio-0.5) > 0.1 {
		t.Errorf("quarter/full stroke ratio = %v, want ≈0.5", ratio)
	}
}

func TestServiceTransfersAtRate(t *testing.T) {
	d, _ := New(G3())
	// ~1 MB contiguous from the current position: no seek, pure transfer.
	const blocks = 2000 // 1.024e6 bytes at 512B sectors
	if _, err := d.Service(0, device.Request{Op: device.Read, Block: 0, Blocks: blocks}); err != nil {
		t.Fatal(err)
	}
	wantXfer := (units.Bytes(blocks) * 512).Duration(320 * units.MBPS)
	if xfer := d.BusyTime() - d.TotalSeekTime(); xfer-wantXfer < 0 || xfer-wantXfer > time.Millisecond {
		t.Errorf("transfer = %v, want ≈%v (+cyl crossings)", xfer, wantXfer)
	}
	if pos := d.TotalSeekTime(); pos != 0 {
		t.Errorf("position = %v, want 0", pos)
	}
}

func TestServiceUpdatesSledState(t *testing.T) {
	d, _ := New(G3())
	far := d.Geometry().Blocks / 2
	if _, err := d.Service(0, device.Request{Block: far, Blocks: 8}); err != nil {
		t.Fatal(err)
	}
	// Re-reading right after the previous request ends is nearly free.
	before := d.TotalSeekTime()
	if _, err := d.Service(time.Millisecond, device.Request{Block: far + 8, Blocks: 8}); err != nil {
		t.Fatal(err)
	}
	if pos := d.TotalSeekTime() - before; pos > 100*time.Microsecond {
		t.Errorf("sequential continuation position cost = %v, want tiny", pos)
	}
}

func TestServiceRejectsOutOfRange(t *testing.T) {
	d, _ := New(G3())
	if _, err := d.Service(0, device.Request{Block: d.Geometry().Blocks, Blocks: 1}); err == nil {
		t.Fatal("out-of-range request accepted")
	}
	if _, err := d.Service(0, device.Request{Block: 0, Blocks: 0}); err == nil {
		t.Fatal("empty request accepted")
	}
}

func TestServiceAccounting(t *testing.T) {
	d, _ := New(G3())
	for i := int64(0); i < 10; i++ {
		if _, err := d.Service(0, device.Request{Block: i * 1000, Blocks: 100}); err != nil {
			t.Fatal(err)
		}
	}
	if d.Served() != 10 {
		t.Errorf("Served = %d", d.Served())
	}
	d.Reset()
	if d.Served() != 0 || d.BusyTime() != 0 {
		t.Error("Reset did not clear stats")
	}
}

func TestEffectiveThroughputMatchesFig2Shape(t *testing.T) {
	// Random 1MB IOs at max latency should deliver far less than the media
	// rate; 8MB should deliver most of it (Figure 2 shape).
	p := G3()
	at := func(io units.Bytes) float64 {
		return float64(device.EffectiveThroughput(io, p.Rate, p.MaxLatency())) / float64(p.Rate)
	}
	if u := at(128 * units.KB); u > 0.5 {
		t.Errorf("128KB utilization = %v, want < 0.5", u)
	}
	if u := at(8 * units.MB); u < 0.9 {
		t.Errorf("8MB utilization = %v, want > 0.9", u)
	}
}

func TestModelLatenciesConsistent(t *testing.T) {
	p := G3()
	if p.AvgLatency() >= p.MaxLatency() {
		t.Errorf("avg %v >= max %v", p.AvgLatency(), p.MaxLatency())
	}
	if p.Name != "G3 MEMS" || p.CostPerDev != 10 {
		t.Errorf("model metadata wrong: %+v", p)
	}
}

// Property: every measured service positioning time is bounded by the
// device's published maximum latency.
func TestSeekBoundedProperty(t *testing.T) {
	d, _ := New(G3())
	max := d.Params().MaxLatency()
	f := func(a uint32) bool {
		lbn := int64(a) % d.Geometry().Blocks
		before := d.TotalSeekTime()
		if _, err := d.Service(0, device.Request{Block: lbn, Blocks: 1}); err != nil {
			return false
		}
		return d.TotalSeekTime()-before <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: seek time from a fixed position is monotone in cylinder
// distance (net of the Y component, which we make constant by probing
// track starts).
func TestSeekMonotoneInDistanceProperty(t *testing.T) {
	d, _ := New(G3())
	bpc := d.Geometry().Blocks / int64(d.Params().Cylinders)
	f := func(a, b uint16) bool {
		ca := int(a) % d.Params().Cylinders
		cb := int(b) % d.Params().Cylinders
		if ca > cb {
			ca, cb = cb, ca
		}
		d.Reset()
		ta := d.SeekTime(int64(ca) * bpc)
		d.Reset()
		tb := d.SeekTime(int64(cb) * bpc)
		return ta <= tb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchedulerFCFSOrder(t *testing.T) {
	d, _ := New(G3())
	s := NewScheduler(d, FCFS)
	for i := 0; i < 5; i++ {
		s.Enqueue(device.Request{Block: int64(4-i) * 1e6, Blocks: 8, Stream: i})
	}
	cs, err := s.DrainAll(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cs {
		if c.Stream != i {
			t.Fatalf("FCFS served stream %d at position %d", c.Stream, i)
		}
	}
}

func TestSchedulerSPTFBeatsFCFS(t *testing.T) {
	mk := func(policy Policy) time.Duration {
		d, _ := New(G3())
		s := NewScheduler(d, policy)
		// Scatter requests; SPTF should finish the batch sooner.
		blocks := d.Geometry().Blocks
		for i := 0; i < 40; i++ {
			lbn := (int64(i) * 7919 * 12345) % blocks
			if lbn < 0 {
				lbn += blocks
			}
			s.Enqueue(device.Request{Block: lbn, Blocks: 8})
		}
		cs, err := s.DrainAll(0)
		if err != nil {
			t.Fatal(err)
		}
		return cs[len(cs)-1].Finish
	}
	fcfs, sptf := mk(FCFS), mk(SPTF)
	if sptf >= fcfs {
		t.Errorf("SPTF (%v) not faster than FCFS (%v)", sptf, fcfs)
	}
}

func TestSchedulerElevatorServesAll(t *testing.T) {
	d, _ := New(G3())
	s := NewScheduler(d, Elevator)
	n := 30
	for i := 0; i < n; i++ {
		s.Enqueue(device.Request{Block: int64((i * 997) % 1000 * 10000), Blocks: 4, Stream: i})
	}
	cs, err := s.DrainAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != n {
		t.Fatalf("served %d of %d", len(cs), n)
	}
	seen := make(map[int]bool)
	for _, c := range cs {
		seen[c.Stream] = true
	}
	if len(seen) != n {
		t.Errorf("elevator dropped requests: %d unique", len(seen))
	}
}

func TestSchedulerEmptyDispatch(t *testing.T) {
	d, _ := New(G3())
	s := NewScheduler(d, SPTF)
	if _, ok, err := s.Dispatch(0); ok || err != nil {
		t.Fatalf("empty dispatch: ok=%v err=%v", ok, err)
	}
}

// TestSchedulerRejectsOffDeviceRequest checks that a queued request for a
// block off the device fails its dispatch under every policy, SPTF's
// positioning estimate included.
func TestSchedulerRejectsOffDeviceRequest(t *testing.T) {
	for _, pol := range []Policy{FCFS, SPTF, Elevator} {
		d, _ := New(G3())
		s := NewScheduler(d, pol)
		for _, b := range []int64{-1, d.Geometry().Blocks} {
			s.Enqueue(device.Request{Block: b, Blocks: 1})
			if _, ok, err := s.Dispatch(0); ok || err == nil {
				t.Errorf("%v: block %d dispatched: ok=%v err=%v", pol, b, ok, err)
			}
		}
	}
}

func TestPolicyString(t *testing.T) {
	if FCFS.String() != "fcfs" || SPTF.String() != "sptf" || Elevator.String() != "elevator" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should still render")
	}
}

func TestOnDeviceCache(t *testing.T) {
	// Paper §3 assumes MEMS devices include on-device caches like disks'.
	d, _ := New(G3())
	if err := d.EnableCache(16*units.MB, 1*units.GBPS); err != nil {
		t.Fatal(err)
	}
	if err := d.EnableCache(16*units.MB, 0); err == nil {
		t.Fatal("zero interface rate accepted")
	}
	far := d.Geometry().Blocks - 4096
	first, err := d.Service(0, device.Request{Op: device.Read, Block: far, Blocks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	// Move the sled away, then re-read: the cache hit must skip the seek.
	if _, err := d.Service(first.Finish, device.Request{Op: device.Read, Block: 0, Blocks: 8}); err != nil {
		t.Fatal(err)
	}
	before := d.TotalSeekTime()
	hitStart := first.Finish + time.Second
	hit, err := d.Service(hitStart, device.Request{Op: device.Read, Block: far, Blocks: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if pos := d.TotalSeekTime() - before; pos != 0 {
		t.Errorf("cache hit paid positioning %v", pos)
	}
	if hit.Finish-hitStart >= first.Finish {
		t.Errorf("hit (%v) not faster than miss (%v)", hit.Finish-hitStart, first.Finish)
	}
	if d.Cache().Hits != 1 {
		t.Errorf("cache hits = %d", d.Cache().Hits)
	}
	// A write to the cached range invalidates it.
	if _, err := d.Service(hit.Finish, device.Request{Op: device.Write, Block: far + 100, Blocks: 8}); err != nil {
		t.Fatal(err)
	}
	before = d.TotalSeekTime()
	if _, err := d.Service(hit.Finish+time.Second, device.Request{Op: device.Read, Block: far, Blocks: 2048}); err != nil {
		t.Fatal(err)
	}
	if d.TotalSeekTime() == before {
		t.Error("invalidated range still served from cache")
	}
}

func TestTipSparing(t *testing.T) {
	d, _ := New(G3())
	full := d.effectiveRate()

	// Failures within the ~10% spare pool cost nothing.
	spares := d.Params().ActiveTips / 10
	if err := d.FailTips(spares); err != nil {
		t.Fatal(err)
	}
	if d.effectiveRate() != full {
		t.Errorf("rate derated within spare pool: %v", d.effectiveRate())
	}

	// Beyond the spares, the rate derates proportionally.
	if err := d.FailTips(spares + d.Params().ActiveTips/4); err != nil {
		t.Fatal(err)
	}
	derated := d.effectiveRate()
	want := float64(full) * 0.75
	if math.Abs(float64(derated)-want) > 0.01*want {
		t.Errorf("derated rate = %v, want ≈%v", derated, units.ByteRate(want))
	}
	// Transfers actually slow down.
	if _, err := d.Service(0, device.Request{Op: device.Read, Block: 0, Blocks: 2000}); err != nil {
		t.Fatal(err)
	}
	x1 := d.BusyTime() - d.TotalSeekTime()
	if err := d.FailTips(0); err != nil {
		t.Fatal(err)
	}
	d.Reset()
	if _, err := d.Service(0, device.Request{Op: device.Read, Block: 0, Blocks: 2000}); err != nil {
		t.Fatal(err)
	}
	if x2 := d.BusyTime() - d.TotalSeekTime(); x1 <= x2 {
		t.Errorf("derated transfer %v not slower than healthy %v", x1, x2)
	}
	if d.FailedTips() != 0 {
		t.Errorf("FailedTips = %d after reset to 0", d.FailedTips())
	}
	// Bounds.
	if err := d.FailTips(-1); err == nil {
		t.Error("negative failures accepted")
	}
	if err := d.FailTips(d.Params().ActiveTips + 1); err == nil {
		t.Error("failing more tips than exist accepted")
	}
}
