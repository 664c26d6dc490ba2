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
	max := d.p.MaxLatency()
	if got < time.Duration(0.9*float64(max)) || got > max {
		t.Errorf("far-corner seek = %v, want ≈%v", got, max)
	}
}

func TestSeekTimeSquareRootLaw(t *testing.T) {
	d, _ := New(G3())
	bpc := d.Geometry().Blocks / int64(d.p.Cylinders)
	// Quarter stroke should cost about half of a full stroke (sqrt law),
	// comparing X components net of settle.
	settle := d.p.SettleX
	quarter := d.SeekTime(bpc*int64(d.p.Cylinders/4)) - settle
	full := d.SeekTime(bpc*int64(d.p.Cylinders-1)) - settle
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
	if d.Served() != 10 || d.BusyTime() <= 0 || d.TotalSeekTime() >= d.BusyTime() {
		t.Errorf("Served = %d, BusyTime = %v, TotalSeekTime = %v", d.Served(), d.BusyTime(), d.TotalSeekTime())
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
	max := d.p.MaxLatency()
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
	bpc := d.Geometry().Blocks / int64(d.p.Cylinders)
	f := func(a, b uint16) bool {
		ca := int(a) % d.p.Cylinders
		cb := int(b) % d.p.Cylinders
		if ca > cb {
			ca, cb = cb, ca
		}
		ta := d.SeekTime(int64(ca) * bpc) // SeekTime leaves the sled at block 0
		tb := d.SeekTime(int64(cb) * bpc)
		return ta <= tb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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
	spares := d.p.ActiveTips / 10
	if err := d.FailTips(spares); err != nil {
		t.Fatal(err)
	}
	if d.effectiveRate() != full {
		t.Errorf("rate derated within spare pool: %v", d.effectiveRate())
	}

	// Beyond the spares, the rate derates proportionally.
	if err := d.FailTips(spares + d.p.ActiveTips/4); err != nil {
		t.Fatal(err)
	}
	derated := d.effectiveRate()
	want := float64(full) * 0.75
	if math.Abs(float64(derated)-want) > 0.01*want {
		t.Errorf("derated rate = %v, want ≈%v", derated, units.ByteRate(want))
	}
	// Transfers actually slow down, and clearing the failures on the same
	// sled brings the healthy rate and transfer time back.
	req := device.Request{Op: device.Read, Block: 0, Blocks: 2000}
	c, err := d.Service(0, req)
	if err != nil {
		t.Fatal(err)
	}
	x1 := d.BusyTime() - d.TotalSeekTime()
	if err := d.FailTips(0); err != nil {
		t.Fatal(err)
	}
	if d.FailedTips() != 0 {
		t.Errorf("FailedTips = %d after reset to 0", d.FailedTips())
	}
	if d.effectiveRate() != full {
		t.Errorf("rate after FailTips(0) = %v, want healthy %v", d.effectiveRate(), full)
	}
	if _, err := d.Service(c.Finish, req); err != nil {
		t.Fatal(err)
	}
	x2 := d.BusyTime() - d.TotalSeekTime() - x1
	if x1 <= x2 {
		t.Errorf("derated transfer %v not slower than healthy %v", x1, x2)
	}
	h, _ := New(G3())
	if _, err := h.Service(0, req); err != nil {
		t.Fatal(err)
	}
	if fresh := h.BusyTime() - h.TotalSeekTime(); x2 != fresh {
		t.Errorf("transfer after FailTips(0) = %v, want a healthy sled's %v", x2, fresh)
	}
	// Bounds.
	if err := d.FailTips(-1); err == nil {
		t.Error("negative failures accepted")
	}
	if err := d.FailTips(d.p.ActiveTips + 1); err == nil {
		t.Error("failing more tips than exist accepted")
	}
}
