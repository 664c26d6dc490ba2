package device

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"memstream/internal/units"
)

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatalf("Op strings wrong: %q %q", Read, Write)
	}
}

func TestGeometryCapacity(t *testing.T) {
	g := Geometry{BlockSize: 512, Blocks: 2e6}
	if got := g.Capacity(); got != 1.024*units.GB {
		t.Errorf("Capacity = %v, want 1.024GB", got)
	}
}

func TestGeometryValidate(t *testing.T) {
	g := Geometry{BlockSize: 512, Blocks: 100}
	ok := Request{Op: Read, Block: 0, Blocks: 100}
	if err := g.Validate(ok); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	for _, r := range []Request{
		{Block: 0, Blocks: 0},
		{Block: 0, Blocks: -1},
		{Block: -1, Blocks: 1},
		{Block: 50, Blocks: 51},
		{Block: 100, Blocks: 1},
	} {
		if err := g.Validate(r); err == nil {
			t.Errorf("invalid request %+v accepted", r)
		}
	}
}

// TestGeometryValidateOverflowingEnd covers requests whose end,
// Block + Blocks, wraps past math.MaxInt64: they lie outside every
// device, however large.
func TestGeometryValidateOverflowingEnd(t *testing.T) {
	g := Geometry{BlockSize: 512, Blocks: 1 << 62}
	for _, tc := range []struct {
		r  Request
		ok bool
	}{
		{Request{Block: math.MaxInt64, Blocks: 1}, false},
		{Request{Block: 1 << 62, Blocks: 1 << 62}, false},
		{Request{Block: 1, Blocks: math.MaxInt64}, false},
		{Request{Block: 0, Blocks: 1 << 62}, true},
		{Request{Block: 1<<62 - 1, Blocks: 1}, true},
		{Request{Block: 1 << 61, Blocks: 1<<61 + 1}, false},
	} {
		if err := g.Validate(tc.r); (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.r, err, tc.ok)
		}
	}
}

func TestEffectiveThroughputLimits(t *testing.T) {
	rate := 300 * units.MBPS
	lat := 4 * time.Millisecond
	// Tiny IOs are dominated by latency.
	small := EffectiveThroughput(4*units.KB, rate, lat)
	if small > 2*units.MBPS {
		t.Errorf("4KB IO throughput = %v, want << rate", small)
	}
	// Huge IOs approach the media rate.
	big := EffectiveThroughput(1*units.GB, rate, lat)
	if float64(big) < 0.99*float64(rate) {
		t.Errorf("1GB IO throughput = %v, want ≈%v", big, rate)
	}
	// Zero latency gives the media rate exactly.
	if got := EffectiveThroughput(1*units.MB, rate, 0); math.Abs(float64(got-rate)) > 1e-6 {
		t.Errorf("zero-latency throughput = %v, want %v", got, rate)
	}
	if got := EffectiveThroughput(0, rate, lat); got != 0 {
		t.Errorf("zero-size throughput = %v, want 0", got)
	}
}

// Figure 2 behaviour: at equal IO size the lower-latency MEMS device delivers
// much higher effective throughput than the disk until IOs grow large.
func TestFig2Crossover(t *testing.T) {
	diskRate, diskLat := 300*units.MBPS, 4300*time.Microsecond // FutureDisk, avg latency
	memsRate, memsLat := 320*units.MBPS, 590*time.Microsecond  // G3 MEMS, max latency

	at1MB := func(io units.Bytes) (d, m units.ByteRate) {
		return EffectiveThroughput(io, diskRate, diskLat),
			EffectiveThroughput(io, memsRate, memsLat)
	}
	d, m := at1MB(1 * units.MB)
	if m < 2*d {
		t.Errorf("at 1MB IOs MEMS (%v) should be >2x disk (%v)", m, d)
	}
	d, m = at1MB(100 * units.MB)
	if float64(m)/float64(d) > 1.2 {
		t.Errorf("at 100MB IOs devices should converge: disk %v mems %v", d, m)
	}
}

func TestIOSizeForRoundTrip(t *testing.T) {
	rate := 300 * units.MBPS
	lat := 4 * time.Millisecond
	target := 200 * units.MBPS
	s := IOSizeFor(target, rate, lat)
	if s <= 0 {
		t.Fatalf("IOSizeFor returned %v", s)
	}
	back := EffectiveThroughput(s, rate, lat)
	if math.Abs(float64(back-target)) > 1e-3*float64(target) {
		t.Errorf("round trip: %v -> %v -> %v", target, s, back)
	}
}

func TestIOSizeForUnreachable(t *testing.T) {
	rate := 300 * units.MBPS
	if got := IOSizeFor(rate, rate, time.Millisecond); got != 0 {
		t.Errorf("IOSizeFor(target=rate) = %v, want 0", got)
	}
	if got := IOSizeFor(400*units.MBPS, rate, time.Millisecond); got != 0 {
		t.Errorf("IOSizeFor above rate = %v, want 0", got)
	}
	if got := IOSizeFor(0, rate, time.Millisecond); got != 0 {
		t.Errorf("IOSizeFor(0) = %v, want 0", got)
	}
}

func TestUtilization(t *testing.T) {
	rate := 100 * units.MBPS
	lat := 10 * time.Millisecond
	// 1MB at 100MB/s takes 10ms transfer + 10ms latency: 50% utilization.
	if got := Utilization(1*units.MB, rate, lat); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	if got := Utilization(1*units.MB, 0, lat); got != 0 {
		t.Errorf("Utilization with zero rate = %v, want 0", got)
	}
}

// Property: effective throughput is monotonically nondecreasing in IO size
// and never exceeds the media rate.
func TestEffectiveThroughputMonotoneProperty(t *testing.T) {
	rate := 320 * units.MBPS
	lat := 590 * time.Microsecond
	f := func(a, b uint32) bool {
		x, y := units.Bytes(a)+1, units.Bytes(b)+1
		if x > y {
			x, y = y, x
		}
		tx := EffectiveThroughput(x, rate, lat)
		ty := EffectiveThroughput(y, rate, lat)
		return tx <= ty+1e-9 && float64(ty) <= float64(rate)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: IOSizeFor is the inverse of EffectiveThroughput on (0, rate).
func TestIOSizeInverseProperty(t *testing.T) {
	rate := 300 * units.MBPS
	lat := 3 * time.Millisecond
	f := func(frac uint8) bool {
		target := units.ByteRate(float64(rate) * (float64(frac%99) + 1) / 100)
		s := IOSizeFor(target, rate, lat)
		got := EffectiveThroughput(s, rate, lat)
		return math.Abs(float64(got-target)) < 1e-6*float64(rate)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
