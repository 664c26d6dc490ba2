package model

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"memstream/internal/units"
)

// Paper-default device specs (Table 3, §5 conventions): disk pays average
// seek + rotation; MEMS pays its maximum positioning latency.
func futureDiskSpec() DeviceSpec {
	return DeviceSpec{Rate: 300 * units.MBPS, Latency: units.Milliseconds(4.3)}
}

func g3Spec() DeviceSpec {
	return DeviceSpec{Rate: 320 * units.MBPS, Latency: units.Milliseconds(0.59)}
}

func TestStreamLoadValidate(t *testing.T) {
	if err := (StreamLoad{N: 10, BitRate: units.MBPS}).Validate(); err != nil {
		t.Error(err)
	}
	for _, l := range []StreamLoad{{0, units.MBPS}, {-1, units.MBPS}, {5, 0}, {5, -1}} {
		if err := l.Validate(); err == nil {
			t.Errorf("load %+v accepted", l)
		}
	}
}

func TestDeviceSpecValidate(t *testing.T) {
	if err := (DeviceSpec{Rate: 1, Latency: 0}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (DeviceSpec{Rate: 0, Latency: 0}).Validate(); err == nil {
		t.Error("zero rate accepted")
	}
	if err := (DeviceSpec{Rate: 1, Latency: -time.Second}).Validate(); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestDiskDirectClosedForm(t *testing.T) {
	// Hand computation: N=100, B̄=1MB/s, R=300MB/s, L̄=4.3ms.
	// T = 100·0.0043·3e8/(3e8−1e8) = 0.645s; S = B̄·T = 645KB.
	load := StreamLoad{N: 100, BitRate: 1 * units.MBPS}
	plan, err := DiskDirect(load, futureDiskSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.Cycle, units.Seconds(0.645); !durClose(got, want, 1e-9) {
		t.Errorf("cycle = %v, want %v", got, want)
	}
	if got, want := float64(plan.PerStream), 645e3; math.Abs(got-want) > 1 {
		t.Errorf("S = %v, want 645KB", plan.PerStream)
	}
	if got, want := float64(plan.TotalDRAM), 64.5e6; math.Abs(got-want) > 100 {
		t.Errorf("total = %v, want 64.5MB", plan.TotalDRAM)
	}
	if plan.IOSize != plan.PerStream {
		t.Error("IO size should equal per-stream buffer in the direct plan")
	}
}

func durClose(a, b time.Duration, rel float64) bool {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	return d <= rel*float64(b)+1e3 // 1µs absolute slack
}

func TestDiskDirectInfeasibleAtBandwidth(t *testing.T) {
	// 30 HDTV streams at 10MB/s exactly saturate a 300MB/s disk.
	load := StreamLoad{N: 30, BitRate: 10 * units.MBPS}
	_, err := DiskDirect(load, futureDiskSpec())
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// 29 streams are feasible (the paper's HDTV case).
	if _, err := DiskDirect(StreamLoad{N: 29, BitRate: 10 * units.MBPS}, futureDiskSpec()); err != nil {
		t.Fatalf("29 HDTV streams should be feasible: %v", err)
	}
}

func TestPaperHDTVDRAMRequirement(t *testing.T) {
	// Paper §5.1.3: "the DRAM requirement for the 10MB/s bit-rate range is
	// approximately 1.5GB" for the maximum stream count without MEMS.
	n := MaxStreamsDirect(10*units.MBPS, futureDiskSpec(), 0)
	if n != 29 {
		t.Fatalf("max HDTV streams = %d, want 29", n)
	}
	plan, err := DiskDirect(StreamLoad{N: n, BitRate: 10 * units.MBPS}, futureDiskSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := float64(plan.TotalDRAM)
	if got < 0.8e9 || got > 2e9 {
		t.Errorf("HDTV DRAM requirement = %v, paper says ≈1.5GB", plan.TotalDRAM)
	}
}

func TestPaperLowBitRateDRAMRequirement(t *testing.T) {
	// Paper Fig 6(a): "the DRAM requirement for a fully utilized disk
	// ranges from 1GB for 10MB/s streams to 1TB for 10KB/s streams."
	n := MaxStreamsDirect(10*units.KBPS, futureDiskSpec(), 0)
	if n < 29000 || n > 30000 {
		t.Fatalf("max mp3 streams = %d, want ≈29999", n)
	}
	plan, err := DiskDirect(StreamLoad{N: n - 500, BitRate: 10 * units.KBPS}, futureDiskSpec())
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalDRAM < 100*units.GB {
		t.Errorf("near-full-utilization mp3 DRAM = %v, paper says O(1TB)", plan.TotalDRAM)
	}
}

func TestMEMSDirectUsesMEMSParameters(t *testing.T) {
	load := StreamLoad{N: 100, BitRate: 1 * units.MBPS}
	mp, err := MEMSDirect(load, g3Spec())
	if err != nil {
		t.Fatal(err)
	}
	dp, _ := DiskDirect(load, futureDiskSpec())
	// MEMS latency is ~7x lower; the buffer should be several times smaller.
	if float64(mp.PerStream) > 0.3*float64(dp.PerStream) {
		t.Errorf("MEMS buffer %v not well below disk buffer %v", mp.PerStream, dp.PerStream)
	}
}

func TestBufferPlanReducesDRAMByOrderOfMagnitude(t *testing.T) {
	// Fig 6: with a 2-device G3 buffer, DRAM drops by ~an order of
	// magnitude for low/medium bit-rates.
	for _, br := range []units.ByteRate{10 * units.KBPS, 100 * units.KBPS, 1 * units.MBPS} {
		n := MaxStreamsDirect(br, futureDiskSpec(), 0) / 2 // mid-load point
		if n < 1 {
			t.Fatalf("no feasible streams at %v", br)
		}
		load := StreamLoad{N: n, BitRate: br}
		direct, err := DiskDirect(load, futureDiskSpec())
		if err != nil {
			t.Fatal(err)
		}
		cfg := BufferConfig{
			Load: load, Disk: futureDiskSpec(), Tier: g3Spec(),
			K: 2, SizePerDevice: 10 * units.GB,
		}
		k, buffered, err := MinFeasibleK(cfg, 2, 64)
		if err != nil {
			t.Fatalf("%v at %v", err, br)
		}
		ratio := float64(direct.TotalDRAM) / float64(buffered.TotalDRAM)
		if ratio < 4 {
			t.Errorf("bit-rate %v (k=%d): DRAM reduction %.1fx, want ≥4x", br, k, ratio)
		}
	}
}

func TestBufferPlanHandChecked(t *testing.T) {
	// Small hand-checkable instance: N=10, B̄=1MB/s, k=2, Size=10GB.
	cfg := BufferConfig{
		Load:          StreamLoad{N: 10, BitRate: 1 * units.MBPS},
		Disk:          futureDiskSpec(),
		Tier:          g3Spec(),
		K:             2,
		SizePerDevice: 10 * units.GB,
	}
	plan, err := BufferPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// C = 10·0.00059·320e6 / (640e6 − 2·11·1e6) = 1.888e6/6.18e8 s
	wantC := 10 * 0.00059 * 320e6 / (640e6 - 22e6)
	if !durClose(plan.MinMEMSCycle, units.Seconds(wantC), 1e-9) {
		t.Errorf("C = %v, want %vs", plan.MinMEMSCycle, wantC)
	}
	// T_disk = k·Size/(2NB̄) = 20e9/2e7 = 1000s.
	if !durClose(plan.DiskCycle, units.Seconds(1000), 1e-9) {
		t.Errorf("T_disk = %v, want 1000s", plan.DiskCycle)
	}
	// S = B̄·C·(1+2/10)·T/(T−C).
	td := 1000.0
	wantS := 1e6 * wantC * 1.2 * td / (td - wantC)
	if math.Abs(float64(plan.PerStreamDRAM)-wantS) > 1 {
		t.Errorf("S = %v, want %v", plan.PerStreamDRAM, units.Bytes(wantS))
	}
	if plan.M < 1 || plan.M >= 10 {
		t.Errorf("M = %d out of range", plan.M)
	}
	// Staged data fits the bank.
	if plan.MEMSBufferUse > 20*units.GB+1 {
		t.Errorf("staged %v exceeds bank capacity", plan.MEMSBufferUse)
	}
}

func TestBufferPlanSingleStreamDegenerate(t *testing.T) {
	cfg := BufferConfig{
		Load: StreamLoad{N: 1, BitRate: 1 * units.MBPS},
		Disk: futureDiskSpec(), Tier: g3Spec(), K: 2, SizePerDevice: 10 * units.GB,
	}
	plan, err := BufferPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.M != 1 {
		t.Errorf("M = %d, want 1 for N=1", plan.M)
	}
}

func TestBufferPlanInfeasibleBandwidth(t *testing.T) {
	// A single G3 device (320MB/s) cannot buffer a fully loaded 300MB/s
	// disk: it would need 2x the disk's streaming bandwidth (paper §3.1).
	cfg := BufferConfig{
		Load: StreamLoad{N: 250, BitRate: 1 * units.MBPS}, // 250MB/s of streams
		Disk: futureDiskSpec(), Tier: g3Spec(), K: 1, SizePerDevice: 10 * units.GB,
	}
	_, err := BufferPlan(cfg)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// Two devices (640MB/s) suffice.
	cfg.K = 2
	if _, err := BufferPlan(cfg); err != nil {
		t.Fatalf("k=2 should be feasible: %v", err)
	}
}

func TestBufferPlanCapacityBound(t *testing.T) {
	// Shrink the devices until Eq 7 fails.
	cfg := BufferConfig{
		Load: StreamLoad{N: 1000, BitRate: 1 * units.MBPS},
		Disk: futureDiskSpec(), Tier: g3Spec(), K: 2, SizePerDevice: 10 * units.MB,
	}
	_, err := BufferPlan(cfg)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible (capacity)", err)
	}
}

func TestMinFeasibleK(t *testing.T) {
	cfg := BufferConfig{
		Load: StreamLoad{N: 250, BitRate: 1 * units.MBPS},
		Disk: futureDiskSpec(), Tier: g3Spec(), SizePerDevice: 10 * units.GB,
	}
	k, _, err := MinFeasibleK(cfg, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Errorf("k = %d, want 2", k)
	}
	// Huge load: more devices needed.
	cfg.Load = StreamLoad{N: 25000, BitRate: 10 * units.KBPS} // 2(N+k-1)B ≈ 500MB/s
	k2, _, err := MinFeasibleK(cfg, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if k2 < 2 {
		t.Errorf("k = %d", k2)
	}
	// Impossible load.
	cfg.Load = StreamLoad{N: 400, BitRate: 1 * units.MBPS} // disk itself saturated
	if _, _, err := MinFeasibleK(cfg, 2, 64); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

// Corollary 2: for N ≫ k, a k-device bank behaves as one device with k×
// throughput and latency/k — the buffered plan's C matches the plan built
// on the equivalent single device.
func TestCorollary2Property(t *testing.T) {
	f := func(kk, nn uint8) bool {
		k := int(kk%7) + 2
		n := (int(nn)+10)*100*k + k // N divisible by k, large
		cfg := BufferConfig{
			Load: StreamLoad{N: n, BitRate: 10 * units.KBPS},
			Disk: futureDiskSpec(), Tier: g3Spec(), K: k,
			SizePerDevice: 10 * units.GB,
		}
		plan, err := BufferPlan(cfg)
		if err != nil {
			return true // infeasible points are outside the corollary
		}
		eq := EffectiveBankSpec(g3Spec(), k, Replicated) // kR, L/k
		cfgEq := cfg
		cfgEq.K = 1
		cfgEq.Tier = eq
		cfgEq.SizePerDevice = cfg.SizePerDevice.Mul(float64(k))
		planEq, err := BufferPlan(cfgEq)
		if err != nil {
			return true
		}
		rel := math.Abs(float64(plan.MinMEMSCycle-planEq.MinMEMSCycle)) / float64(planEq.MinMEMSCycle)
		return rel < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the per-stream DRAM buffer grows with N (more streams → longer
// cycles → more staging per stream).
func TestDiskDirectMonotoneInN(t *testing.T) {
	f := func(a, b uint8) bool {
		na, nb := int(a)+1, int(b)+1
		if na > nb {
			na, nb = nb, na
		}
		pa, errA := DiskDirect(StreamLoad{N: na, BitRate: 1 * units.MBPS}, futureDiskSpec())
		pb, errB := DiskDirect(StreamLoad{N: nb, BitRate: 1 * units.MBPS}, futureDiskSpec())
		if errA != nil || errB != nil {
			return true
		}
		return pa.PerStream <= pb.PerStream+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: buffered DRAM never exceeds direct DRAM once the bank is
// feasible at low/medium bit-rates (the paper's design guideline (i)).
func TestBufferedBeatsDirectProperty(t *testing.T) {
	f := func(nn uint16) bool {
		n := int(nn%5000) + 100
		load := StreamLoad{N: n, BitRate: 100 * units.KBPS}
		direct, err := DiskDirect(load, futureDiskSpec())
		if err != nil {
			return true
		}
		cfg := BufferConfig{Load: load, Disk: futureDiskSpec(), Tier: g3Spec(),
			SizePerDevice: 10 * units.GB}
		_, plan, err := MinFeasibleK(cfg, 2, 64)
		if err != nil {
			return true
		}
		return plan.TotalDRAM <= direct.TotalDRAM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMaxStreamsDirectWithDRAMCap(t *testing.T) {
	// With a 5GB cap (paper §5.1.3), mp3 streams are DRAM-limited well
	// below the 30k bandwidth limit.
	n := MaxStreamsDirect(10*units.KBPS, futureDiskSpec(), 5*units.GB)
	if n <= 0 || n >= 29999 {
		t.Fatalf("capped max streams = %d", n)
	}
	plan, _ := DiskDirect(StreamLoad{N: n, BitRate: 10 * units.KBPS}, futureDiskSpec())
	if plan.TotalDRAM > 5*units.GB {
		t.Errorf("plan at max N uses %v > cap", plan.TotalDRAM)
	}
	next, err := DiskDirect(StreamLoad{N: n + 1, BitRate: 10 * units.KBPS}, futureDiskSpec())
	if err == nil && next.TotalDRAM <= 5*units.GB {
		t.Error("max N is not maximal")
	}
}

func TestMaxStreamsDirectInfeasible(t *testing.T) {
	// Bit-rate above the disk rate: no streams at all.
	if n := MaxStreamsDirect(400*units.MBPS, futureDiskSpec(), 0); n != 0 {
		t.Errorf("n = %d, want 0", n)
	}
}

func TestMaxStreamsBuffered(t *testing.T) {
	cfg := BufferConfig{
		Load: StreamLoad{BitRate: 100 * units.KBPS},
		Disk: futureDiskSpec(), Tier: g3Spec(), K: 2, SizePerDevice: 10 * units.GB,
	}
	n := MaxStreamsBuffered(cfg, 1*units.GB)
	if n <= 0 {
		t.Fatal("no buffered streams feasible")
	}
	direct := MaxStreamsDirect(100*units.KBPS, futureDiskSpec(), 1*units.GB)
	if n <= direct {
		t.Errorf("buffered max (%d) should exceed direct max (%d) at equal DRAM", n, direct)
	}
}

func TestStreamLoadAggregate(t *testing.T) {
	l := StreamLoad{N: 100, BitRate: 1 * units.MBPS}
	if got := l.Aggregate(); got != 100*units.MBPS {
		t.Errorf("Aggregate = %v, want 100MB/s", got)
	}
}

func TestBufferConfigValidate(t *testing.T) {
	good := BufferConfig{
		Load: StreamLoad{N: 10, BitRate: units.MBPS},
		Disk: futureDiskSpec(), Tier: g3Spec(), K: 2, SizePerDevice: 10 * units.GB,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*BufferConfig){
		func(c *BufferConfig) { c.Load.N = 0 },
		func(c *BufferConfig) { c.Disk.Rate = 0 },
		func(c *BufferConfig) { c.Tier.Rate = 0 },
		func(c *BufferConfig) { c.K = 0 },
		func(c *BufferConfig) { c.SizePerDevice = 0 },
	}
	for i, mut := range mutations {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestDiskDirectValidation(t *testing.T) {
	if _, err := DiskDirect(StreamLoad{N: 0, BitRate: units.MBPS}, futureDiskSpec()); err == nil {
		t.Error("zero streams accepted")
	}
	if _, err := DiskDirect(StreamLoad{N: 5, BitRate: units.MBPS}, DeviceSpec{}); err == nil {
		t.Error("zero device accepted")
	}
}

func TestCostFunctionsRejectBadInputs(t *testing.T) {
	bad := CostModel{} // zero prices
	load := StreamLoad{N: 10, BitRate: units.MBPS}
	if _, err := CostWithoutMEMS(load, futureDiskSpec(), bad); err == nil {
		t.Error("bad costs accepted by CostWithoutMEMS")
	}
	cfg := BufferConfig{Load: load, Disk: futureDiskSpec(), Tier: g3Spec(),
		K: 2, SizePerDevice: 10 * units.GB}
	if _, err := CostWithBuffer(cfg, bad); err == nil {
		t.Error("bad costs accepted by CostWithBuffer")
	}
	// Infeasible loads propagate errors too.
	heavy := StreamLoad{N: 1000, BitRate: units.MBPS}
	if _, err := CostWithoutMEMS(heavy, futureDiskSpec(), Table3Costs()); err == nil {
		t.Error("infeasible load accepted by CostWithoutMEMS")
	}
}

func TestCacheConfigValidate(t *testing.T) {
	good := CacheConfig{
		Load: StreamLoad{N: 10, BitRate: units.MBPS},
		Disk: futureDiskSpec(), Tier: g3Spec(),
		K: 1, Policy: Striped,
		SizePerDevice: 10 * units.GB, ContentSize: units.TB,
		X: 10, Y: 90,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*CacheConfig){
		func(c *CacheConfig) { c.Load.BitRate = 0 },
		func(c *CacheConfig) { c.Disk.Latency = -time.Second },
		func(c *CacheConfig) { c.Tier.Rate = -1 },
		func(c *CacheConfig) { c.K = -1 },
		func(c *CacheConfig) { c.SizePerDevice = 0 },
		func(c *CacheConfig) { c.ContentSize = 0 },
		func(c *CacheConfig) { c.X = 200 },
	}
	for i, mut := range mutations {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestPolicyStringUnknown(t *testing.T) {
	if got := CachePolicy(9).String(); got != "policy(9)" {
		t.Errorf("unknown policy = %q", got)
	}
}

func TestCapDiskCycle(t *testing.T) {
	// The hand-checked Theorem 2 instance: T_disk maximizes to the
	// capacity bound, k·Size/(2NB̄) = 1000s.
	cfg := BufferConfig{
		Load:          StreamLoad{N: 10, BitRate: 1 * units.MBPS},
		Disk:          futureDiskSpec(),
		Tier:          g3Spec(),
		K:             2,
		SizePerDevice: 10 * units.GB,
	}
	fresh := func() BufferedPlan {
		plan, err := BufferPlan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	orig := fresh()
	if !durClose(orig.DiskCycle, units.Seconds(1000), 1e-9) {
		t.Fatalf("T_disk = %v, want 1000s", orig.DiskCycle)
	}

	// A limit above the planned cycle leaves every field untouched.
	p := fresh()
	p.CapDiskCycle(2000*time.Second, cfg.Load)
	if p != orig {
		t.Errorf("cap above plan mutated it:\n got %+v\nwant %+v", p, orig)
	}

	// A limit below recomputes the dependent quantities for the shorter
	// cycle: S_disk-mems = B̄·T and T_mems = T·M/N.
	p = fresh()
	p.CapDiskCycle(20*time.Second, cfg.Load)
	if p.DiskCycle != 20*time.Second {
		t.Errorf("T_disk = %v, want 20s", p.DiskCycle)
	}
	if got, want := float64(p.DiskIOSize), 20e6; math.Abs(got-want) > 1 {
		t.Errorf("DiskIOSize = %v, want 20MB", p.DiskIOSize)
	}
	if want := time.Duration(float64(20*time.Second) * float64(p.M) / 10); p.MEMSCycle != want {
		t.Errorf("MEMSCycle = %v, want %v", p.MEMSCycle, want)
	}
	if p.MEMSCycle < p.MinMEMSCycle {
		t.Errorf("MEMSCycle %v below the bandwidth floor %v", p.MEMSCycle, p.MinMEMSCycle)
	}
	if p.M != orig.M || p.MinMEMSCycle != orig.MinMEMSCycle {
		t.Errorf("cap changed M or C: %+v", p)
	}

	// A cap so tight that T·M/N lands under C clamps to the floor.
	p = fresh()
	p.CapDiskCycle(time.Millisecond, cfg.Load)
	if p.MEMSCycle != p.MinMEMSCycle {
		t.Errorf("MEMSCycle = %v, want clamped to C = %v", p.MEMSCycle, p.MinMEMSCycle)
	}
}
