package tier

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"memstream/internal/device"
	"memstream/internal/mems"
	"memstream/internal/units"
)

func TestRegistryValid(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("registry has %d sets, want at least 6: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	for _, name := range names {
		s, err := Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: invalid built-in spec: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("%s: spec.Name = %q", name, s.Name)
		}
		if s.AvgLatency > s.MaxLatency {
			t.Errorf("%s: avg latency %v above max %v", name, s.AvgLatency, s.MaxLatency)
		}
		d, err := New(s)
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		if d.Geometry().Blocks <= 0 {
			t.Errorf("%s: non-positive block count", name)
		}
		// One read transfers at the spec rate: a device books positioning
		// and transfer together, so transfer is busy − positioning.
		const blocks = 8
		if _, err := d.Service(0, device.Request{Op: device.Read, Block: 0, Blocks: blocks}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := (units.Bytes(blocks) * s.BlockBytes).Duration(s.Rate)
		if got := d.BusyTime() - d.TotalSeekTime(); got != want {
			t.Errorf("%s: one read transferred in %v, want %v at the spec rate", name, got, want)
		}
	}
}

func TestLookupUnknownListsAvailable(t *testing.T) {
	_, err := Lookup("mems-g9")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestLookupAliases(t *testing.T) {
	for short, full := range map[string]string{"g1": "mems-g1", "g2": "mems-g2", "g3": "mems-g3"} {
		s, err := Lookup(short)
		if err != nil {
			t.Fatalf("%s: %v", short, err)
		}
		if s.Name != full {
			t.Errorf("Lookup(%q).Name = %q, want %q", short, s.Name, full)
		}
	}
}

// TestMEMSAnchoring pins the mems-g* specs to the published parameter
// sets: every derived field must be the same pure function of
// mems.Params the pre-tier stack used, or the byte-identity gate on the
// experiment goldens loses its meaning.
func TestMEMSAnchoring(t *testing.T) {
	gens := map[string]mems.Params{
		"mems-g1": mems.G1(), "mems-g2": mems.G2(), "mems-g3": mems.G3(),
	}
	for name, p := range gens {
		s := MustLookup(name)
		if s.MEMS == nil {
			t.Fatalf("%s: no MEMS parameters attached", name)
		}
		if *s.MEMS != p {
			t.Errorf("%s: attached params %+v != published %+v", name, *s.MEMS, p)
		}
		if s.Capacity != p.Capacity || s.BlockBytes != p.SectorBytes || s.Rate != p.Rate {
			t.Errorf("%s: geometry/rate drifted from params", name)
		}
		if s.AvgLatency != p.AvgLatency() || s.MaxLatency != p.MaxLatency() {
			t.Errorf("%s: latency bounds drifted: spec (%v, %v), params (%v, %v)",
				name, s.AvgLatency, s.MaxLatency, p.AvgLatency(), p.MaxLatency())
		}
		if s.CostPerGB != p.CostPerGB || s.CostPerDev != p.CostPerDev {
			t.Errorf("%s: costs drifted from params", name)
		}
		if s.Kind != "mems" || s.Year != p.Year {
			t.Errorf("%s: kind/year drifted", name)
		}
	}
}

// TestMEMSDeviceMatchesDirect verifies the adapter adds nothing to the
// service path: the same request sequence on a tier-wrapped device and a
// directly constructed mems.Device must complete at identical times.
func TestMEMSDeviceMatchesDirect(t *testing.T) {
	wrapped, err := New(MustLookup("mems-g3"))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := mems.New(mems.G3())
	if err != nil {
		t.Fatal(err)
	}
	reqs := []device.Request{
		{Op: device.Read, Block: 0, Blocks: 128},
		{Op: device.Read, Block: 1 << 20, Blocks: 64},
		{Op: device.Write, Block: 9000, Blocks: 256},
		{Op: device.Read, Block: 42, Blocks: 1},
	}
	var nw, nd time.Duration
	for i, r := range reqs {
		cw, err := wrapped.Service(nw, r)
		if err != nil {
			t.Fatal(err)
		}
		cd, err := direct.Service(nd, r)
		if err != nil {
			t.Fatal(err)
		}
		if cw != cd {
			t.Fatalf("request %d: wrapped completion %+v != direct %+v", i, cw, cd)
		}
		nw, nd = cw.Finish, cd.Finish
	}
	if wrapped.Served() != direct.Served() || wrapped.BusyTime() != direct.BusyTime() {
		t.Error("counters diverged between wrapped and direct device")
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"zero capacity", func(s *Spec) { s.Capacity = 0 }},
		{"zero block size", func(s *Spec) { s.BlockBytes = 0 }},
		{"zero rate", func(s *Spec) { s.Rate = 0 }},
		{"negative avg latency", func(s *Spec) { s.AvgLatency = -time.Microsecond }},
		{"max below avg", func(s *Spec) { s.MaxLatency = s.AvgLatency / 2 }},
		{"zero $/GB", func(s *Spec) { s.CostPerGB = 0 }},
		{"zero $/device", func(s *Spec) { s.CostPerDev = 0 }},
	}
	for _, tc := range cases {
		s := MustLookup("nvm-optane")
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, s)
		}
		if _, err := New(s); err == nil {
			t.Errorf("%s: New accepted invalid spec", tc.name)
		}
	}
}

func TestFlatDeviceService(t *testing.T) {
	s := MustLookup("ssd-sata")
	d, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 128
	bytes := units.Bytes(blocks) * s.BlockBytes
	want := s.AvgLatency + bytes.Duration(s.Rate)
	c, err := d.Service(0, device.Request{Op: device.Read, Block: 0, Blocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	if c.Finish != want {
		t.Errorf("finish %v, want avg latency + transfer = %v", c.Finish, want)
	}
	if d.TotalSeekTime() != s.AvgLatency {
		t.Errorf("position %v, want %v", d.TotalSeekTime(), s.AvgLatency)
	}
	if d.Served() != 1 || d.BusyTime() != want {
		t.Errorf("counters served=%d busy=%v, want 1, %v", d.Served(), d.BusyTime(), want)
	}
	if _, err := d.Service(0, device.Request{Op: device.Read, Block: -1, Blocks: 1}); err == nil {
		t.Error("out-of-range request accepted")
	}
	d.Reset()
	if d.Served() != 0 || d.BusyTime() != 0 || d.TotalSeekTime() != 0 {
		t.Error("Reset left counters non-zero")
	}
}

func TestFlatDeviceCache(t *testing.T) {
	d, err := New(MustLookup("nvm-optane"))
	if err != nil {
		t.Fatal(err)
	}
	cd := d.(Cacheable)
	if err := cd.EnableCache(16*units.MB, 0); err == nil {
		t.Fatal("zero interface rate accepted")
	}
	if err := cd.EnableCache(16*units.MB, 10*units.GBPS); err != nil {
		t.Fatal(err)
	}
	req := device.Request{Op: device.Read, Block: 100, Blocks: 64}
	miss, err := d.Service(0, req)
	if err != nil {
		t.Fatal(err)
	}
	before := d.TotalSeekTime()
	hit, err := d.Service(0, req)
	if err != nil {
		t.Fatal(err)
	}
	if pos := d.TotalSeekTime() - before; pos != 0 {
		t.Errorf("cache hit paid positioning %v", pos)
	}
	if hit.Finish >= miss.Finish {
		t.Errorf("hit finish %v not faster than miss %v", hit.Finish, miss.Finish)
	}
	// A write invalidates; the next read misses again.
	if _, err := d.Service(0, device.Request{Op: device.Write, Block: 100, Blocks: 64}); err != nil {
		t.Fatal(err)
	}
	before = d.TotalSeekTime()
	if _, err := d.Service(0, req); err != nil {
		t.Fatal(err)
	}
	if d.TotalSeekTime() == before {
		t.Error("read after invalidating write still hit the cache")
	}
	if cd.Cache() == nil || cd.Cache().HitRatio() <= 0 {
		t.Error("cache statistics missing")
	}
}

func TestFIFOScheduler(t *testing.T) {
	d, err := New(MustLookup("ssd-sata"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(d, SPTF) // flat device: any policy is FCFS order
	if _, ok := s.(*fifoScheduler); !ok {
		t.Fatalf("flat device scheduler is %T, want fifoScheduler", s)
	}
	for i := 0; i < 3; i++ {
		s.Enqueue(device.Request{Op: device.Read, Block: int64(1000 - i), Blocks: 8, Stream: i})
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	cs, err := s.DrainAll(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 {
		t.Fatalf("drained %d, want 3", len(cs))
	}
	per := cs[0].Finish - 10*time.Millisecond // every IO is the same size
	for i, c := range cs {
		if c.Stream != i {
			t.Errorf("completion %d served stream %d; FIFO order violated", i, c.Stream)
		}
		if i > 0 && c.Finish-cs[i-1].Finish != per {
			t.Errorf("completion %d not back-to-back", i)
		}
	}
	if _, ok, err := s.Dispatch(0); ok || err != nil {
		t.Errorf("Dispatch on empty queue: ok=%v err=%v", ok, err)
	}
}

func TestMEMSSchedulerSelected(t *testing.T) {
	d, err := New(MustLookup("mems-g3"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(d, Elevator)
	if _, ok := s.(*fifoScheduler); ok {
		t.Fatal("MEMS device got the flat FIFO scheduler")
	}
	s.Enqueue(device.Request{Op: device.Read, Block: 0, Blocks: 8})
	s.Enqueue(device.Request{Op: device.Read, Block: 1 << 18, Blocks: 8})
	cs, err := s.DrainAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("drained %d, want 2", len(cs))
	}
}

func TestPolicyNamesDistinct(t *testing.T) {
	if FCFS.String() == SPTF.String() || SPTF.String() == Elevator.String() {
		t.Error("policy names not distinct")
	}
}

func TestDeviceCost(t *testing.T) {
	s := MustLookup("mems-g3")
	// Eq 2 per-device pricing: $/GB times the device capacity.
	want := units.PerGB(s.CostPerGB).Cost(s.Capacity)
	if got := s.DeviceCost(); got != want {
		t.Errorf("DeviceCost = %v, want %v", got, want)
	}
}

func TestLayoutCapable(t *testing.T) {
	d, err := New(MustLookup("mems-g3"))
	if err != nil {
		t.Fatal(err)
	}
	lc, ok := d.(LayoutCapable)
	if !ok {
		t.Fatal("MEMS device not LayoutCapable")
	}
	contig, err := lc.ContiguousLayout(8)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := lc.InterleavedLayout(8, 1*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []Layout{contig, inter} {
		lbn, err := l.Map(3, 0)
		if err != nil {
			t.Fatalf("%s: %v", l.Name(), err)
		}
		if lbn < 0 || lbn >= d.Geometry().Blocks {
			t.Errorf("%s: mapped block %d out of range", l.Name(), lbn)
		}
	}
	// Flat devices do not expose sled layouts.
	f, err := New(MustLookup("nvm-optane"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(LayoutCapable); ok {
		t.Error("flat device unexpectedly LayoutCapable")
	}
}

// TestLookupMemoisesAndCopies checks that a built-in spec is built once
// and handed out by copy: a caller mutating its Spec, or the sled
// parameters behind its MEMS pointer, changes nothing another caller
// sees.
func TestLookupMemoisesAndCopies(t *testing.T) {
	if reflect.ValueOf(builtin()).UnsafePointer() != reflect.ValueOf(builtin()).UnsafePointer() {
		t.Error("the built-in specs are rebuilt per call")
	}
	// One allocation: the caller's copy of the sled parameters. Building
	// the spec again would take a second (FromMEMS's own copy).
	if allocs := testing.AllocsPerRun(10, func() { MustLookup("mems-g3") }); allocs != 1 {
		t.Errorf("MustLookup(mems-g3) allocates %v times, want 1", allocs)
	}
	a, b := MustLookup("mems-g3"), MustLookup("mems-g3")
	if a.MEMS == b.MEMS {
		t.Fatal("two lookups share one *mems.Params")
	}
	a.Rate, a.MEMS.Cylinders, a.MEMS.Name = 1, 7, "mutated"
	c := MustLookup("g3")
	want := FromMEMS("mems-g3", mems.G3())
	if c.Rate != want.Rate || c.AvgLatency != want.AvgLatency || *c.MEMS != *want.MEMS || *b.MEMS != *want.MEMS {
		t.Errorf("a caller's mutation reached the registry: got %+v / %+v, want %+v", c, *c.MEMS, *want.MEMS)
	}
}

// TestServeInStep checks when devices count as in step: a fresh sled
// bank is, and so is one whose devices all served the same request; a
// device driven on its own, a read cache, a flat or mixed bank, a
// different parameter set or one device listed twice is not.
func TestServeInStep(t *testing.T) {
	bank := func(names ...string) []Device {
		ds := make([]Device, len(names))
		for i, n := range names {
			d, err := New(MustLookup(n))
			if err != nil {
				t.Fatal(err)
			}
			ds[i] = d
		}
		return ds
	}
	r := device.Request{Block: 5000, Blocks: 63}
	for _, tc := range []struct {
		name string
		devs []Device
		prep func(ds []Device)
		want bool
	}{
		{"fresh mems", bank("mems-g3", "mems-g3", "mems-g3"), nil, true},
		{"fresh flat", bank("nvm-optane", "nvm-optane"), nil, false},
		{"one device", bank("mems-g2"), nil, true},
		{"diverged", bank("mems-g3", "mems-g3"), func(ds []Device) {
			ds[1].Service(0, device.Request{Block: 9e6, Blocks: 8})
		}, false},
		{"rejoined", bank("mems-g3", "mems-g3"), func(ds []Device) {
			ds[1].Service(0, device.Request{Block: 9e6, Blocks: 8})
			for _, d := range ds {
				d.Service(time.Second, r)
			}
		}, true},
		{"cached", bank("mems-g3", "mems-g3"), func(ds []Device) {
			ds[1].(Cacheable).EnableCache(units.MB, units.GBPS)
		}, false},
		{"mixed", bank("mems-g3", "nvm-optane"), nil, false},
		{"generations", bank("mems-g3", "mems-g2"), nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.prep != nil {
				tc.prep(tc.devs)
			}
			served := make([]uint64, len(tc.devs))
			for i, d := range tc.devs {
				served[i] = d.Served()
			}
			c, ok, err := ServeInStep(tc.devs, 2*time.Second, r)
			if err != nil || ok != tc.want {
				t.Fatalf("ServeInStep: ok=%v err=%v, want ok=%v", ok, err, tc.want)
			}
			for i, d := range tc.devs {
				if grew := d.Served() - served[i]; (grew == 1) != ok {
					t.Errorf("device %d served %d requests with ok=%v", i, grew, ok)
				}
			}
			if ok && (c != r.Done(c.Finish) || c.Finish <= 2*time.Second) {
				t.Errorf("completion %+v", c)
			}
		})
	}
	twice := bank("mems-g3")
	if _, ok, _ := ServeInStep([]Device{twice[0], twice[0]}, 0, r); ok {
		t.Error("one device listed twice counts as in step with itself")
	}
}
