package schedule

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"memstream/internal/model"
	"memstream/internal/units"
)

// BytesPerCycle returns the data moved in one period.
func (tc *TimeCycle) BytesPerCycle() units.Bytes {
	var s units.Bytes
	for _, e := range tc.Entries {
		s += e.IOSize
	}
	return s
}

func diskSpec() model.DeviceSpec {
	return model.DeviceSpec{Rate: 300 * units.MBPS, Latency: units.Milliseconds(4.3)}
}

func TestNewTimeCycle(t *testing.T) {
	plan, err := model.DiskDirect(model.StreamLoad{N: 20, BitRate: units.MBPS}, diskSpec())
	if err != nil {
		t.Fatal(err)
	}
	tc, err := NewTimeCycle(20, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tc.Entries) != 20 {
		t.Fatalf("entries = %d", len(tc.Entries))
	}
	if tc.Period != plan.Cycle {
		t.Errorf("period = %v, want %v", tc.Period, plan.Cycle)
	}
	// Order is stable, streams 0..N-1.
	for i, e := range tc.Entries {
		if e.Stream != i {
			t.Fatalf("entry %d is stream %d", i, e.Stream)
		}
	}
}

func TestNewTimeCycleErrors(t *testing.T) {
	plan, _ := model.DiskDirect(model.StreamLoad{N: 5, BitRate: units.MBPS}, diskSpec())
	if _, err := NewTimeCycle(0, plan); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewTimeCycle(5, model.DirectPlan{}); err == nil {
		t.Error("zero plan accepted")
	}
}

func TestTimeCycleValidate(t *testing.T) {
	bad := &TimeCycle{Period: 0}
	if err := bad.Validate(); err == nil {
		t.Error("zero period accepted")
	}
	bad = &TimeCycle{Period: time.Second}
	if err := bad.Validate(); err == nil {
		t.Error("empty entries accepted")
	}
	bad = &TimeCycle{Period: time.Second, Entries: []Entry{{Stream: 0, IOSize: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero IO size accepted")
	}
}

// The schedule's sustained throughput equals the aggregate stream rate —
// the defining property of time-cycle scheduling.
func TestTimeCycleThroughputMatchesLoad(t *testing.T) {
	load := model.StreamLoad{N: 50, BitRate: units.MBPS}
	plan, _ := model.DiskDirect(load, diskSpec())
	tc, _ := NewTimeCycle(load.N, plan)
	got := units.RateOf(tc.BytesPerCycle(), tc.Period)
	want := load.Aggregate()
	if math.Abs(float64(got-want)) > 1e-6*float64(want) {
		t.Errorf("throughput = %v, want %v", got, want)
	}
}

func TestBytesPerCycle(t *testing.T) {
	tc := &TimeCycle{Period: time.Second, Entries: []Entry{
		{0, 1 * units.MB}, {1, 2 * units.MB},
	}}
	if got := tc.BytesPerCycle(); got != 3*units.MB {
		t.Errorf("BytesPerCycle = %v", got)
	}
}

func TestAdmissionUpToCapacity(t *testing.T) {
	a := &Admission{Disk: diskSpec(), BitRate: 10 * units.MBPS}
	admitted := 0
	for {
		ok, err := a.TryAdmit()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		admitted++
		if admitted > 1000 {
			t.Fatal("admission never saturated")
		}
	}
	if admitted != 29 {
		t.Errorf("admitted %d HDTV streams, want 29 (bandwidth bound)", admitted)
	}
	if a.Admitted() != 29 {
		t.Errorf("Admitted() = %d", a.Admitted())
	}
}

func TestAdmissionDRAMBound(t *testing.T) {
	// A tiny DRAM budget binds before disk bandwidth does.
	a := &Admission{Disk: diskSpec(), BitRate: 10 * units.MBPS, DRAMCap: 10 * units.MB}
	n := 0
	for {
		ok, _ := a.TryAdmit()
		if !ok {
			break
		}
		n++
	}
	if n == 0 || n >= 29 {
		t.Errorf("DRAM-bound admission = %d, want within (0, 29)", n)
	}
	plan, _ := model.DiskDirect(model.StreamLoad{N: n, BitRate: 10 * units.MBPS}, diskSpec())
	if plan.TotalDRAM > 10*units.MB {
		t.Errorf("admitted plan uses %v > 10MB cap", plan.TotalDRAM)
	}
}

func TestAdmissionRelease(t *testing.T) {
	a := &Admission{Disk: diskSpec(), BitRate: 10 * units.MBPS}
	for i := 0; i < 29; i++ {
		if ok, _ := a.TryAdmit(); !ok {
			t.Fatalf("admission %d failed", i)
		}
	}
	if ok, _ := a.TryAdmit(); ok {
		t.Fatal("30th stream admitted")
	}
	a.Release()
	if ok, _ := a.TryAdmit(); !ok {
		t.Fatal("re-admission after release failed")
	}
	// Release never goes negative.
	empty := &Admission{Disk: diskSpec(), BitRate: units.MBPS}
	empty.Release()
	if empty.Admitted() != 0 {
		t.Error("Release underflowed")
	}
}

func TestEDFOrdering(t *testing.T) {
	var e EDF
	e.Push(&Deadline{Stream: 2, Deadline: 30 * time.Millisecond})
	e.Push(&Deadline{Stream: 0, Deadline: 10 * time.Millisecond})
	e.Push(&Deadline{Stream: 1, Deadline: 20 * time.Millisecond})
	if e.Len() != 3 {
		t.Fatalf("len = %d", e.Len())
	}
	for want := 0; want < 3; want++ {
		d := e.Pop()
		if d.Stream != want {
			t.Fatalf("pop order wrong: got stream %d, want %d", d.Stream, want)
		}
	}
	if e.Pop() != nil {
		t.Error("empty queue should return nil")
	}
}

// Property: EDF pops deadlines in nondecreasing order regardless of push
// order.
func TestEDFSortedProperty(t *testing.T) {
	f := func(ds []uint16) bool {
		var e EDF
		for i, d := range ds {
			e.Push(&Deadline{Stream: i, Deadline: time.Duration(d) * time.Millisecond})
		}
		last := time.Duration(-1)
		for e.Len() > 0 {
			d := e.Pop()
			if d.Deadline < last {
				return false
			}
			last = d.Deadline
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixedAdmissionHeterogeneousRates(t *testing.T) {
	a := &MixedAdmission{Disk: diskSpec()}
	// Admit a mix until the disk saturates: 20 HDTV + DivX filler.
	for i := 0; i < 20; i++ {
		ok, err := a.TryAdmit(10 * units.MBPS)
		if err != nil || !ok {
			t.Fatalf("HDTV admission %d failed", i)
		}
	}
	divx := 0
	for {
		ok, err := a.TryAdmit(100 * units.KBPS)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		divx++
		if divx > 10000 {
			t.Fatal("admission never saturated")
		}
	}
	// 20x10MB/s = 200MB/s leaves <100MB/s: DivX count is bounded by it.
	if divx == 0 || divx >= 1000 {
		t.Errorf("divx admitted = %d, want within (0, 1000)", divx)
	}
	if got := a.Aggregate(); float64(got) >= 300e6 {
		t.Errorf("aggregate %v not below disk rate", got)
	}
}

func TestMixedAdmissionRelease(t *testing.T) {
	a := &MixedAdmission{Disk: diskSpec()}
	if ok, _ := a.TryAdmit(10 * units.MBPS); !ok {
		t.Fatal("admission failed")
	}
	if !a.Release(10 * units.MBPS) {
		t.Fatal("release failed")
	}
	if a.Release(10 * units.MBPS) {
		t.Fatal("double release succeeded")
	}
	if a.Admitted() != 0 {
		t.Errorf("admitted = %d", a.Admitted())
	}
}

func TestMixedAdmissionRejectsBadRate(t *testing.T) {
	a := &MixedAdmission{Disk: diskSpec()}
	if _, err := a.TryAdmit(0); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestMixedAdmissionDRAMBound(t *testing.T) {
	a := &MixedAdmission{Disk: diskSpec(), DRAMCap: 10 * units.MB}
	n := 0
	for {
		ok, _ := a.TryAdmit(1 * units.MBPS)
		if !ok {
			break
		}
		n++
	}
	if n == 0 || n > 299 {
		t.Errorf("DRAM-capped admission = %d", n)
	}
}
