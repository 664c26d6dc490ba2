package server

import (
	"math"
	"testing"
	"time"

	"memstream/internal/units"
)

// The edges of the VBR shaping path the SoA rewrite must preserve:
// normalizeTrace on degenerate traces, and shapeVBR's skip and
// early-return paths.

func TestNormalizeTraceSingleInterval(t *testing.T) {
	// A one-interval trace's mean is its only entry, so normalization
	// must rescale it to exactly the nominal rate.
	tr := []units.ByteRate{123456}
	normalizeTrace(tr, units.MBPS)
	if tr[0] != units.MBPS {
		t.Errorf("single-interval trace normalized to %v, want %v", tr[0], units.MBPS)
	}
}

func TestNormalizeTraceAllEqualRates(t *testing.T) {
	// An all-equal trace already has zero variance; normalization must
	// map every interval to the nominal rate (within one float64 ulp of
	// the scale multiply) and leave the trace flat.
	tr := make([]units.ByteRate, 16)
	for i := range tr {
		tr[i] = 3 * units.KBPS
	}
	normalizeTrace(tr, units.MBPS)
	for i, r := range tr {
		if math.Abs(float64(r)-float64(units.MBPS)) > 1e-6 {
			t.Fatalf("interval %d = %v, want %v", i, r, units.MBPS)
		}
		if r != tr[0] {
			t.Fatalf("normalization broke flatness: tr[%d]=%v, tr[0]=%v", i, r, tr[0])
		}
	}
}

func TestNormalizeTraceDegenerateSumsUntouched(t *testing.T) {
	// Zero-sum and infinite-sum traces cannot be rescaled; normalizeTrace
	// must leave them as-is rather than producing NaN/Inf rates.
	zero := []units.ByteRate{0, 0, 0}
	normalizeTrace(zero, units.MBPS)
	for i, r := range zero {
		if r != 0 {
			t.Errorf("zero trace interval %d became %v", i, r)
		}
	}
	inf := []units.ByteRate{units.ByteRate(math.Inf(1)), units.MBPS}
	normalizeTrace(inf, units.MBPS)
	if !math.IsInf(float64(inf[0]), 1) || inf[1] != units.MBPS {
		t.Errorf("infinite-sum trace was rescaled: %v", inf)
	}
}

// newVBRRig builds a rig with players installed, ready for shapeVBR.
func newVBRRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	if err := validate(&cfg); err != nil {
		t.Fatal(err)
	}
	r, err := newRig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range r.set.Streams {
		r.addPlayer(i, r.diskPos(st), time.Second)
	}
	return r
}

func TestShapeVBRSkipPath(t *testing.T) {
	cfg := baseConfig(Direct, 8, units.MBPS)
	cfg.VBRCoV = 0.3
	r := newVBRRig(t, cfg)
	skip := func(i int) bool { return i%2 == 0 }
	r.shapeVBR(100*time.Millisecond, 12, skip)
	ps := &r.ar.ps
	for i := 0; i < r.n; i++ {
		if skip(i) {
			// Skipped players (recorders in the buffered pipeline) keep
			// CBR consumption and receive no cushion prefetch.
			if ps.cons[i].kind != consCBR {
				t.Errorf("skipped player %d got consumption kind %d, want CBR", i, ps.cons[i].kind)
			}
			if ps.level[i] != 0 {
				t.Errorf("skipped player %d was prefetched %v bytes", i, ps.level[i])
			}
		} else {
			if ps.cons[i].kind != consTrace {
				t.Errorf("player %d got consumption kind %d, want trace", i, ps.cons[i].kind)
			}
			if ps.level[i] <= 0 {
				t.Errorf("player %d has no cushion (level %v)", i, ps.level[i])
			}
		}
	}
	// Skipped players draw no trace, so only the non-skipped half
	// consumed the VBR split: exactly 4 trace tables exist.
	if got := len(r.ar.tab.traces); got != 4 {
		t.Errorf("trace tables = %d, want 4 (one per non-skipped player)", got)
	}
}

func TestShapeVBRNoCushion(t *testing.T) {
	cfg := baseConfig(Direct, 4, units.MBPS)
	cfg.VBRCoV = 0.3
	cfg.NoCushion = true
	r := newVBRRig(t, cfg)
	r.shapeVBR(100*time.Millisecond, 12, nil)
	ps := &r.ar.ps
	for i := 0; i < r.n; i++ {
		if ps.cons[i].kind != consTrace {
			t.Errorf("player %d got consumption kind %d, want trace", i, ps.cons[i].kind)
		}
		if ps.level[i] != 0 {
			t.Errorf("NoCushion player %d was prefetched %v bytes", i, ps.level[i])
		}
	}
}

func TestShapeVBRDisabledConsumesNoRNG(t *testing.T) {
	// With VBRCoV unset, shapeVBR must return before taking its RNG
	// split, leaving the run RNG stream exactly where it was — the
	// invariant that keeps CBR goldens stable when the VBR path evolves.
	cfg := baseConfig(Direct, 4, units.MBPS)
	a := newVBRRig(t, cfg)
	b := newVBRRig(t, cfg)
	a.shapeVBR(100*time.Millisecond, 12, nil)
	for i := 0; i < 4; i++ {
		if x, y := a.rng.Uint64(), b.rng.Uint64(); x != y {
			t.Fatalf("draw %d diverged after disabled shapeVBR: %d vs %d", i, x, y)
		}
	}
	for i := 0; i < a.n; i++ {
		if a.ar.ps.cons[i].kind != consCBR || a.ar.ps.level[i] != 0 {
			t.Fatalf("disabled shapeVBR touched player %d", i)
		}
	}
}
