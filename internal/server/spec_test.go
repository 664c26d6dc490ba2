package server

import (
	"math"
	"testing"
	"time"

	"memstream/internal/units"
)

// The tests in this file state what the pinned fingerprints only record:
// the drain boundary, the DRAM pool's total after an underflow, and the
// paused share of interactive playback.

// drainRig is a three-stream Direct rig whose players start at 0 and
// play CBR, so a drain to t needs exactly units.BytesIn(rate, t).
func drainRig(t *testing.T) *rig {
	t.Helper()
	r, err := newRig(baseConfig(Direct, 3, units.MBPS))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.n; i++ {
		r.addPlayer(i, 0, 0)
	}
	return r
}

// requirePoolTotal holds the pool's running total to the sum of the
// streams' levels.
func requirePoolTotal(t *testing.T, r *rig, when string) {
	t.Helper()
	ps := &r.ar.ps
	var sum units.Bytes
	for _, l := range ps.level {
		sum += l
	}
	if ps.used != sum {
		t.Fatalf("%s: pool total %v, streams hold %v", when, ps.used, sum)
	}
}

// TestDrainToBoundary: a drain that needs exactly the buffered bytes
// leaves level 0 and counts no underflow; one byte more underflows by one
// byte; one byte less leaves one byte. The pool total follows the levels.
func TestDrainToBoundary(t *testing.T) {
	r := drainRig(t)
	const at = 40 * time.Millisecond
	need := units.BytesIn(r.rate, at)
	slack := []units.Bytes{0, -1, 1} // buffered − needed, per stream
	for i, s := range slack {
		r.fill(i, need+s)
	}
	for i := range slack {
		r.drainTo(i, at)
	}
	ps := &r.ar.ps
	for i, s := range slack {
		wantLevel, wantDeficit, wantUnderflows := max(s, 0), max(-s, 0), int32(0)
		if s < 0 {
			wantUnderflows = 1
		}
		if ps.level[i] != wantLevel || ps.deficit[i] != wantDeficit || ps.underflow[i] != wantUnderflows {
			t.Errorf("buffered need%+d: level %v deficit %v underflows %d, want %v, %v, %d",
				int64(s), ps.level[i], ps.deficit[i], ps.underflow[i], wantLevel, wantDeficit, wantUnderflows)
		}
	}
	requirePoolTotal(t, r, "after the drains")
}

// TestUnderflowKeepsPoolTotal: after a round of drains in which one
// stream underflows (beside one that drains exactly empty and one that
// keeps bytes), the pool total is the sum of the levels, and neither the
// underflow nor refilling what it lost moves DRAMHighWater.
func TestUnderflowKeepsPoolTotal(t *testing.T) {
	r := drainRig(t)
	const at = 40 * time.Millisecond
	need := units.BytesIn(r.rate, at)
	levels := []units.Bytes{need, need / 2, 2 * need}
	for i, l := range levels {
		r.fill(i, l)
	}
	ps := &r.ar.ps
	highWater := ps.highWater
	for i := range levels {
		r.drainTo(i, at)
	}
	requirePoolTotal(t, r, "after the underflowing drain")
	var underflows int32
	for _, u := range ps.underflow {
		underflows += u
	}
	if underflows != 1 || ps.deficit[1] != need-need/2 {
		t.Errorf("%d underflows, stream 1 short %v; want one, short %v", underflows, ps.deficit[1], need-need/2)
	}
	if ps.highWater != highWater {
		t.Errorf("the drains moved the high-water mark %v → %v", highWater, ps.highWater)
	}
	// Refill every stream to where it started: the pool is back at the
	// mark, not over it.
	for i, l := range levels {
		r.fill(i, l-ps.level[i])
	}
	requirePoolTotal(t, r, "after the refill")
	if ps.highWater != highWater {
		t.Errorf("refilling to the starting levels moved the high-water mark %v → %v", highWater, ps.highWater)
	}
}

// TestPausedFractionSetsPausedShare: with Config.PausedFraction f, a
// Direct run's streams consume, summed over the run, within 0.02 of
// (1 − f) × rate × playback time. Five minutes hold about 80 play/pause
// phases per stream at f = 0.5, so starting every stream in a play phase
// biases the share by well under that; across seeds 1–5 it stays within
// 0.007 of 1 − f at both fractions.
func TestPausedFractionSetsPausedShare(t *testing.T) {
	const tolerance = 0.02
	for _, f := range []float64{0.2, 0.5} {
		cfg := baseConfig(Direct, 100, units.MBPS)
		cfg.PausedFraction = f
		cfg.Duration = 5 * time.Minute
		m, err := newCycleRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps := &m.r.ar.ps
		var consumed, always float64
		for i := 0; i < m.r.n; i++ {
			span := m.end - ps.startAt[i]
			consumed += float64(m.r.ar.tab.consume(ps.cons[i], 0, span))
			always += float64(units.BytesIn(m.r.rate, span))
		}
		if share := consumed / always; math.Abs(share-(1-f)) > tolerance {
			t.Errorf("PausedFraction %.1f: streams played %.4f of the run, want %.2f ± %.2f", f, share, 1-f, tolerance)
		}
	}
}
