package server

import (
	"math"
	"sort"
	"testing"
	"time"

	"memstream/internal/sim"
	"memstream/internal/units"
)

// Regression: an all-zero VBR trace made normalizeTrace divide by zero,
// propagating NaN/Inf rates into traceIntegrator. The guard leaves such
// a trace untouched.
func TestNormalizeTraceAllZero(t *testing.T) {
	trace := make([]units.ByteRate, 8)
	normalizeTrace(trace, 100*units.KBPS)
	for i, r := range trace {
		if math.IsNaN(float64(r)) || math.IsInf(float64(r), 0) {
			t.Fatalf("trace[%d] = %v after normalizing an all-zero trace", i, r)
		}
		if r != 0 {
			t.Errorf("trace[%d] = %v, want untouched 0", i, r)
		}
	}
	// The downstream integrator stays finite too.
	consume := traceIntegrator(trace, 100*time.Millisecond)
	if got := consume(0, time.Second); math.IsNaN(float64(got)) || got != 0 {
		t.Errorf("integral over an all-zero trace = %v, want 0", got)
	}
}

func TestNormalizeTraceEmptyAndNaN(t *testing.T) {
	normalizeTrace(nil, 100*units.KBPS) // must not panic
	trace := []units.ByteRate{units.ByteRate(math.NaN()), 100 * units.KBPS}
	normalizeTrace(trace, 100*units.KBPS)
	if !math.IsNaN(float64(trace[0])) || trace[1] != 100*units.KBPS {
		t.Errorf("NaN-poisoned trace rescaled to %v; want untouched", trace)
	}
}

func TestNormalizeTraceRescalesMean(t *testing.T) {
	trace := []units.ByteRate{50 * units.KBPS, 150 * units.KBPS, 100 * units.KBPS, 100 * units.KBPS}
	normalizeTrace(trace, 200*units.KBPS)
	var sum float64
	for _, r := range trace {
		sum += float64(r)
	}
	if mean := sum / float64(len(trace)); math.Abs(mean-200e3) > 1e-6 {
		t.Errorf("normalized mean = %v, want 200KB/s", units.ByteRate(mean))
	}
}

// linearPauseAt is the pre-fix reference implementation of the
// pause-integrator lookup: a linear scan over all phase boundaries.
func linearPauseAt(boundaries, consumed []float64, rate units.ByteRate, x time.Duration) float64 {
	xs := x.Seconds()
	if xs <= 0 {
		return 0
	}
	prevT, prevC := 0.0, 0.0
	for i, b := range boundaries {
		if xs <= b {
			if i%2 == 0 {
				return prevC + float64(rate)*(xs-prevT)
			}
			return prevC
		}
		prevT, prevC = b, consumed[i]
	}
	return prevC
}

// pausePhases regenerates the boundary/consumption tables exactly as
// pauseIntegrator builds them, for the equivalence check and benchmark.
func pausePhases(rng *sim.RNG, rate units.ByteRate, meanPlay, meanPause, horizon float64) (boundaries, consumed []float64) {
	t, c := 0.0, 0.0
	playing := true
	for t < horizon {
		var d float64
		if playing {
			d = rng.Exp(meanPlay)
			c += float64(rate) * d
		} else {
			d = rng.Exp(meanPause)
		}
		t += d
		boundaries = append(boundaries, t)
		consumed = append(consumed, c)
		playing = !playing
	}
	return boundaries, consumed
}

// The binary-search lookup must agree with the linear reference at every
// probe point, including phase boundaries, t=0, and beyond the horizon.
func TestPauseIntegratorMatchesLinearScan(t *testing.T) {
	const rate = 100 * units.KBPS
	const horizon = 500.0
	integ := pauseIntegrator(sim.NewRNG(7), rate, 5.0, 2.0, horizon)
	boundaries, consumed := pausePhases(sim.NewRNG(7), rate, 5.0, 2.0, horizon)

	probe := func(x time.Duration) {
		t.Helper()
		want := units.Bytes(linearPauseAt(boundaries, consumed, rate, x))
		got := integ(0, x)
		if math.Abs(float64(got-want)) > 1e-6*math.Max(float64(want), 1) {
			t.Errorf("at(%v): binary %v, linear %v", x, got, want)
		}
	}
	probe(0)
	probe(-time.Second)
	rng := sim.NewRNG(99)
	for i := 0; i < 2000; i++ {
		probe(time.Duration(rng.Float64() * (horizon + 50) * float64(time.Second)))
	}
	// Exact boundaries are the edge the search must get right.
	for _, b := range boundaries[:min(len(boundaries), 200)] {
		probe(time.Duration(b * float64(time.Second)))
	}
}

// The micro-benchmark behind the fix: every drain event calls at() twice,
// so a 10k-phase horizon made each drain a 10k-element scan. Run with
// -bench PauseIntegrator to compare.
func benchmarkPauseLookup(b *testing.B, linear bool) {
	const rate = 100 * units.KBPS
	const horizon = 35000.0 // ~10k phases at mean play 5s + pause 2s
	integ := pauseIntegrator(sim.NewRNG(7), rate, 5.0, 2.0, horizon)
	boundaries, consumed := pausePhases(sim.NewRNG(7), rate, 5.0, 2.0, horizon)
	probes := make([]time.Duration, 1024)
	rng := sim.NewRNG(99)
	for i := range probes {
		probes[i] = time.Duration(rng.Float64() * horizon * float64(time.Second))
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		x := probes[i%len(probes)]
		if linear {
			sink += linearPauseAt(boundaries, consumed, rate, x)
		} else {
			sink += float64(integ(0, x))
		}
	}
	_ = sink
}

func BenchmarkPauseIntegratorBinarySearch(b *testing.B) { benchmarkPauseLookup(b, false) }
func BenchmarkPauseIntegratorLinearScan(b *testing.B)   { benchmarkPauseLookup(b, true) }

// traceIntegrator returns the consumption integral of a piecewise-constant
// rate profile with interval length dt; offsets are measured from playback
// start and the profile repeats beyond its end.
//
// The steady-state rig consumes traces through consTables (state.go),
// which reproduces this arithmetic over shared arrays; the closure form
// survives as the behavioral reference the equivalence tests compare
// against.
func traceIntegrator(trace []units.ByteRate, dt time.Duration) func(from, to time.Duration) units.Bytes {
	prefix := make([]float64, len(trace)+1) // bytes consumed by end of interval i
	for i, r := range trace {
		prefix[i+1] = prefix[i] + float64(r)*dt.Seconds()
	}
	total := prefix[len(trace)]
	span := time.Duration(len(trace)) * dt
	at := func(t time.Duration) float64 {
		if t <= 0 {
			return 0
		}
		wraps := float64(t / span)
		rem := t % span
		i := int(rem / dt)
		frac := float64(rem%dt) / float64(dt)
		return wraps*total + prefix[i] + (prefix[i+1]-prefix[i])*frac
	}
	return func(from, to time.Duration) units.Bytes {
		return units.Bytes(at(to) - at(from))
	}
}

// pauseIntegrator builds a consumption integral for a play/pause process:
// alternating exponentially distributed play (consuming at rate) and
// pause (consuming nothing) phases, precomputed out to horizon seconds.
//
// Like traceIntegrator, this closure form is the behavioral reference for
// consTables.addPause/pauseAt, which the rig uses in steady state.
func pauseIntegrator(rng *sim.RNG, rate units.ByteRate, meanPlay, meanPause, horizon float64) func(from, to time.Duration) units.Bytes {
	// boundaries[i] alternates play-end, pause-end, ...; consumed[i] is the
	// cumulative consumption at boundaries[i].
	var boundaries []float64
	var consumed []float64
	t, c := 0.0, 0.0
	playing := true
	for t < horizon {
		var d float64
		if playing {
			d = rng.Exp(meanPlay)
			c += float64(rate) * d
		} else {
			d = rng.Exp(meanPause)
		}
		t += d
		boundaries = append(boundaries, t)
		consumed = append(consumed, c)
		playing = !playing
	}
	// The scheduler drains every player each cycle, so at() runs O(cycles)
	// times per stream; a linear scan over all boundaries made each drain
	// O(phases) and a run O(n²). Binary search over the sorted boundary
	// list keeps each lookup O(log n).
	at := func(x time.Duration) float64 {
		xs := x.Seconds()
		if xs <= 0 || len(boundaries) == 0 {
			return 0
		}
		i := sort.SearchFloat64s(boundaries, xs) // first boundary ≥ xs
		if i == len(boundaries) {
			return consumed[len(consumed)-1] // beyond the horizon: treat as paused
		}
		prevT, prevC := 0.0, 0.0
		if i > 0 {
			prevT, prevC = boundaries[i-1], consumed[i-1]
		}
		if i%2 == 0 { // inside a play phase
			return prevC + float64(rate)*(xs-prevT)
		}
		return prevC // inside a pause phase
	}
	return func(from, to time.Duration) units.Bytes {
		return units.Bytes(at(to) - at(from))
	}
}
