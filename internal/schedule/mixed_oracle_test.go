package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"memstream/internal/model"
	"memstream/internal/units"
)

// sliceAdmission is the reference MixedAdmission: one slice entry per
// admitted stream, copied and re-summed in admission order for every
// candidate. It was the production implementation until the class table
// replaced it; the class table must decide exactly as it does.
type sliceAdmission struct {
	Disk    model.DeviceSpec
	DRAMCap units.Bytes

	rates []units.ByteRate
}

func (a *sliceAdmission) Admitted() int { return len(a.rates) }

func (a *sliceAdmission) Aggregate() units.ByteRate {
	var sum float64
	for _, r := range a.rates {
		sum += float64(r)
	}
	return units.ByteRate(sum)
}

func (a *sliceAdmission) feasible(rates []units.ByteRate) bool {
	n := len(rates)
	if n == 0 {
		return true
	}
	var sum float64
	for _, r := range rates {
		sum += float64(r)
	}
	load := model.StreamLoad{N: n, BitRate: units.ByteRate(sum / float64(n))}
	plan, err := model.DiskDirect(load, a.Disk)
	if err != nil {
		return false
	}
	return a.DRAMCap == 0 || plan.TotalDRAM <= a.DRAMCap
}

func (a *sliceAdmission) TryAdmit(rate units.ByteRate) (bool, error) {
	if rate <= 0 {
		return false, fmt.Errorf("schedule: non-positive rate %v", rate)
	}
	candidate := append(append([]units.ByteRate{}, a.rates...), rate)
	if !a.feasible(candidate) {
		return false, nil
	}
	a.rates = candidate
	return true, nil
}

func (a *sliceAdmission) Release(rate units.ByteRate) bool {
	for i, r := range a.rates {
		if r == rate {
			a.rates = append(a.rates[:i], a.rates[i+1:]...)
			return true
		}
	}
	return false
}

func (a *sliceAdmission) ReleaseAll() int {
	n := len(a.rates)
	a.rates = a.rates[:0]
	return n
}

// ulpsApart is how many representable float64 values lie between a and b.
func ulpsApart(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x < y {
		x, y = y, x
	}
	return x - y
}

// rateMix is one family of admission programs: the rates streams ask for
// and the DRAM budget they compete under.
type rateMix struct {
	name    string
	dramCap units.Bytes
	draw    func(rng *rand.Rand) units.ByteRate
	// exact mixes have integer-valued rates, so every sum either
	// implementation forms is exact and the aggregates must agree to the
	// bit. Otherwise the two summation orders may round differently.
	exact bool
	// edge mixes must drive the population into refusals.
	edge bool
}

func pick(rates ...units.ByteRate) func(*rand.Rand) units.ByteRate {
	return func(rng *rand.Rand) units.ByteRate { return rates[rng.Intn(len(rates))] }
}

var rateMixes = []rateMix{
	// The benchmark's burst: three slow streams to one fast.
	{"two-class", 64 * units.GB, pick(10*units.KBPS, 10*units.KBPS, 10*units.KBPS, 100*units.KBPS), true, false},
	{"two-class-uncapped", 0, pick(10*units.KBPS, 10*units.KBPS, 10*units.KBPS, 100*units.KBPS), true, false},
	{"many-class", 1 * units.GB, func(rng *rand.Rand) units.ByteRate {
		return units.ByteRate(1+rng.Intn(40)) * 25 * units.KBPS
	}, true, false},
	{"all-distinct", 1 * units.GB, func(rng *rand.Rand) units.ByteRate {
		return units.ByteRate(1 + rng.Int63n(1<<40))
	}, true, false},
	// Heavy streams against a small budget and against the disk's own
	// rate: most of the program runs at the feasibility edge, where one
	// more stream is refused and a release lets the next one in.
	{"dram-edge", 4 * units.MB, pick(1*units.MBPS, 2*units.MBPS, 5*units.MBPS), true, true},
	{"bandwidth-edge", 0, pick(7*units.MBPS, 11*units.MBPS, 13*units.MBPS), true, true},
	// Rates that are not integers, nor short binary fractions.
	{"fractional", 1 * units.GB, func(rng *rand.Rand) units.ByteRate {
		return units.ByteRate(float64(1+rng.Intn(12)) * 1e5 / 3)
	}, false, false},
}

// Random admit/release/ReleaseAll programs against the slice oracle: the
// class table must take the same decision at every step and report the
// same population.
func TestMixedMatchesSliceOracle(t *testing.T) {
	for _, mix := range rateMixes {
		t.Run(mix.name, func(t *testing.T) {
			var refused, released int
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				got := testAdmission(mix.dramCap)
				want := &sliceAdmission{Disk: got.Disk, DRAMCap: mix.dramCap}
				var live []units.ByteRate // what the program believes is admitted
				for step := 0; step < 400; step++ {
					switch op := rng.Intn(100); {
					case op < 60:
						rate := mix.draw(rng)
						okWant, errWant := want.TryAdmit(rate)
						okGot, errGot := got.TryAdmit(rate)
						if okGot != okWant || (errGot == nil) != (errWant == nil) {
							t.Fatalf("seed %d step %d: TryAdmit(%v) = %v, %v; oracle %v, %v",
								seed, step, rate, okGot, errGot, okWant, errWant)
						}
						if okWant {
							live = append(live, rate)
						} else {
							refused++
						}
					case op < 95:
						rate := mix.draw(rng) // present or absent, as it falls
						if len(live) > 0 && rng.Intn(4) > 0 {
							rate = live[rng.Intn(len(live))]
						}
						rWant, rGot := want.Release(rate), got.Release(rate)
						if rGot != rWant {
							t.Fatalf("seed %d step %d: Release(%v) = %v; oracle %v", seed, step, rate, rGot, rWant)
						}
						if rWant {
							i := slices.Index(live, rate)
							live[i] = live[len(live)-1]
							live = live[:len(live)-1]
							released++
						}
					default:
						if nGot, nWant := got.ReleaseAll(), want.ReleaseAll(); nGot != nWant {
							t.Fatalf("seed %d step %d: ReleaseAll = %d; oracle %d", seed, step, nGot, nWant)
						}
						live = live[:0]
					}
					if got.Admitted() != want.Admitted() || got.Admitted() != len(live) {
						t.Fatalf("seed %d step %d: Admitted = %d; oracle %d, program %d",
							seed, step, got.Admitted(), want.Admitted(), len(live))
					}
					g, w := float64(got.Aggregate()), float64(want.Aggregate())
					if mix.exact && g != w {
						t.Fatalf("seed %d step %d: Aggregate = %v; oracle %v", seed, step, g, w)
					}
					// The oracle rounds once per stream it adds, the class
					// table once per class: a rounding each moves the sum by
					// at most one ulp, and in practice they mostly cancel.
					if d := ulpsApart(g, w); d > uint64(len(live)) {
						t.Fatalf("seed %d step %d: Aggregate %v is %d ulps from the oracle's %v (n=%d)",
							seed, step, g, d, w, len(live))
					}
				}
			}
			if released == 0 {
				t.Error("no program released a stream")
			}
			if mix.edge && refused == 0 {
				t.Error("no program reached the feasibility edge")
			}
		})
	}
}

// The aggregate is a function of the admitted multiset alone: any admit
// order, with any detour through streams that are released again, gives
// the same bits; and releasing everything one by one returns exactly 0.
func TestMixedAggregateOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	population := make([]units.ByteRate, 600)
	for i := range population {
		// Non-representable thirds, so order-dependent rounding would show.
		population[i] = units.ByteRate(float64(1+rng.Intn(9)) * 1e4 / 3)
	}
	var want units.ByteRate
	for trial := 0; trial < 10; trial++ {
		a := testAdmission(0)
		detour := units.ByteRate(float64(1+trial) * 1e3 / 7)
		for _, i := range rng.Perm(len(population)) {
			if ok, err := a.TryAdmit(population[i]); err != nil || !ok {
				t.Fatalf("trial %d: TryAdmit(%v) = %v, %v", trial, population[i], ok, err)
			}
			if i%5 == 0 {
				if ok, _ := a.TryAdmit(detour); ok && !a.Release(detour) {
					t.Fatalf("trial %d: detour stream not found", trial)
				}
			}
		}
		if trial == 0 {
			want = a.Aggregate()
		} else if got := a.Aggregate(); got != want {
			t.Errorf("trial %d: Aggregate = %v, want %v (same multiset, other order)",
				trial, float64(got), float64(want))
		}
		for _, i := range rng.Perm(len(population)) {
			if !a.Release(population[i]) {
				t.Fatalf("trial %d: Release(%v) = false", trial, population[i])
			}
		}
		if a.Admitted() != 0 || a.Aggregate() != 0 {
			t.Errorf("trial %d: after releasing all: Admitted = %d, Aggregate = %v; want 0, 0",
				trial, a.Admitted(), float64(a.Aggregate()))
		}
	}
}

func TestMixedRejectsNonFiniteRate(t *testing.T) {
	a := testAdmission(1 * units.GB)
	if ok, err := a.TryAdmit(100 * units.KBPS); err != nil || !ok {
		t.Fatalf("TryAdmit = %v, %v", ok, err)
	}
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if ok, err := a.TryAdmit(units.ByteRate(rate)); ok || err == nil {
			t.Errorf("TryAdmit(%v) = %v, %v; want false and an error", rate, ok, err)
		}
		if a.Release(units.ByteRate(rate)) {
			t.Errorf("Release(%v) of a rate never admitted returned true", rate)
		}
	}
	if got := a.Admitted(); got != 1 {
		t.Errorf("Admitted = %d after refused rates, want 1", got)
	}
	if got := a.Aggregate(); got != 100*units.KBPS {
		t.Errorf("Aggregate = %v after refused rates, want 100KB/s", got)
	}
	if a.Release(50 * units.KBPS) {
		t.Error("Release of an absent rate returned true")
	}
	if got := a.ReleaseAll(); got != 1 {
		t.Errorf("ReleaseAll = %d, want 1", got)
	}
}

// standingAdmission is the benchmark's burst at population n: three slow
// streams to one fast, all admitted.
func standingAdmission(tb testing.TB, n int) *MixedAdmission {
	a := testAdmission(64 * units.GB)
	for i := 0; i < n; i++ {
		rate := 10 * units.KBPS
		if i%4 == 3 {
			rate = 100 * units.KBPS
		}
		if ok, err := a.TryAdmit(rate); err != nil || !ok {
			tb.Fatalf("standing stream %d: TryAdmit = %v, %v", i, ok, err)
		}
	}
	return a
}

// ROADMAP item 4c: admitting and releasing a stream allocates nothing,
// whether its rate has a class already or opens one.
func TestMixedAdmitZeroAllocs(t *testing.T) {
	a := standingAdmission(t, 4000)
	for _, rate := range []units.ByteRate{100 * units.KBPS, 55 * units.KBPS} {
		a.TryAdmit(rate) // grow the table once, outside the measurement
		a.Release(rate)
		allocs := testing.AllocsPerRun(200, func() {
			if ok, err := a.TryAdmit(rate); err != nil || !ok {
				t.Fatalf("TryAdmit(%v) = %v, %v", rate, ok, err)
			}
			if !a.Release(rate) {
				t.Fatalf("Release(%v) = false", rate)
			}
		})
		if allocs != 0 {
			t.Errorf("admit + release at %v: %v allocs, want 0", rate, allocs)
		}
	}
	if got := a.Admitted(); got != 4000 {
		t.Errorf("Admitted = %d, want 4000", got)
	}
}

func BenchmarkMixedAdmit(b *testing.B) {
	for _, n := range []int{64, 4000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := standingAdmission(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ok, _ := a.TryAdmit(100 * units.KBPS); ok {
					a.Release(100 * units.KBPS)
				}
			}
		})
	}
}
