package schedule

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"memstream/internal/model"
	"memstream/internal/units"
)

// MixedAdmission is an admission controller for heterogeneous stream
// rates. The paper's model takes (N, B̄) with B̄ the average bit-rate of
// the streams serviced; this controller maintains that average over the
// currently admitted population and re-checks Theorem 1 feasibility for
// every candidate.
//
// The population is kept as a rate-sorted table of (rate, count) classes,
// not one entry per stream: Theorem 1 needs only N and Σ rate, and a live
// server sees a handful of distinct rates, so a decision costs a binary
// search plus one pass over the classes and allocates nothing. The
// aggregate is defined as Σ rate·count taken in ascending rate order —
// a pure function of the admitted multiset, so the same population gives
// the same bits whatever order it was admitted and released in, and an
// emptied controller reads exactly 0. On integer-valued rates (every sum
// below 2⁵³ is exact) that equals summing the streams one by one.
type MixedAdmission struct {
	Disk    model.DeviceSpec
	DRAMCap units.Bytes // 0 = unlimited

	classes []rateClass // ascending by rate, every count > 0
	n       int         // Σ count
}

// rateClass is the admitted streams that share one rate.
type rateClass struct {
	rate  units.ByteRate
	count int
}

// Admitted returns the committed stream count.
func (a *MixedAdmission) Admitted() int { return a.n }

// Aggregate returns the admitted population's total bandwidth.
func (a *MixedAdmission) Aggregate() units.ByteRate {
	var sum float64
	for _, c := range a.classes {
		sum += float64(c.rate) * float64(c.count)
	}
	return units.ByteRate(sum)
}

// find returns the index of rate's class, or where it would be inserted.
func (a *MixedAdmission) find(rate units.ByteRate) (int, bool) {
	i := sort.Search(len(a.classes), func(i int) bool { return a.classes[i].rate >= rate })
	return i, i < len(a.classes) && a.classes[i].rate == rate
}

// remove takes one stream out of class i, dropping the class when empty.
func (a *MixedAdmission) remove(i int) {
	a.n--
	if a.classes[i].count--; a.classes[i].count == 0 {
		a.classes = slices.Delete(a.classes, i, i+1)
	}
}

// feasible evaluates Theorem 1 for the current population.
func (a *MixedAdmission) feasible() bool {
	if a.n == 0 {
		return true
	}
	load := model.StreamLoad{N: a.n, BitRate: a.Aggregate() / units.ByteRate(a.n)}
	plan, err := model.DiskDirect(load, a.Disk)
	if err != nil {
		return false
	}
	return a.DRAMCap == 0 || plan.TotalDRAM <= a.DRAMCap
}

// TryAdmit attempts to admit a stream at the given rate, committing it if
// the resulting population remains feasible.
func (a *MixedAdmission) TryAdmit(rate units.ByteRate) (bool, error) {
	// NaN fails every comparison, so test for the accepted range: a NaN
	// key would also break the table's ordering.
	if !(rate > 0) || math.IsInf(float64(rate), 1) {
		return false, fmt.Errorf("schedule: non-positive rate %v", rate)
	}
	i, found := a.find(rate)
	if found {
		a.classes[i].count++
	} else {
		a.classes = slices.Insert(a.classes, i, rateClass{rate: rate, count: 1})
	}
	a.n++
	if !a.feasible() {
		a.remove(i)
		return false, nil
	}
	return true, nil
}

// Release removes one admitted stream of the given rate. It reports
// whether such a stream was present.
func (a *MixedAdmission) Release(rate units.ByteRate) bool {
	i, found := a.find(rate)
	if !found {
		return false
	}
	a.remove(i)
	return true
}

// ReleaseAll removes every admitted stream and returns how many were
// released. A serving front-end that force-closes its remaining
// connections after a drain deadline uses this to guarantee no admission
// capacity stays pinned by connections that never unwound normally.
func (a *MixedAdmission) ReleaseAll() int {
	n := a.n
	a.classes, a.n = a.classes[:0], 0
	return n
}
