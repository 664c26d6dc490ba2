package workload

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"memstream/internal/sim"
	"memstream/internal/units"
)

// maxCapacities is how many loss systems one AdmissionPass runs side by
// side: an in-flight entry keeps one admitted bit per system below its
// departure time.
const maxCapacities = 8

// maxHorizon is the longest horizon whose departures fit above those bits
// (2⁵⁵ ns, about 417 days).
const maxHorizon = time.Duration(math.MaxInt64 >> maxCapacities)

// AdmissionPass replays a session process through several loss systems
// at once — the Erlang-B view of the streaming server's capacity region.
// Sessions are drawn and offered one at a time, never stored: the pass
// holds only the sessions still in flight under at least one system, in
// one binary min-heap whose entries pack the departure time above a mask
// of the systems that admitted the session. Its memory is bounded by the
// admitted population, not by the trace's length. The zero AdmissionPass
// is ready to use, and a pass keeps its heap across runs.
//
// Every statistic, AvgBusy's float64 sum included, is bit-equal to what a
// departure-heap replay of each system alone computes
// (replay_oracle_test.go): at each arrival a system integrates busy time
// over its own due departures in departure order, then up to the
// arrival. Departures tied at one instant may pop in any mask order,
// because all but the first of a system's add busy·0 = +0.
type AdmissionPass struct {
	inFlight []int64 // departure<<maxCapacities | admitted mask, a min-heap
	lanes    []lane
	offered  int
	end      time.Duration // departures at or after end never come due
	last     time.Duration // the latest arrival
}

// lane is one loss system: a session is admitted while fewer than
// capacity admitted sessions are in flight.
type lane struct {
	stats          AdmissionStats // Admitted and PeakBusy as the pass goes
	capacity, busy int
	area           float64 // busy-time integral, in stream-seconds
	last           time.Duration
}

// Run draws the sessions p offers within horizon from rng — the gap and
// hold draws, in that order, of a trace generated from the same RNG —
// offers each on arrival to one loss system per entry of caps, and
// writes system k's statistics to dst[k].
func (a *AdmissionPass) Run(p SessionProcess, rng *sim.RNG, horizon time.Duration, caps []int, dst []AdmissionStats) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if horizon <= 0 || horizon > maxHorizon || len(caps) > maxCapacities || len(dst) != len(caps) {
		return fmt.Errorf("workload: a pass takes a horizon in (0, %v] and up to %d capacities, one stats slot each; got %v, %d and %d",
			maxHorizon, maxCapacities, horizon, len(caps), len(dst))
	}
	a.begin(caps, horizon)
	meanGap, meanHold := 1/p.ArrivalRate, p.MeanHold.Seconds()
	for t := time.Duration(0); ; {
		gap := units.Seconds(rng.Exp(meanGap))
		// At very high arrival rates the exponential draw truncates to a
		// zero duration; without a floor t would stop advancing and the
		// pass would never reach the horizon. One nanosecond is the
		// finest spacing the time base can express anyway. At very low
		// rates the draw can overflow the time base instead: the
		// conversion then yields a negative duration (on amd64) or the
		// largest one, and either way the gap ends past the horizon.
		if gap == 0 {
			gap = 1
		}
		if gap < 0 || gap >= horizon-t {
			break
		}
		t += gap
		a.offer(t, units.Seconds(rng.Exp(meanHold)))
	}
	a.finish(dst)
	return nil
}

// begin starts a pass, for at most maxCapacities systems, over arrivals
// that all come before end.
func (a *AdmissionPass) begin(caps []int, end time.Duration) {
	a.inFlight, a.lanes = a.inFlight[:0], a.lanes[:0]
	for _, c := range caps {
		a.lanes = append(a.lanes, lane{capacity: c})
	}
	a.offered, a.end, a.last = 0, end, 0
}

// offer runs one arrival at t, no earlier than the last, holding for hold
// if admitted: first every due departure leaves the systems that admitted
// it, then each system integrates up to t and admits the session if it
// has room.
func (a *AdmissionPass) offer(t, hold time.Duration) {
	for len(a.inFlight) > 0 && a.inFlight[0]>>maxCapacities <= int64(t) {
		e := a.pop()
		d := time.Duration(e >> maxCapacities)
		for mask := uint(e) & (1<<maxCapacities - 1); mask != 0; mask &= mask - 1 {
			l := &a.lanes[bits.TrailingZeros(mask)]
			l.area += float64(l.busy) * (d - l.last).Seconds()
			l.last = d
			l.busy--
		}
	}
	var mask int64
	for k := range a.lanes {
		l := &a.lanes[k]
		l.area += float64(l.busy) * (t - l.last).Seconds()
		l.last = t
		if l.busy >= l.capacity {
			continue
		}
		l.busy++
		l.stats.Admitted++
		l.stats.PeakBusy = max(l.stats.PeakBusy, l.busy)
		mask |= 1 << k
	}
	a.offered++
	a.last = t
	// A departure at or after end is never due: the session stays busy
	// to the end of the pass without a heap entry. So does a hold that
	// overflowed the time base and came out negative.
	if mask != 0 && uint64(hold) < uint64(a.end-t) {
		a.push(int64(t+hold)<<maxCapacities | mask)
	}
}

// finish writes each system's statistics to dst.
func (a *AdmissionPass) finish(dst []AdmissionStats) {
	for k, l := range a.lanes {
		s := l.stats
		s.Offered, s.Rejected = a.offered, a.offered-s.Admitted
		if a.last > 0 {
			s.AvgBusy = l.area / a.last.Seconds()
		}
		if a.offered > 0 {
			s.BlockProb = float64(s.Rejected) / float64(a.offered)
		}
		dst[k] = s
	}
}

// push adds e to the in-flight heap.
func (a *AdmissionPass) push(e int64) {
	h := append(a.inFlight, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 1
		if h[parent] <= e {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	a.inFlight = h
}

// pop removes and returns the in-flight heap's minimum; the heap must not
// be empty. The hole at the root walks down the smaller children to a
// leaf, and the last entry sifts up from there: one comparison a level on
// the way down, where sifting the last entry down from the root takes
// two, and it rarely climbs far, departing late as it does. The vacated
// last slot holds a sentinel no entry loses to, so every hole on the way
// has two children, and the choice between them is a sign bit rather
// than a branch: entries are non-negative, so their difference cannot
// overflow.
func (a *AdmissionPass) pop() int64 {
	h := a.inFlight
	n := len(h) - 1
	top, e := h[0], h[n]
	h[n] = math.MaxInt64
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		c += int(uint64(h[c+1]-h[c]) >> 63) // the right child if it is smaller
		h[i] = h[c]
		i = c
	}
	for i > 0 {
		parent := (i - 1) >> 1
		if h[parent] <= e {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	a.inFlight = h[:n]
	return top
}
