package workload

import (
	"fmt"
	"math"
	"slices"
	"time"

	"memstream/internal/sim"
	"memstream/internal/units"
)

// SessionProcess generates a stream of viewer sessions: Poisson arrivals
// with exponentially distributed holding times — the standard teletraffic
// model for on-demand viewing. The paper's evaluation works with a fixed
// population N; this process drives the admission-control dynamics the
// served population emerges from.
type SessionProcess struct {
	ArrivalRate float64       // sessions per second
	MeanHold    time.Duration // mean session length
	BitRate     units.ByteRate
}

// Validate checks the process parameters.
func (p SessionProcess) Validate() error {
	if p.ArrivalRate <= 0 {
		return fmt.Errorf("workload: non-positive arrival rate %g", p.ArrivalRate)
	}
	if p.MeanHold <= 0 {
		return fmt.Errorf("workload: non-positive mean hold %v", p.MeanHold)
	}
	if p.BitRate <= 0 {
		return fmt.Errorf("workload: non-positive bit-rate %v", p.BitRate)
	}
	return nil
}

// OfferedLoad is the Erlang offered load a = λ·E[hold]: the stationary
// mean of concurrently active sessions were none rejected.
func (p SessionProcess) OfferedLoad() float64 {
	return p.ArrivalRate * p.MeanHold.Seconds()
}

// Session is one generated viewing session.
type Session struct {
	ID      int
	Arrive  time.Duration
	Hold    time.Duration
	BitRate units.ByteRate
}

// Generate draws sessions arriving within the horizon.
func (p SessionProcess) Generate(rng *sim.RNG, horizon time.Duration) ([]Session, error) {
	return p.AppendSessions(nil, rng, horizon)
}

// maxSizeHint caps SizeHint (8 MiB of sessions): past it a trace grows by
// append-doubling, so a hostile rate cannot make Generate allocate
// unboundedly before it has drawn a single arrival.
const maxSizeHint = 1 << 18

// SizeHint is a session count a trace over horizon is unlikely to exceed:
// the Poisson mean λ·horizon plus six standard deviations, bounded by the
// one-session-per-nanosecond floor Generate enforces and by maxSizeHint.
func (p SessionProcess) SizeHint(horizon time.Duration) int {
	mean := p.ArrivalRate * horizon.Seconds()
	n := math.Min(mean+6*math.Sqrt(mean)+1, float64(horizon))
	if !(n < maxSizeHint) { // also NaN and +Inf, from a process Validate rejects
		return maxSizeHint
	}
	return max(int(n), 0)
}

// AppendSessions draws the sessions arriving within the horizon, IDs
// numbered from 0, and appends them to dst — Generate into a buffer the
// caller reuses. A dst without room for SizeHint sessions is grown to
// that capacity once, before the first draw.
func (p SessionProcess) AppendSessions(dst []Session, rng *sim.RNG, horizon time.Duration) ([]Session, error) {
	if err := p.Validate(); err != nil {
		return dst, err
	}
	if horizon <= 0 {
		return dst, fmt.Errorf("workload: non-positive horizon %v", horizon)
	}
	dst = slices.Grow(dst, p.SizeHint(horizon))
	t := time.Duration(0)
	id := 0
	for {
		gap := units.Seconds(rng.Exp(1 / p.ArrivalRate))
		// At very high arrival rates the exponential draw truncates to a
		// zero duration; without a floor t would stop advancing and the
		// loop would grow dst until OOM. One nanosecond is the finest
		// spacing the time base can express anyway.
		if gap <= 0 {
			gap = 1
		}
		t += gap
		if t >= horizon {
			return dst, nil
		}
		dst = append(dst, Session{
			ID:      id,
			Arrive:  t,
			Hold:    units.Seconds(rng.Exp(p.MeanHold.Seconds())),
			BitRate: p.BitRate,
		})
		id++
	}
}

// AdmissionStats summarizes an admission-controlled run of a session
// trace.
type AdmissionStats struct {
	Offered   int
	Admitted  int
	Rejected  int
	PeakBusy  int
	AvgBusy   float64
	BlockProb float64
}

// ReplayAdmission drives a session trace through an admission test once;
// see Replay for the trace's contract and for replaying one trace against
// several tests. Holds must be non-negative.
func ReplayAdmission(sessions []Session, capacity func(busy int) bool) AdmissionStats {
	r := NewReplay(len(sessions))
	r.Reset(sessions)
	return r.Admission(capacity)
}
