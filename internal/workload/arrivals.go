package workload

import (
	"fmt"
	"time"

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

// AdmissionStats summarizes one loss system's run of a session process:
// sessions offered, admitted and blocked, the peak and time-averaged
// count in flight, and the blocking probability.
type AdmissionStats struct {
	Offered   int
	Admitted  int
	Rejected  int
	PeakBusy  int
	AvgBusy   float64
	BlockProb float64
}
