// Package schedule implements the IO-scheduling layer of the streaming
// server: time-cycle (QPMS-style) schedules in which every stream receives
// exactly one IO per cycle, an admission controller backed by the
// analytical model, and an EDF scheduler as the baseline the literature
// compares against (paper §6).
package schedule

import (
	"container/heap"
	"fmt"
	"time"

	"memstream/internal/model"
	"memstream/internal/units"
)

// Entry is one stream's slot within a time cycle.
type Entry struct {
	Stream int
	IOSize units.Bytes
}

// TimeCycle is a fixed-order, fixed-period IO schedule: in each period
// every entry receives exactly one IO, always in the same order (paper §3:
// "the IO scheduler services the streams in the same order in each
// time-cycle").
type TimeCycle struct {
	Period  time.Duration
	Entries []Entry
}

// NewTimeCycle builds a schedule from a feasible direct plan: N equal
// slots of the plan's IO size at the plan's period.
func NewTimeCycle(n int, plan model.DirectPlan) (*TimeCycle, error) {
	if n <= 0 {
		return nil, fmt.Errorf("schedule: need at least one stream")
	}
	if plan.Cycle <= 0 || plan.IOSize <= 0 {
		return nil, fmt.Errorf("schedule: degenerate plan %+v", plan)
	}
	tc := &TimeCycle{Period: plan.Cycle, Entries: make([]Entry, n)}
	for i := range tc.Entries {
		tc.Entries[i] = Entry{Stream: i, IOSize: plan.IOSize}
	}
	return tc, nil
}

// Validate checks internal consistency.
func (tc *TimeCycle) Validate() error {
	if tc.Period <= 0 {
		return fmt.Errorf("schedule: non-positive period %v", tc.Period)
	}
	if len(tc.Entries) == 0 {
		return fmt.Errorf("schedule: empty cycle")
	}
	for _, e := range tc.Entries {
		if e.IOSize <= 0 {
			return fmt.Errorf("schedule: stream %d has non-positive IO size", e.Stream)
		}
	}
	return nil
}

// Admission is an admission controller: it tracks the committed stream
// population and admits a new stream only if the model still finds a
// feasible schedule within the DRAM budget.
type Admission struct {
	Disk    model.DeviceSpec
	BitRate units.ByteRate
	DRAMCap units.Bytes // 0 = unlimited

	admitted int
}

// Admitted returns the committed stream count.
func (a *Admission) Admitted() int { return a.admitted }

// TryAdmit attempts to admit one more stream; it reports whether the new
// population remains feasible, and commits it if so.
func (a *Admission) TryAdmit() (bool, error) {
	n := a.admitted + 1
	plan, err := model.DiskDirect(model.StreamLoad{N: n, BitRate: a.BitRate}, a.Disk)
	if err != nil {
		return false, nil // infeasible, not an error of the controller
	}
	if a.DRAMCap > 0 && plan.TotalDRAM > a.DRAMCap {
		return false, nil
	}
	a.admitted = n
	return true, nil
}

// Release removes one stream from the committed population.
func (a *Admission) Release() {
	if a.admitted > 0 {
		a.admitted--
	}
}

// Deadline is a pending request with a completion deadline, for EDF.
type Deadline struct {
	Stream   int
	IOSize   units.Bytes
	Deadline time.Duration
	index    int
}

// EDF is an earliest-deadline-first queue, the baseline real-time disk
// scheduler (Daigle & Strosnider) contrasted with time-cycle scheduling.
type EDF struct {
	h edfHeap
}

type edfHeap []*Deadline

func (h edfHeap) Len() int           { return len(h) }
func (h edfHeap) Less(i, j int) bool { return h[i].Deadline < h[j].Deadline }
func (h edfHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].index, h[j].index = i, j }
func (h *edfHeap) Push(x any)        { d := x.(*Deadline); d.index = len(*h); *h = append(*h, d) }
func (h *edfHeap) Pop() any {
	old := *h
	n := len(old)
	d := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return d
}

// Push queues a request.
func (e *EDF) Push(d *Deadline) { heap.Push(&e.h, d) }

// Pop removes and returns the request with the earliest deadline, or nil
// when empty.
func (e *EDF) Pop() *Deadline {
	if len(e.h) == 0 {
		return nil
	}
	return heap.Pop(&e.h).(*Deadline)
}

// Len reports queued requests.
func (e *EDF) Len() int { return len(e.h) }
