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
