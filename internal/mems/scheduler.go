package mems

import (
	"fmt"
	"time"

	"memstream/internal/device"
	"memstream/internal/ring"
)

// Policy selects the order in which queued requests are serviced.
type Policy uint8

// Scheduling policies.
const (
	// FCFS services requests in arrival order.
	FCFS Policy = iota
	// SPTF services the request with the shortest positioning time from
	// the current sled position (greedy, like disk SPTF).
	SPTF
	// Elevator sweeps the cylinders in alternating directions.
	Elevator
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "fcfs"
	case SPTF:
		return "sptf"
	case Elevator:
		return "elevator"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Scheduler orders pending requests for a Device and services them one at a
// time. It is a pure in-simulation component: Next/Dispatch advance the
// device's state; the caller owns simulated time. The pending queue is a
// ring buffer: FCFS dispatch (pick index 0) is O(1) instead of the O(n)
// slice shift it used to be, and the positioning-aware policies scan it
// in arrival order exactly as before.
type Scheduler struct {
	dev    *Device
	policy Policy
	queue  ring.Ring[device.Request]
	sweep  int // elevator direction
}

// NewScheduler wraps dev with the given policy.
func NewScheduler(dev *Device, policy Policy) *Scheduler {
	return &Scheduler{dev: dev, policy: policy, sweep: 1}
}

// Enqueue adds a request to the pending queue.
func (s *Scheduler) Enqueue(r device.Request) { s.queue.PushBack(r) }

// Len reports the number of pending requests.
func (s *Scheduler) Len() int { return s.queue.Len() }

// pick returns the index of the next request to service.
func (s *Scheduler) pick() int {
	switch s.policy {
	case SPTF:
		best, bestT := 0, time.Duration(1<<62)
		for i, n := 0, s.queue.Len(); i < n; i++ {
			if t := s.dev.SeekTime(s.queue.At(i).Block); t < bestT {
				best, bestT = i, t
			}
		}
		return best
	case Elevator:
		cur := s.dev.cyl
		best, bestD := -1, 1<<31
		// Prefer the nearest request in the sweep direction.
		for i, n := 0, s.queue.Len(); i < n; i++ {
			d := s.dev.Cylinder(s.queue.At(i).Block) - cur
			if s.sweep < 0 {
				d = -d
			}
			if d >= 0 && d < bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 {
			return best
		}
		// Nothing ahead: reverse and retry.
		s.sweep = -s.sweep
		return s.pick()
	default:
		return 0
	}
}

// Dispatch services the next request according to the policy, starting at
// simulated time now. It reports false when the queue is empty.
func (s *Scheduler) Dispatch(now time.Duration) (device.Completion, bool, error) {
	if s.queue.Len() == 0 {
		return device.Completion{}, false, nil
	}
	r := s.queue.RemoveAt(s.pick())
	c, err := s.dev.Service(now, r)
	if err != nil {
		return device.Completion{}, false, err
	}
	return c, true, nil
}

// DrainAll services every queued request back-to-back starting at now and
// returns the completions in service order.
func (s *Scheduler) DrainAll(now time.Duration) ([]device.Completion, error) {
	var out []device.Completion
	t := now
	for s.queue.Len() > 0 {
		c, ok, err := s.Dispatch(t)
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, c)
		t = c.Finish
	}
	return out, nil
}
