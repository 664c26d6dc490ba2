package disk

import (
	"slices"
	"time"

	"memstream/internal/device"
)

// Policy names the order a Scheduler services requests in. There is one,
// C-LOOK; the Policy argument of NewScheduler stays only until the
// benchmark's own change drops it (ROADMAP item 1(a)).
type Policy uint8

// CLook sweeps cylinders in one direction, then jumps back to the lowest
// pending cylinder (the elevator variant most drives use; the paper's disk
// IO scheduler "uses elevator scheduling to optimize for disk
// utilization").
const CLook Policy = 0

// Scheduler orders pending requests for a disk Device in C-LOOK order.
//
// The pending set lives in one arrival-ordered slice with a removed mark
// per entry instead of a queue that shifts on every removal. Each request's
// cylinder is resolved once, at Enqueue, into a packed key
//
//	cylinder<<32 | arrival index
//
// which the sweep sorts. A batch's sweep order is a property of the batch:
// the first pick after an enqueue burst orders the keys once, with a stable
// byte radix over the cylinder bits. Keys enter in arrival order within
// every cylinder, so stability alone gives the (cylinder, arrival) order —
// the pick order of the historical arrival-order scan, including its
// tie-breaks (earliest arrival at equal cylinder, earliest arrival among
// the wrap candidates).
//
// Picks then walk the sorted keys with a sweep cursor. The invariant is
// that every sorted position in [lo, cursor) is already dispatched. The
// next pick is the first live position at or after the lower bound of the
// head's cylinder; whenever that bound falls inside [lo, cursor] — the
// head moved forward over requests this scheduler itself served, which is
// every pick of an undisturbed sweep — the answer is the first live
// position from cursor on, with no search. The shortcut is void, and the
// pick falls back to a binary search that re-anchors lo, when the bound
// lies outside the window: the sweep wrapped, a request spanning several
// cylinders carried the head past the next key, or another scheduler
// sharing the Device moved its head between two of our dispatches
// (overlapping cycles do). An Enqueue voids the whole index.
//
// All storage is reused across batches, and Rebind re-arms a pooled
// Scheduler for another device, so steady-state scheduling allocates
// nothing.
type Scheduler struct {
	dev *Device

	reqs    []device.Request // every enqueued request, arrival order
	removed []bool           // removed[i]: reqs[i] already dispatched
	live    int

	// keys holds one packed key per request: in arrival order until a
	// build sorts it.
	keys []uint64
	tmp  []uint64 // radix scatter buffer

	// Sweep state, valid while built and no Enqueue intervened.
	built      bool
	next       []int32 // skip pointers over dispatched sorted positions
	lo, cursor int     // sorted positions [lo, cursor) are all dispatched
}

// radixMin is the batch size below which a comparison sort of the packed
// keys beats the radix passes' fixed histogram cost.
const radixMin = 64

// NewScheduler wraps dev in a C-LOOK scheduler.
func NewScheduler(dev *Device, _ Policy) *Scheduler {
	return &Scheduler{dev: dev}
}

// Rebind resets a (typically pooled) Scheduler for a fresh batch against
// dev, keeping all backing storage.
func (s *Scheduler) Rebind(dev *Device) {
	s.dev = dev
	s.reset()
}

func (s *Scheduler) reset() {
	s.reqs = s.reqs[:0]
	s.removed = s.removed[:0]
	s.keys = s.keys[:0]
	s.live = 0
	s.built = false
}

// Enqueue adds a request to the pending queue.
func (s *Scheduler) Enqueue(r device.Request) {
	cyl := s.dev.Cylinder(r.Block)
	s.keys = append(s.keys, uint64(uint32(cyl))<<32|uint64(uint32(len(s.reqs))))
	s.reqs = append(s.reqs, r)
	s.removed = append(s.removed, false)
	s.live++
	s.built = false
}

// Len reports the number of pending requests.
func (s *Scheduler) Len() int { return s.live }

// build sorts the keys into sweep order and resets the cursor. On a
// rebuild after dispatches the served keys stay in and are skipped like
// any other dispatched position; they and the late arrivals still come in
// arrival order within each cylinder, which is all the stable sort needs.
func (s *Scheduler) build() {
	s.sortKeys()
	s.next = grow(s.next, len(s.keys))
	for p := range s.next {
		s.next[p] = int32(p + 1)
	}
	s.lo, s.cursor = 0, 0
	s.built = true
}

// sortKeys orders keys by cylinder, stably: an LSD byte radix over the
// high 32 bits that skips every byte the whole batch agrees on (a drive's
// cylinder count rarely needs more than three).
func (s *Scheduler) sortKeys() {
	n := len(s.keys)
	if n < radixMin {
		slices.Sort(s.keys)
		return
	}
	var counts [4][256]int32
	for _, k := range s.keys {
		counts[0][byte(k>>32)]++
		counts[1][byte(k>>40)]++
		counts[2][byte(k>>48)]++
		counts[3][byte(k>>56)]++
	}
	s.tmp = grow(s.tmp, n)
	src, dst := s.keys, s.tmp
	for pass := range counts {
		cnt, shift := &counts[pass], 32+8*uint(pass)
		if int(cnt[byte(src[0]>>shift)]) == n {
			continue
		}
		var sum int32
		for b, c := range cnt {
			cnt[b] = sum
			sum += c
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[cnt[b]] = k
			cnt[b]++
		}
		src, dst = dst, src
	}
	s.keys, s.tmp = src, dst
}

// skipLive advances a sorted position past dispatched entries, following
// and path-compressing the skip pointers so repeated picks stay near O(1).
func (s *Scheduler) skipLive(p int) int {
	n := len(s.keys)
	p0 := p
	for p < n && s.removed[uint32(s.keys[p])] {
		p = int(s.next[p])
	}
	for p0 < p && p0 < n {
		nx := int(s.next[p0])
		s.next[p0] = int32(p)
		p0 = nx
	}
	return p
}

// pick returns the arrival index of the next request in the sweep.
func (s *Scheduler) pick() int {
	if !s.built {
		s.build()
	}
	bound := uint64(s.dev.cyl) << 32 // below every key at the head's cylinder
	n := len(s.keys)
	// The lower bound of the head's cylinder lies in [lo, cursor] when the
	// key before lo is below it and the key at cursor is not.
	if s.cursor >= n || s.keys[s.cursor] < bound || (s.lo > 0 && s.keys[s.lo-1] >= bound) {
		s.lo, _ = slices.BinarySearch(s.keys, bound)
		s.cursor = s.lo
	}
	p := s.skipLive(s.cursor)
	if p >= n {
		// Wrap the sweep to the lowest pending cylinder.
		s.lo = 0
		p = s.skipLive(0)
	}
	s.cursor = p + 1
	return int(uint32(s.keys[p]))
}

// Dispatch services the next request in the sweep, starting at now.
func (s *Scheduler) Dispatch(now time.Duration) (c device.Completion, ok bool, err error) {
	if s.live == 0 {
		return device.Completion{}, false, nil
	}
	i := s.pick()
	r := s.reqs[i]
	s.removed[i] = true
	s.live--
	if s.live == 0 {
		s.reset() // batch drained: recycle the arrays for the next burst
	}
	c, err = s.dev.Service(now, r)
	if err != nil {
		return device.Completion{}, false, err
	}
	return c, true, nil
}

// DrainAll services every queued request back-to-back starting at now.
func (s *Scheduler) DrainAll(now time.Duration) ([]device.Completion, error) {
	out := make([]device.Completion, 0, s.live)
	t := now
	for s.live > 0 {
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

// grow resizes a reusable scratch slice to n without preserving contents.
func grow[T int32 | uint64](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}
