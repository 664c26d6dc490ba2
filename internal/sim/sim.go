// Package sim provides a small deterministic discrete-event simulation
// kernel: a virtual clock, an event calendar ordered by (time, sequence),
// and helper resources built on top of it.
//
// The kernel is deliberately single-threaded. All device and server models
// in memstream schedule callbacks on one Engine, so a simulation run is a
// pure function of its inputs and RNG seed — which is what lets the
// experiment harness reproduce the paper's figures byte-for-byte.
//
// The hot path is allocation-free in steady state: the calendar is a
// monomorphic 4-ary min-heap of (time, seq, slot) entries, event state
// lives in a pooled slot arena recycled through a free list, Cancel is a
// lazy tombstone reclaimed at pop (or by compaction when tombstones
// outnumber live entries), and ScheduleArg carries a static callback plus
// a pointer argument so high-frequency call sites need no closure.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is simulated time measured as a duration since the start of the run.
type Time = time.Duration

// MaxTime is the largest representable simulation time.
const MaxTime = Time(math.MaxInt64)

// Event is a handle to a scheduled callback. It is a small value: copying
// it is cheap and the zero Event is inert (Cancel and At are no-ops).
//
// Handles stay safe after the underlying pooled slot is recycled: each
// slot carries a generation counter captured into the handle at schedule
// time, and Cancel on a handle whose generation no longer matches —
// because the event fired, was cancelled, or the slot now hosts a newer
// event — is a no-op.
type Event struct {
	eng  *Engine
	at   Time
	slot int32
	gen  uint32
}

// At returns the time the event fires (or fired).
func (e Event) At() Time { return e.at }

// Cancel removes the event from the calendar. Cancelling an event that has
// already fired or been cancelled — or a stale handle whose pool slot has
// been recycled for a newer event — is a no-op. Cancellation is a lazy
// tombstone: the calendar entry is skipped at pop time instead of being
// removed from the heap, so Cancel is O(1).
func (e Event) Cancel() {
	if e.eng == nil {
		return
	}
	s := &e.eng.slots[e.slot]
	if s.gen != e.gen || s.dead {
		return
	}
	s.dead = true
	e.eng.live--
	e.eng.dead++
	// Keep the calendar bounded under cancel-heavy workloads (deadline
	// timers that almost never fire): once tombstones outnumber live
	// entries, sweep them out and re-heapify in one O(n) pass.
	if e.eng.dead > len(e.eng.cal)/2 && e.eng.dead > 64 {
		e.eng.compact()
	}
}

// calEntry is one calendar slot: the (time, sequence) ordering key plus
// the index of the pooled event slot holding the callback. Keeping the key
// inline means heap sifts never touch the slot arena.
type calEntry struct {
	at   Time
	seq  uint64
	slot int32
}

// entLess orders entries by time, breaking ties by scheduling sequence so
// simultaneous events fire FIFO.
func entLess(a, b calEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventSlot is the pooled callback state. Exactly one of fn/afn is set.
type eventSlot struct {
	fn   func()
	afn  func(any)
	arg  any
	gen  uint32
	dead bool
}

// Engine is the simulation core: a clock plus an event calendar.
// The zero value is ready to use.
type Engine struct {
	now      Time
	seq      uint64
	epoch    uint64 // Resets so far; a SeqBlock is live only in the epoch that reserved it
	executed uint64
	running  bool

	cal   []calEntry  // 4-ary min-heap ordered by (at, seq)
	slots []eventSlot // event slot arena; cal entries index into it
	// vacant is set while the callback of the entry fireHead took from the
	// root runs: cal[0] still holds that fired entry, which belongs to no
	// one, and every child subtree below it is a valid heap. The first
	// push fills the root in place; fillRoot closes it otherwise.
	vacant bool

	free []int32 // recycled slot indices
	live int     // scheduled, not yet fired or cancelled
	dead int     // tombstones still sitting in cal
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many live (un-cancelled, un-fired) events are
// waiting on the calendar.
func (e *Engine) Pending() int { return e.live }

// ErrPastEvent is returned by ScheduleAt for events in the simulated past.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// Schedule runs fn after delay d (clamped to zero for negative d).
func (e *Engine) Schedule(d Time, fn func()) Event {
	if d < 0 {
		d = 0
	}
	ev, _ := e.ScheduleAt(e.now+d, fn)
	return ev
}

// ScheduleAt runs fn at absolute time at. Scheduling in the past is an
// error: device models that compute service times must never go backwards.
func (e *Engine) ScheduleAt(at Time, fn func()) (Event, error) {
	if at < e.now {
		return Event{}, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.now)
	}
	slot := e.allocSlot()
	e.slots[slot].fn = fn
	return e.enqueue(at, slot), nil
}

// ScheduleArg runs fn(arg) after delay d (clamped to zero for negative d).
// It is the zero-closure fast path for high-frequency call sites: fn is
// typically a static function and arg a pointer to long-lived state, so
// scheduling allocates nothing.
func (e *Engine) ScheduleArg(d Time, fn func(any), arg any) Event {
	e.seq++
	return e.scheduleArg(d, e.seq, fn, arg)
}

// scheduleArg queues fn(arg) after delay d under sequence number seq.
func (e *Engine) scheduleArg(d Time, seq uint64, fn func(any), arg any) Event {
	if d < 0 {
		d = 0
	}
	slot := e.allocSlot()
	s := &e.slots[slot]
	s.afn, s.arg = fn, arg
	return e.enqueueSeq(e.now+d, seq, slot)
}

// SeqBlock is a run of consecutive sequence numbers set aside by Reserve,
// handed out lowest first by ScheduleArgReserved.
type SeqBlock struct {
	eng       *Engine
	epoch     uint64
	next, end uint64 // [next, end) are still unused
}

// Left reports how many of the block's numbers are still unused.
func (b *SeqBlock) Left() int { return int(b.end - b.next) }

// Reserve sets aside the next n sequence numbers — exactly the ones n
// consecutive Schedule calls made now would consume — so their events can
// be scheduled later, one at a time, and still fire where those calls
// would have put them: every later Schedule call draws the number it
// would have drawn, and ties at one timestamp break as if the whole block
// had been scheduled up front. A periodic source uses it to keep one
// calendar entry instead of one per future firing.
//
// The caller owes the calendar one thing the up-front calls gave for
// free: each reserved event must be scheduled before anything ordered
// after it fires. Scheduling event k+1 from event k's callback, at or
// after the current time, always satisfies that.
func (e *Engine) Reserve(n int) SeqBlock {
	if n < 0 {
		n = 0
	}
	b := SeqBlock{eng: e, epoch: e.epoch, next: e.seq + 1, end: e.seq + 1 + uint64(n)}
	e.seq += uint64(n)
	return b
}

// ScheduleArgReserved is ScheduleArg under the lowest unused number of b
// instead of a fresh one. It panics when b was not reserved on this
// engine since its last Reset, or is used up: such a number is not b's to
// give, and an event under it would silently reorder the run.
func (e *Engine) ScheduleArgReserved(d Time, b *SeqBlock, fn func(any), arg any) Event {
	if b.eng != e || b.epoch != e.epoch {
		panic("sim: sequence block was not reserved on this engine since its last Reset")
	}
	if b.next >= b.end {
		panic("sim: sequence block is used up")
	}
	b.next++
	return e.scheduleArg(d, b.next-1, fn, arg)
}

// enqueue assigns the next sequence number and pushes slot onto the heap.
func (e *Engine) enqueue(at Time, slot int32) Event {
	e.seq++
	return e.enqueueSeq(at, e.seq, slot)
}

// enqueueSeq pushes slot onto the heap under the given sequence number.
func (e *Engine) enqueueSeq(at Time, seq uint64, slot int32) Event {
	e.push(calEntry{at: at, seq: seq, slot: slot})
	e.live++
	return Event{eng: e, at: at, slot: slot, gen: e.slots[slot].gen}
}

// allocSlot returns a free slot index, growing the arena when the free
// list is empty.
func (e *Engine) allocSlot() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	e.slots = append(e.slots, eventSlot{})
	return int32(len(e.slots) - 1)
}

// freeSlot recycles a slot: the generation bump invalidates every
// outstanding handle to the old event, and clearing the callback fields
// releases whatever they referenced.
func (e *Engine) freeSlot(i int32) {
	s := &e.slots[i]
	s.fn, s.afn, s.arg = nil, nil, nil
	s.dead = false
	s.gen++
	e.free = append(e.free, i)
}

// --- 4-ary min-heap over calEntry ---
//
// A 4-ary layout halves the tree depth of a binary heap; the extra sibling
// comparisons at each level are cheap (contiguous entries, one cache line)
// while each level descended is a dependent load. Children of i are
// 4i+1..4i+4, parent is (i-1)/4.

func (e *Engine) push(ent calEntry) {
	if e.vacant {
		// Replace-top: a firing event's successor is usually due soon, so
		// it settles within a level or two of the root — where pop-then-push
		// would drag the last (far-future) leaf down the whole tree and
		// then sift the successor up it.
		e.vacant = false
		e.cal[0] = ent
		e.siftDown(0)
		return
	}
	e.cal = append(e.cal, ent)
	i := len(e.cal) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entLess(ent, e.cal[p]) {
			break
		}
		e.cal[i] = e.cal[p]
		i = p
	}
	e.cal[i] = ent
}

// popHead removes cal[0], restoring the heap property.
func (e *Engine) popHead() {
	n := len(e.cal) - 1
	e.cal[0] = e.cal[n]
	e.cal = e.cal[:n]
	if n > 0 {
		e.siftDown(0)
	}
}

// fillRoot closes a root fireHead left vacant, so cal is a plain heap
// again. A no-op otherwise.
func (e *Engine) fillRoot() {
	if e.vacant {
		e.vacant = false
		e.popHead()
	}
}

// compact sweeps tombstoned entries out of the calendar and re-heapifies.
// Pop order is unchanged: live (at, seq) keys are untouched and dead
// entries would have been skipped anyway.
func (e *Engine) compact() {
	e.fillRoot() // the fired entry's slot is already recycled: don't judge it by that slot's flags
	w := 0
	for _, ent := range e.cal {
		if e.slots[ent.slot].dead {
			e.freeSlot(ent.slot)
			continue
		}
		e.cal[w] = ent
		w++
	}
	e.cal = e.cal[:w]
	e.dead = 0
	if w > 1 {
		for i := (w - 2) / 4; i >= 0; i-- {
			e.siftDown(i)
		}
	}
}

// siftDown restores the heap property below i.
func (e *Engine) siftDown(i int) {
	n := len(e.cal)
	ent := e.cal[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entLess(e.cal[j], e.cal[best]) {
				best = j
			}
		}
		if !entLess(e.cal[best], ent) {
			break
		}
		e.cal[i] = e.cal[best]
		i = best
	}
	e.cal[i] = ent
}

// skim discards tombstoned entries from the head of the calendar, so the
// head — if any — is live. Dead-event skipping happens here, once, for
// every run loop.
func (e *Engine) skim() {
	e.fillRoot() // only open here when a callback itself steps the engine
	for len(e.cal) > 0 {
		ent := e.cal[0]
		if !e.slots[ent.slot].dead {
			return
		}
		e.popHead()
		e.freeSlot(ent.slot)
		e.dead--
	}
}

// fireHead fires the live head entry. The slot is recycled before the
// callback runs, so a handle to the firing event is already stale inside
// its own callback (cancel-self is a no-op) and the slot may host a new
// event scheduled by the callback.
//
// The root stays vacant while the callback runs, so the first event it
// schedules replaces the fired entry with a single siftDown; a callback
// that schedules nothing costs the ordinary pop afterwards. Pop order is
// decided by the (at, seq) keys alone, so which of the two repairs ran
// never shows.
func (e *Engine) fireHead() {
	ent := e.cal[0]
	e.vacant = true
	s := &e.slots[ent.slot]
	fn, afn, arg := s.fn, s.afn, s.arg
	e.freeSlot(ent.slot)
	e.live--
	e.now = ent.at
	e.executed++
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
	e.fillRoot()
}

// Step fires the next event, advancing the clock. It reports whether an
// event was available.
func (e *Engine) Step() bool {
	e.skim()
	if len(e.cal) == 0 {
		return false
	}
	e.fireHead()
	return true
}

// Run fires events until the calendar is empty.
func (e *Engine) Run() {
	e.running = true
	for e.running && e.Step() {
	}
	e.running = false
}

// RunUntil fires events with timestamps at or before deadline, then advances
// the clock to deadline (if it has not passed it already). A cancelled
// event at the head of the calendar never carries the run past the
// deadline: tombstones are skimmed before the deadline check, so the
// decision to fire is always made against a live event.
//
// A run cut short by Stop does NOT advance the clock to the deadline:
// events between the last fired event and the deadline never ran, so
// claiming their time would make Now() lie about how far the simulation
// actually got. A stopped run leaves Now() at the last fired event.
func (e *Engine) RunUntil(deadline Time) {
	e.running = true
	for e.running {
		e.skim()
		if len(e.cal) == 0 || e.cal[0].at > deadline {
			break
		}
		e.fireHead()
	}
	stopped := !e.running
	e.running = false
	if !stopped && e.now < deadline {
		e.now = deadline
	}
}

// Stop makes Run/RunUntil return after the current event completes.
func (e *Engine) Stop() { e.running = false }

// Reset returns the engine to its zero state while keeping the calendar
// and slot-arena storage, so a pooled engine's next run schedules without
// re-growing either. Every outstanding Event handle is invalidated by the
// per-slot generation bump — exactly as if each event had fired — and
// every SeqBlock reserved before the Reset is dead.
//
// Behavioral note for run-equivalence: slot indices never participate in
// event ordering (the calendar orders by (time, sequence) alone), so a
// reset engine replays any schedule byte-identically to a fresh one.
func (e *Engine) Reset() {
	e.now, e.seq, e.executed = 0, 0, 0
	e.epoch++
	e.running = false
	e.cal = e.cal[:0]
	e.vacant = false
	e.free = e.free[:0]
	for i := len(e.slots) - 1; i >= 0; i-- {
		s := &e.slots[i]
		s.fn, s.afn, s.arg = nil, nil, nil
		s.dead = false
		s.gen++
		e.free = append(e.free, int32(i))
	}
	e.live, e.dead = 0, 0
}
