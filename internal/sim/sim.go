// Package sim provides a small deterministic discrete-event simulation
// kernel: a virtual clock, an event calendar ordered by (time, sequence),
// and a running-statistics helper (Stats).
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
//
// Keyed events. Every event fires under a (time, sequence) key, and the
// sequence counter decides every tie. A caller may Draw numbers now and
// schedule under them later (ScheduleKey): the event then fires exactly
// where a ScheduleArg call made at draw time would have put it. A
// periodic source draws all its numbers up front and keeps one calendar
// entry instead of one per future firing. A holder of many pending keys
// (the server's service chains) puts only its earliest on the calendar,
// and from inside that entry's callback it fires the rest in place with
// Advance: the clock moves and the event counts in Executed without a
// calendar round trip, but only while the key precedes the calendar's
// next entry (tombstones included), only inside Run or RunUntil, never
// past RunUntil's deadline and never after Stop. A key that may not fire
// in place goes back on the calendar. Either way each event keeps its
// key and the counter advances exactly as with one calendar entry per
// event, so no tie-break and no event count can move.
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
	epoch    uint64 // Resets so far; a drawn Seq is valid only in the epoch that drew it
	executed uint64
	running  bool // inside Run or RunUntil, and not stopped
	limit    Time // the running loop's deadline: Advance never passes it

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
	if d < 0 {
		d = 0
	}
	e.seq++
	return e.scheduleArg(e.now+d, e.seq, fn, arg)
}

// scheduleArg queues fn(arg) at time at under sequence number seq.
func (e *Engine) scheduleArg(at Time, seq uint64, fn func(any), arg any) Event {
	slot := e.allocSlot()
	s := &e.slots[slot]
	s.afn, s.arg = fn, arg
	return e.enqueueSeq(at, seq, slot)
}

// Seq is a sequence number drawn from an Engine ahead of the event that
// will fire under it. The zero Seq was never drawn.
type Seq struct {
	n     uint64
	epoch uint64
}

// Add returns the number k places after s: with s the first of Draw(n),
// s.Add(k) is the k-th of them for k < n.
func (s Seq) Add(k int) Seq { return Seq{n: s.n + uint64(k), epoch: s.epoch} }

// Key is an event's place in the firing order: its time, ties broken by
// its sequence number.
type Key struct {
	At  Time
	Seq Seq
}

// Less reports whether k fires before o.
func (k Key) Less(o Key) bool {
	if k.At != o.At {
		return k.At < o.At
	}
	return k.Seq.n < o.Seq.n
}

// Draw takes the next n sequence numbers — exactly the ones n consecutive
// ScheduleArg calls made now would take — and returns the first; Add
// steps through the rest. An event scheduled later under one of them
// (ScheduleKey) fires where that ScheduleArg call would have put it, so
// ties at one timestamp break as if it had been scheduled at draw time.
//
// The caller owes the calendar one thing a ScheduleArg call gives for
// free: each drawn event must be on the calendar (or fired in place by
// Advance) before anything ordered after it fires. Scheduling a source's
// next event from its current one's callback satisfies that.
func (e *Engine) Draw(n int) Seq {
	if n < 1 {
		panic("sim: Draw needs at least one number")
	}
	s := Seq{n: e.seq + 1, epoch: e.epoch}
	e.seq += uint64(n)
	return s
}

// ScheduleKey runs fn(arg) under k, whose number was drawn earlier. A key
// may be scheduled again after its event is cancelled. It panics when k's
// number is not yet drawn or was drawn before the last Reset, or k.At is
// in the past: an event under such a key would silently reorder the run.
func (e *Engine) ScheduleKey(k Key, fn func(any), arg any) Event {
	e.checkKey(k)
	return e.scheduleArg(k.At, k.Seq.n, fn, arg)
}

// Advance fires, in place, the event the caller holds under k: when no
// calendar entry — tombstones included — orders before k, the running
// loop is not past its deadline and was not stopped, it moves the clock
// to k.At, counts the event in Executed and reports true; the caller then
// runs the event's work itself. Otherwise it changes nothing and the
// caller must put k on the calendar (ScheduleKey). It only ever reports
// true from inside a callback of Run or RunUntil, never under a bare Step.
// Its panics are ScheduleKey's.
func (e *Engine) Advance(k Key) bool {
	e.checkKey(k)
	if !e.running || k.At > e.limit {
		return false
	}
	if next, ok := e.next(); ok && !entLess(calEntry{at: k.At, seq: k.Seq.n}, next) {
		return false
	}
	e.now = k.At
	e.executed++
	return true
}

// checkKey panics unless k's number was drawn since the last Reset and
// k is not in the past.
func (e *Engine) checkKey(k Key) {
	if k.Seq.epoch != e.epoch || k.Seq.n == 0 || k.Seq.n > e.seq {
		panic("sim: sequence number not yet drawn, or drawn before the last Reset")
	}
	if k.At < e.now {
		panic("sim: keyed event in the past")
	}
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

// next returns the calendar's earliest entry, tombstones included, and
// whether there is one. While the root is vacant that is the least of its
// children, each the head of a valid subheap.
func (e *Engine) next() (calEntry, bool) {
	if !e.vacant {
		if len(e.cal) == 0 {
			return calEntry{}, false
		}
		return e.cal[0], true
	}
	n := len(e.cal)
	if n < 2 {
		return calEntry{}, false
	}
	best := 1
	for j := 2; j < n && j < 5; j++ {
		if entLess(e.cal[j], e.cal[best]) {
			best = j
		}
	}
	return e.cal[best], true
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
	e.running, e.limit = true, MaxTime
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
	e.running, e.limit = true, deadline
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

// Stop makes Run/RunUntil return after the current event completes; no
// event fires in place (Advance) after it.
func (e *Engine) Stop() { e.running = false }

// Reset returns the engine to its zero state while keeping the calendar
// and slot-arena storage, so a pooled engine's next run schedules without
// re-growing either. Every outstanding Event handle is invalidated by the
// per-slot generation bump — exactly as if each event had fired — and
// every Seq drawn before the Reset is dead.
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
