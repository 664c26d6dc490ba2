// Package sim provides a small deterministic discrete-event simulation
// kernel: a virtual clock, an event calendar ordered by (time, sequence),
// and a running-statistics helper (Stats).
//
// The kernel is deliberately single-threaded. All device and server models
// in memstream schedule callbacks on one Engine, so a simulation run is a
// pure function of its inputs and RNG seed — which is what lets the
// experiment harness reproduce the paper's figures byte-for-byte.
//
// The calendar is small by construction: a run keeps one entry per cycle
// loop, one for all its service chains and the final drain — at most five
// on any workload the repository runs. So it is a slice kept sorted
// latest-first, the next event to fire at its tail: scheduling inserts by
// walking from the tail, firing pops it, and Cancel removes the entry in
// place. Every event carries a static callback plus an argument, so the
// hot path allocates nothing in steady state.
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
// next entry, only inside Run or RunUntil, never past RunUntil's deadline
// and never after Stop. A key that may not fire in place goes back on the
// calendar. Either way each event keeps its key and the counter advances
// exactly as with one calendar entry per event, so no tie-break and no
// event count can move.
package sim

import (
	"math"
	"slices"
	"time"
)

// Time is simulated time measured as a duration since the start of the run.
type Time = time.Duration

// MaxTime is the largest representable simulation time.
const MaxTime = Time(math.MaxInt64)

// Event is a handle to a scheduled callback. It is a small value: copying
// it is cheap and the zero Event is inert.
type Event struct {
	eng *Engine
	id  uint64
}

// Cancel removes the event from the calendar. Cancelling an event that has
// already fired or been cancelled, or one scheduled before the last Reset,
// is a no-op: no calendar entry carries its id any more.
func (ev Event) Cancel() {
	e := ev.eng
	if e == nil {
		return
	}
	for i := len(e.cal) - 1; i >= 0; i-- {
		if e.cal[i].id == ev.id {
			e.cal = slices.Delete(e.cal, i, i+1)
			return
		}
	}
}

// entry is one pending event: its key, the id its handles carry, and the
// callback with its argument.
type entry struct {
	key Key
	id  uint64
	fn  func(any)
	arg any
}

// Engine is the simulation core: a clock plus an event calendar.
// The zero value is ready to use.
type Engine struct {
	now      Time
	seq      uint64
	epoch    uint64 // Resets so far; a drawn Seq is valid only in the epoch that drew it
	ids      uint64 // Event ids issued so far, across Resets
	executed uint64
	running  bool // inside Run or RunUntil, and not stopped
	limit    Time // the running loop's deadline: Advance never passes it

	cal []entry // pending events, latest first: the next to fire is the last
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Executed reports how many events have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many events are waiting on the calendar.
func (e *Engine) Pending() int { return len(e.cal) }

// ScheduleArg runs fn(arg) after delay d (clamped to zero for negative d),
// under the next sequence number. fn is typically a static function and
// arg a pointer to long-lived state, so scheduling allocates nothing.
func (e *Engine) ScheduleArg(d Time, fn func(any), arg any) Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleKey(Key{At: e.now + d, Seq: e.Draw(1)}, fn, arg)
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
	e.ids++
	i := len(e.cal)
	e.cal = append(e.cal, entry{})
	for ; i > 0 && e.cal[i-1].key.Less(k); i-- {
		e.cal[i] = e.cal[i-1]
	}
	e.cal[i] = entry{key: k, id: e.ids, fn: fn, arg: arg}
	return Event{eng: e, id: e.ids}
}

// Advance fires, in place, the event the caller holds under k: when no
// calendar entry orders before k, the running loop is not past its
// deadline and was not stopped, it moves the clock to k.At, counts the
// event in Executed and reports true; the caller then runs the event's
// work itself. Otherwise it changes nothing and the caller must put k on
// the calendar (ScheduleKey). It only ever reports true from inside a
// callback of Run or RunUntil, never under a bare Step. Its panics are
// ScheduleKey's.
func (e *Engine) Advance(k Key) bool {
	e.checkKey(k)
	if !e.running || k.At > e.limit {
		return false
	}
	if n := len(e.cal); n > 0 && !k.Less(e.cal[n-1].key) {
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

// fire pops the next event and runs it. The entry leaves the calendar
// before its callback runs, so cancelling the firing event from inside
// its own callback is a no-op.
func (e *Engine) fire() {
	n := len(e.cal) - 1
	ent := e.cal[n]
	e.cal[n] = entry{} // release what the callback and argument referenced
	e.cal = e.cal[:n]
	e.now = ent.key.At
	e.executed++
	ent.fn(ent.arg)
}

// Step fires the next event, advancing the clock. It reports whether an
// event was available.
func (e *Engine) Step() bool {
	if len(e.cal) == 0 {
		return false
	}
	e.fire()
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
// the clock to deadline (if it has not passed it already).
//
// A run cut short by Stop does NOT advance the clock to the deadline:
// events between the last fired event and the deadline never ran, so
// claiming their time would make Now() lie about how far the simulation
// actually got. A stopped run leaves Now() at the last fired event.
func (e *Engine) RunUntil(deadline Time) {
	e.running, e.limit = true, deadline
	for e.running {
		if n := len(e.cal); n == 0 || e.cal[n-1].key.At > deadline {
			break
		}
		e.fire()
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

// Reset returns the engine to its zero state while keeping the calendar's
// storage, so a pooled engine's next run schedules without re-growing it.
// Every outstanding Event handle becomes inert — its entry is gone and ids
// keep counting across the Reset — and every Seq drawn before it is dead.
// A reset engine replays any schedule byte-identically to a fresh one.
func (e *Engine) Reset() {
	clear(e.cal)
	*e = Engine{epoch: e.epoch + 1, ids: e.ids, cal: e.cal[:0]}
}
