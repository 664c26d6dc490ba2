package sim

import (
	"slices"
	"testing"
	"time"
)

// The Engine's calendar is held to a reference: a randomized program of
// schedules, cancels, Stops and Resets issued from inside callbacks runs
// once on the Engine and once on a plain sorted-slice calendar, and every
// fired event must agree on identity, time, Pending() and Executed().

// calendar is what the random program needs from a kernel.
type calendar interface {
	Now() Time
	Pending() int
	Executed() uint64
	schedule(d Time, id int, fire func(id int))
	cancel(id int)
	Stop()
	Reset()
	Run()
	RunUntil(deadline Time)
}

// refCalendar is the reference: live events in a slice kept sorted by
// (time, sequence), cancellation by removal.
type refCalendar struct {
	now      Time
	seq      uint64
	executed uint64
	running  bool
	ents     []refEnt
}

type refEnt struct {
	at   Time
	seq  uint64
	id   int
	fire func(id int)
}

func (c *refCalendar) Now() Time        { return c.now }
func (c *refCalendar) Pending() int     { return len(c.ents) }
func (c *refCalendar) Executed() uint64 { return c.executed }
func (c *refCalendar) Stop()            { c.running = false }
func (c *refCalendar) Reset()           { *c = refCalendar{ents: c.ents[:0]} }

func (c *refCalendar) schedule(d Time, id int, fire func(int)) {
	if d < 0 {
		d = 0
	}
	c.seq++
	ent := refEnt{at: c.now + d, seq: c.seq, id: id, fire: fire}
	i, _ := slices.BinarySearchFunc(c.ents, ent, func(a, b refEnt) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq) - int(b.seq)
	})
	c.ents = slices.Insert(c.ents, i, ent)
}

func (c *refCalendar) cancel(id int) {
	if i := slices.IndexFunc(c.ents, func(e refEnt) bool { return e.id == id }); i >= 0 {
		c.ents = slices.Delete(c.ents, i, i+1)
	}
}

func (c *refCalendar) step() {
	ent := c.ents[0]
	c.ents = slices.Delete(c.ents, 0, 1)
	c.now = ent.at
	c.executed++
	ent.fire(ent.id)
}

func (c *refCalendar) Run() {
	c.running = true
	for c.running && len(c.ents) > 0 {
		c.step()
	}
	c.running = false
}

func (c *refCalendar) RunUntil(deadline Time) {
	c.running = true
	for c.running && len(c.ents) > 0 && c.ents[0].at <= deadline {
		c.step()
	}
	stopped := !c.running
	c.running = false
	if !stopped && c.now < deadline {
		c.now = deadline
	}
}

// engCalendar adapts the Engine, alternating a static callback with a
// closure through the schedule helper.
type engCalendar struct {
	Engine
	handles map[int]Event
	fireFn  func(id int)
}

type engArg struct {
	c  *engCalendar
	id int
}

func engFire(arg any) { a := arg.(*engArg); a.c.fireFn(a.id) }

func (c *engCalendar) schedule(d Time, id int, fire func(int)) {
	c.fireFn = fire
	if id%2 == 0 {
		c.handles[id] = c.Engine.ScheduleArg(d, engFire, &engArg{c, id})
	} else {
		c.handles[id] = schedule(&c.Engine, d, func() { fire(id) })
	}
}

func (c *engCalendar) cancel(id int) { c.handles[id].Cancel() }

// fired is one executed event as the program saw it.
type fired struct {
	id       int
	at       Time
	pending  int
	executed uint64
}

// program is the random workload. All its randomness comes from rng and is
// drawn inside callbacks, so two kernels stay in step only while they fire
// the same events in the same order.
type program struct {
	cal    calendar
	rng    *RNG
	nextID int
	ids    []int // every id ever scheduled: fired, cancelled and reset-away ones included
	parked []int // far-future events, cancelled in bulk
	trace  []fired
	budget int
	stops  int
	resets int
}

func (p *program) sched(d Time) int {
	id := p.nextID
	p.nextID++
	p.ids = append(p.ids, id)
	p.cal.schedule(d, id, p.fire)
	return id
}

func (p *program) soon() Time { return Time(p.rng.Intn(50)) * time.Microsecond }

func (p *program) park(n int) {
	for i := 0; i < n; i++ {
		p.parked = append(p.parked, p.sched(time.Hour+Time(p.rng.Intn(1000))*time.Second))
	}
}

func (p *program) fire(id int) {
	p.trace = append(p.trace, fired{id, p.cal.Now(), p.cal.Pending(), p.cal.Executed()})
	if len(p.trace) >= p.budget {
		return // wind down: schedule nothing more
	}
	switch r := p.rng.Intn(100); {
	case r < 20: // a callback that schedules nothing
	case r < 60: // one successor
		p.sched(p.soon())
	case r < 78: // many
		for n := 2 + p.rng.Intn(6); n > 0; n-- {
			p.sched(p.soon())
		}
	case r < 88: // cancel a few handles, live or stale, then maybe schedule
		for n := 1 + p.rng.Intn(3); n > 0; n-- {
			p.cal.cancel(p.ids[p.rng.Intn(len(p.ids))])
		}
		if r%2 == 0 {
			p.sched(p.soon())
		}
	case r < 93: // cancel most parked events at once, before scheduling anything
		keep := len(p.parked) / 8
		for _, id := range p.parked[keep:] {
			p.cal.cancel(id)
		}
		p.parked = p.parked[:keep]
		p.sched(p.soon())
		p.park(200)
	case r < 97:
		p.stops++
		p.cal.Stop()
		p.sched(p.soon())
	default:
		p.resets++
		p.cal.Reset() // p.ids keeps the old ids: their handles must now be inert
		p.parked = p.parked[:0]
		p.park(100)
		for n := 1 + p.rng.Intn(3); n > 0; n-- {
			p.sched(p.soon())
		}
	}
}

// drive runs the program to completion through an irregular mix of
// RunUntil and Run calls (Stops end them early) and returns the clock
// readings between calls.
func (p *program) drive() []Time {
	p.park(300)
	p.sched(0)
	var clocks []Time
	for round := 0; p.cal.Pending() > 0 && round < 100000; round++ {
		if len(p.trace) < p.budget && p.rng.Intn(4) > 0 {
			p.cal.RunUntil(p.cal.Now() + Time(p.rng.Intn(200))*time.Microsecond)
		} else {
			p.cal.Run()
		}
		clocks = append(clocks, p.cal.Now())
	}
	return clocks
}

func TestCalendarMatchesSortedSliceReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		ref := &program{cal: &refCalendar{}, rng: NewRNG(seed), budget: 6000}
		wantClocks := ref.drive()

		ec := &engCalendar{handles: map[int]Event{}}
		got := &program{cal: ec, rng: NewRNG(seed), budget: 6000}
		gotClocks := got.drive()

		if len(ref.trace) < ref.budget || ref.stops == 0 || ref.resets == 0 {
			t.Fatalf("seed %d: program too tame: %d events, %d stops, %d resets",
				seed, len(ref.trace), ref.stops, ref.resets)
		}
		for i := range min(len(got.trace), len(ref.trace)) {
			if got.trace[i] != ref.trace[i] {
				t.Fatalf("seed %d: event %d:\n got %+v\nwant %+v", seed, i, got.trace[i], ref.trace[i])
			}
		}
		if len(got.trace) != len(ref.trace) {
			t.Fatalf("seed %d: fired %d events, reference %d", seed, len(got.trace), len(ref.trace))
		}
		if !slices.Equal(gotClocks, wantClocks) {
			t.Errorf("seed %d: clocks between run calls differ", seed)
		}
		if ec.Pending() != 0 || ec.Executed() != ref.cal.Executed() {
			t.Errorf("seed %d: pending %d executed %d, reference 0 and %d",
				seed, ec.Pending(), ec.Executed(), ref.cal.Executed())
		}
	}
}

// A successor a callback schedules beyond the deadline must wait:
// RunUntil decides against the calendar's next entry, not the fired one.
func TestRunUntilWithSuccessorBeyondDeadline(t *testing.T) {
	var eng Engine
	var order []string
	schedule(&eng, time.Hour, func() { order = append(order, "parked") })
	schedule(&eng, time.Second, func() {
		order = append(order, "first")
		schedule(&eng, 9*time.Second, func() { order = append(order, "second") })
	})
	eng.RunUntil(5 * time.Second)
	if !slices.Equal(order, []string{"first"}) || eng.Now() != 5*time.Second || eng.Pending() != 2 {
		t.Fatalf("after RunUntil(5s): fired %v, now %v, pending %d", order, eng.Now(), eng.Pending())
	}
	eng.RunUntil(10 * time.Second)
	if !slices.Equal(order, []string{"first", "second"}) || eng.Pending() != 1 {
		t.Fatalf("after RunUntil(10s): fired %v, pending %d", order, eng.Pending())
	}
	// A callback that schedules nothing leaves the deadline check to the
	// next pending event.
	schedule(&eng, time.Second, func() { order = append(order, "third") })
	eng.RunUntil(20 * time.Second)
	if len(order) != 3 || eng.Now() != 20*time.Second || eng.Pending() != 1 {
		t.Fatalf("after RunUntil(20s): fired %v, now %v, pending %d", order, eng.Now(), eng.Pending())
	}
}

// A callback that steps the engine itself sees a whole calendar: the
// firing entry is already gone, and the nested step fires the next one.
func TestStepFromInsideCallback(t *testing.T) {
	var eng Engine
	var order []int
	for i := 1; i <= 3; i++ {
		schedule(&eng, Time(i)*time.Second, func() { order = append(order, i) })
	}
	schedule(&eng, 0, func() {
		order = append(order, 0)
		if !eng.Step() { // fires event 1 from inside event 0
			t.Error("nested Step found no event")
		}
		schedule(&eng, 1500*time.Millisecond, func() { order = append(order, 15) })
	})
	eng.Run()
	if !slices.Equal(order, []int{0, 1, 2, 15, 3}) {
		t.Errorf("fired %v, want [0 1 2 15 3]", order)
	}
	if eng.Pending() != 0 || eng.Executed() != 5 {
		t.Errorf("pending %d executed %d, want 0 and 5", eng.Pending(), eng.Executed())
	}
}

// --- drawn sequence numbers ---
//
// A periodic source may draw its sequence numbers up front and schedule
// one firing at a time (Draw, ScheduleKey). The oracle is the schedule it
// replaces — every firing of every loop put on the calendar at set-up —
// and the two must fire the same events at the same times in the same
// order, whatever else is scheduled around and from inside them.

// loopSpec is one periodic source: cycles first..first+n-1, cycle c at
// time c·period.
type loopSpec struct {
	period   Time
	first, n int64
}

// loopFiring is one callback as the loop program saw it: a loop's cycle,
// or (loop < 0) an ordinary event identified by its creation number.
type loopFiring struct {
	at    Time
	loop  int
	cycle int64
}

// loopProgram runs a set of loops plus the ordinary traffic they cause.
// Its randomness is drawn inside callbacks, so a chained and an up-front
// run stay in step only while they fire the same events in the same order.
type loopProgram struct {
	eng        Engine
	rng        *RNG
	chained    bool
	trace      []loopFiring
	ordinary   int
	maxPending int
}

type loopCall struct {
	p           *loopProgram
	loop        int
	period      Time
	cycle, last int64
	seq         Seq // chained runs only
}

func (p *loopProgram) note(f loopFiring) {
	p.trace = append(p.trace, f)
	p.maxPending = max(p.maxPending, p.eng.Pending())
}

// ordinaryEvent schedules a plain event after d; with depth > 0 its
// callback chains another at its own firing time, as a device chain does.
func (p *loopProgram) ordinaryEvent(d Time, depth int) {
	id := p.ordinary
	p.ordinary++
	schedule(&p.eng, d, func() {
		p.note(loopFiring{at: p.eng.Now(), loop: -1, cycle: int64(id)})
		if depth > 0 {
			p.ordinaryEvent(Time(p.rng.Intn(2))*time.Millisecond, depth-1)
		}
	})
}

func fireLoopCall(arg any) {
	lc := arg.(*loopCall)
	p := lc.p
	c := lc.cycle
	if p.chained && c < lc.last {
		lc.cycle++
		lc.seq = lc.seq.Add(1)
		p.eng.ScheduleKey(Key{At: Time(lc.cycle) * lc.period, Seq: lc.seq}, fireLoopCall, lc)
	}
	p.note(loopFiring{at: p.eng.Now(), loop: lc.loop, cycle: c})
	switch p.rng.Intn(4) {
	case 0: // a stage that schedules nothing
	case 1: // work at the firing time, chaining at that same time
		p.ordinaryEvent(0, 2)
	case 2: // work that lands on a later cycle boundary of some loop
		p.ordinaryEvent(Time(1+p.rng.Intn(6))*time.Millisecond, 1)
	default:
		p.ordinaryEvent(0, 0)
		p.ordinaryEvent(Time(p.rng.Intn(5000))*time.Microsecond, 1)
	}
}

// run sets the loops up in order — ordinary events scheduled between
// them, so the loops' numbers are not contiguous — and runs the calendar
// dry.
func (p *loopProgram) run(specs []loopSpec) {
	for i, s := range specs {
		if p.rng.Intn(2) == 0 {
			p.ordinaryEvent(Time(p.rng.Intn(4))*time.Millisecond, 1)
		}
		if s.n <= 0 {
			continue
		}
		if p.chained {
			lc := &loopCall{p: p, loop: i, period: s.period, cycle: s.first, last: s.first + s.n - 1, seq: p.eng.Draw(int(s.n))}
			p.eng.ScheduleKey(Key{At: Time(s.first) * s.period, Seq: lc.seq}, fireLoopCall, lc)
			continue
		}
		for c := s.first; c < s.first+s.n; c++ {
			p.eng.ScheduleArg(Time(c)*s.period, fireLoopCall, &loopCall{p: p, loop: i, cycle: c})
		}
	}
	p.ordinaryEvent(0, 0)
	p.eng.Run()
}

func TestChainedLoopsMatchUpFrontSchedule(t *testing.T) {
	// Periods with many common multiples, so cycles of different loops —
	// and the ordinary events, which land on whole milliseconds — coincide.
	periods := []Time{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 6 * time.Millisecond, 0}
	const seeds = 40
	tied := 0 // seeds on which two loops fired back to back at one timestamp
	for seed := uint64(1); seed <= seeds; seed++ {
		pick := NewRNG(seed)
		specs := make([]loopSpec, 1+pick.Intn(6))
		coincide := false
		for i := range specs {
			specs[i] = loopSpec{
				period: periods[pick.Intn(len(periods))],
				first:  int64(pick.Intn(2)),
				n:      []int64{0, 1, 2, 30, 120}[pick.Intn(5)],
			}
		}
		upFront := &loopProgram{rng: NewRNG(seed * 7919)}
		upFront.run(specs)
		chained := &loopProgram{rng: NewRNG(seed * 7919), chained: true}
		chained.run(specs)

		for i := range min(len(chained.trace), len(upFront.trace)) {
			if chained.trace[i] != upFront.trace[i] {
				t.Fatalf("seed %d %+v: firing %d:\n chained %+v\nup front %+v",
					seed, specs, i, chained.trace[i], upFront.trace[i])
			}
			if i > 0 && upFront.trace[i].at == upFront.trace[i-1].at &&
				upFront.trace[i].loop >= 0 && upFront.trace[i-1].loop >= 0 &&
				upFront.trace[i].loop != upFront.trace[i-1].loop {
				coincide = true
			}
		}
		if len(chained.trace) != len(upFront.trace) || chained.eng.Executed() != upFront.eng.Executed() {
			t.Fatalf("seed %d: chained fired %d (executed %d), up front %d (executed %d)", seed,
				len(chained.trace), chained.eng.Executed(), len(upFront.trace), upFront.eng.Executed())
		}
		if chained.eng.Pending() != 0 {
			t.Errorf("seed %d: %d events left pending", seed, chained.eng.Pending())
		}
		if coincide {
			tied++
		}
		cycles := int64(0)
		for _, s := range specs {
			cycles += s.n
		}
		// One entry per loop, not one per future cycle.
		if cycles > 100 && chained.maxPending >= upFront.maxPending {
			t.Errorf("seed %d: chained calendar peaked at %d entries, up front at %d",
				seed, chained.maxPending, upFront.maxPending)
		}
	}
	if tied < seeds/2 {
		t.Errorf("two loops tied at a timestamp on only %d of %d seeds: the tie-break went mostly untested", tied, seeds)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// A key is good only once its number is drawn, only until the next
// Reset, and never in the past; anything else would put an event where
// no ScheduleArg call could have, so the engine refuses.
func TestKeysAreRefusedOutsideTheirDraw(t *testing.T) {
	nop := func(any) {}
	var eng Engine

	s := eng.Draw(2)
	schedule(&eng, 0, func() {}) // takes the number after the two
	eng.ScheduleKey(Key{Seq: s}, nop, nil)
	second := eng.ScheduleKey(Key{Seq: s.Add(1)}, nop, nil)
	mustPanic(t, "a number not yet drawn", func() { eng.ScheduleKey(Key{Seq: s.Add(3)}, nop, nil) })
	mustPanic(t, "the zero Seq", func() { eng.ScheduleKey(Key{}, nop, nil) })
	mustPanic(t, "Advance on a number not yet drawn", func() { eng.Advance(Key{Seq: s.Add(3)}) })
	mustPanic(t, "Draw(0)", func() { eng.Draw(0) })
	if eng.Pending() != 3 {
		t.Fatalf("pending %d, want 3: a refused schedule must leave no entry", eng.Pending())
	}
	// A cancelled keyed event may go back on the calendar under its key.
	second.Cancel()
	eng.ScheduleKey(Key{Seq: s.Add(1)}, nop, nil)
	if eng.Pending() != 3 {
		t.Fatalf("pending %d after a cancel and re-schedule, want 3", eng.Pending())
	}
	// Outside Run and RunUntil nothing fires in place.
	if eng.Advance(Key{Seq: s}) || eng.Executed() != 0 {
		t.Fatal("Advance fired outside a running loop")
	}

	eng.RunUntil(time.Second)
	past := eng.Draw(1)
	mustPanic(t, "a key in the past", func() { eng.ScheduleKey(Key{At: time.Millisecond, Seq: past}, nop, nil) })

	stale := eng.Draw(4)
	eng.Reset()
	mustPanic(t, "a number drawn before Reset", func() { eng.ScheduleKey(Key{Seq: stale}, nop, nil) })
	mustPanic(t, "Advance on a number drawn before Reset", func() { eng.Advance(Key{Seq: stale}) })
	if eng.Pending() != 0 {
		t.Errorf("pending %d after Reset", eng.Pending())
	}
	// A reset engine numbers from the start again: a fresh draw and a
	// fresh Schedule order exactly as on a new engine.
	var order []string
	fresh := eng.Draw(1)
	schedule(&eng, 0, func() { order = append(order, "scheduled second, numbered second") })
	eng.ScheduleKey(Key{Seq: fresh}, func(any) { order = append(order, "drawn first") }, nil)
	eng.Run()
	if len(order) != 2 || order[0] != "drawn first" {
		t.Errorf("fired %v: the drawn number must order before the later Schedule", order)
	}
}

// --- wake-ups fired in place ---
//
// A holder of many pending keyed wake-ups — the server's chain set —
// keeps only the earliest on the calendar and fires the rest in place
// with Advance. The oracle gives every wake-up a ScheduleArg event of its
// own. A random program of wake-ups, plain events, cancels (of the
// calendar's head included), Stops and Resets issued from inside callbacks, run
// through RunUntil deadlines, Run and bare Step loops, must fire the same
// (time, sequence, callback) sequence either way, with the same
// Executed() and clock.

// waker is one source of wake-ups, busy while one is pending.
type waker struct {
	p    *wakeProgram
	idx  int
	busy bool
	key  Key
}

// plainEvent is an ordinary ScheduleArg event of the wake program.
type plainEvent struct {
	p   *wakeProgram
	id  int
	seq uint64
}

// wakeFiring is one event as the wake program saw it: a waker's
// wake-up, or (waker < 0) the plain event id.
type wakeFiring struct {
	at    Time
	seq   uint64
	waker int
	id    int
}

type wakeProgram struct {
	eng     Engine
	rng     *RNG
	inPlace bool
	wakers  []*waker
	plain   []Event // every plain event's handle, fired and cancelled ones included
	trace   []wakeFiring
	clocks  []Time
	budget  int

	// The keyed holder (inPlace runs): its calendar entry and key.
	ev            Event
	armKey        Key
	armed, firing bool

	stops, resets, steps                        int
	inPlaceFired, entryBlocked, deadlineBlocked int
}

func newWakeProgram(seed uint64, inPlace bool) *wakeProgram {
	p := &wakeProgram{rng: NewRNG(seed), inPlace: inPlace, budget: 5000}
	for i := 0; i < 5; i++ {
		p.wakers = append(p.wakers, &waker{p: p, idx: i})
	}
	return p
}

// soon is a delay on a 10 µs grid, so wake-ups and plain events tie often.
func (p *wakeProgram) soon() Time { return Time(p.rng.Intn(4)) * 10 * time.Microsecond }

func (p *wakeProgram) schedulePlain(d Time) {
	ev := &plainEvent{p: p, id: len(p.plain)}
	p.plain = append(p.plain, p.eng.ScheduleArg(d, firePlain, ev))
	ev.seq = p.eng.seq
}

func firePlain(arg any) {
	ev := arg.(*plainEvent)
	ev.p.note(wakeFiring{at: ev.p.eng.Now(), seq: ev.seq, waker: -1, id: ev.id})
	ev.p.act(nil)
}

// post makes w's wake-up pending at now+d under the number a ScheduleArg
// call would take now.
func (p *wakeProgram) post(w *waker, d Time) {
	w.busy = true
	if !p.inPlace {
		p.eng.ScheduleArg(d, fireWaker, w)
		w.key = Key{At: p.eng.Now() + d, Seq: Seq{n: p.eng.seq, epoch: p.eng.epoch}}
		return
	}
	w.key = Key{At: p.eng.Now() + d, Seq: p.eng.Draw(1)}
	if p.firing || (p.armed && !w.key.Less(p.armKey)) {
		return
	}
	p.arm(w.key)
}

func (p *wakeProgram) arm(k Key) {
	if p.armed {
		p.ev.Cancel()
	}
	p.ev, p.armKey, p.armed = p.eng.ScheduleKey(k, fireWakers, p), k, true
}

func (p *wakeProgram) earliest() *waker {
	var first *waker
	for _, w := range p.wakers {
		if w.busy && (first == nil || w.key.Less(first.key)) {
			first = w
		}
	}
	return first
}

// fireWaker is the oracle's callback: one event per wake-up.
func fireWaker(arg any) {
	w := arg.(*waker)
	w.busy = false
	w.p.wake(w)
}

// fireWakers is the keyed holder's callback, the chain set's loop.
func fireWakers(arg any) {
	p := arg.(*wakeProgram)
	p.armed, p.firing = false, true
	w := p.earliest()
	for {
		w.busy = false
		p.wake(w)
		if w = p.earliest(); w == nil {
			break
		}
		e := &p.eng
		if n := len(e.cal); n > 0 && e.cal[n-1].key.Less(w.key) {
			p.entryBlocked++
		}
		if e.running && w.key.At > e.limit {
			p.deadlineBlocked++
		}
		if !e.Advance(w.key) {
			break
		}
		p.inPlaceFired++
	}
	p.firing = false
	if w != nil {
		p.arm(w.key)
	}
}

func (p *wakeProgram) wake(w *waker) {
	p.note(wakeFiring{at: p.eng.Now(), seq: w.key.Seq.n, waker: w.idx})
	p.act(w)
}

func (p *wakeProgram) note(f wakeFiring) { p.trace = append(p.trace, f) }

// act is every callback's random work; w is the firing waker, if any.
func (p *wakeProgram) act(w *waker) {
	if len(p.trace) >= p.budget {
		return // wind down: schedule nothing more
	}
	if w != nil && p.rng.Intn(10) < 8 {
		p.post(w, p.soon()) // a busy chain starting its next item
	}
	if w == nil && p.rng.Intn(2) == 0 {
		p.schedulePlain(p.soon())
	}
	switch r := p.rng.Intn(100); {
	case r < 30: // wake an idle waker, as a submit to an idle chain does
		if v := p.wakers[p.rng.Intn(len(p.wakers))]; !v.busy {
			p.post(v, p.soon())
		}
	case r < 55: // plain events tied with whatever else is due then
		for n := 1 + p.rng.Intn(3); n > 0; n-- {
			p.schedulePlain(p.soon())
		}
	case r < 70: // cancel plain handles, live or stale
		for n := 1 + p.rng.Intn(3); n > 0 && len(p.plain) > 0; n-- {
			p.plain[p.rng.Intn(len(p.plain))].Cancel()
		}
	case r < 85: // an entry at the head, due now, cancelled at once
		p.schedulePlain(0)
		p.plain[len(p.plain)-1].Cancel()
	case r < 96: // nothing
	case r < 99:
		p.stops++
		p.eng.Stop()
	default:
		p.reset()
		p.schedulePlain(p.soon())
	}
}

// reset empties the engine and everything holding its keys.
func (p *wakeProgram) reset() {
	p.resets++
	p.eng.Reset()
	for _, w := range p.wakers {
		w.busy = false
	}
	p.armed = false
}

// seed starts (or, after the work died out or was reset away, restarts)
// the program: far-future entries, so the calendar has depth, and some work.
func (p *wakeProgram) seed() {
	for i := 0; i < 8; i++ {
		p.schedulePlain(time.Hour + Time(i)*time.Second)
	}
	p.post(p.wakers[p.rng.Intn(len(p.wakers))], p.soon())
	p.schedulePlain(p.soon())
}

// drive runs the program to its budget, and then dry, through an
// irregular mix of RunUntil, Run, bare Step loops and Resets between
// runs.
func (p *wakeProgram) drive() {
	for round := 0; round < 100000; round++ {
		if p.eng.Pending() == 0 {
			if len(p.trace) >= p.budget {
				return
			}
			p.seed()
		}
		switch r := p.rng.Intn(40); {
		case len(p.trace) >= p.budget || r == 0:
			p.eng.Run()
		case r < 8:
			for n := 1 + p.rng.Intn(5); n > 0; n-- {
				before := p.eng.Executed()
				if !p.eng.Step() {
					break
				}
				p.steps++
				if after := p.eng.Executed(); after != before+1 && after != 0 { // 0: the event Reset the engine
					panic("a bare Step fired more than one event")
				}
			}
		case r < 9:
			p.reset()
			p.seed()
		default:
			p.eng.RunUntil(p.eng.Now() + Time(p.rng.Intn(80))*time.Microsecond)
		}
		p.clocks = append(p.clocks, p.eng.Now())
	}
}

func TestInPlaceWakeupsMatchOneEventEach(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		want := newWakeProgram(seed, false)
		want.drive()
		got := newWakeProgram(seed, true)
		got.drive()

		for i := range min(len(got.trace), len(want.trace)) {
			if got.trace[i] != want.trace[i] {
				t.Fatalf("seed %d: firing %d:\n in place %+v\n one each %+v", seed, i, got.trace[i], want.trace[i])
			}
		}
		if len(got.trace) != len(want.trace) || got.eng.Executed() != want.eng.Executed() {
			t.Fatalf("seed %d: in place fired %d (executed %d), one each %d (executed %d)", seed,
				len(got.trace), got.eng.Executed(), len(want.trace), want.eng.Executed())
		}
		if !slices.Equal(got.clocks, want.clocks) || got.eng.Now() != want.eng.Now() {
			t.Errorf("seed %d: clocks between run calls differ", seed)
		}
		if len(want.trace) < want.budget || want.stops == 0 || want.resets == 0 || want.steps == 0 {
			t.Fatalf("seed %d: program too tame: %d firings, %d stops, %d resets, %d steps",
				seed, len(want.trace), want.stops, want.resets, want.steps)
		}
		if got.inPlaceFired < len(got.trace)/25 || got.entryBlocked == 0 || got.deadlineBlocked == 0 {
			t.Errorf("seed %d: %d of %d firings in place, %d refused behind a calendar entry, %d at a deadline",
				seed, got.inPlaceFired, len(got.trace), got.entryBlocked, got.deadlineBlocked)
		}
	}
}
