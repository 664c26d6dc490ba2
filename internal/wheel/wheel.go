// Package wheel is a hashed timer wheel keyed on integer ticks — the
// pacing data plane's replacement for one runtime timer per stream.
//
// A paced stream's deadlines are perfectly regular: every chunk is due
// at a quantum boundary. The Go runtime's timer heap charges O(log n)
// per operation and wakes one goroutine per timer; with 100k streams
// that is 100k heap entries and a million wakeups per second at a 100ms
// quantum. The wheel exploits the regularity instead: a deadline is a
// tick number, arming is one array index and a list push, and one
// caller-owned clock (a single time.Ticker) advances the whole
// population, collecting every due timer in one batch.
//
// Layout: one ring of 256 one-tick slots; a timer lives in slot
// when mod 256 (Varghese & Lauck's scheme 6). Advance walks each slot
// the clock passes — all 256 at most, however far it jumps — and
// collects the timers whose deadline has arrived; a timer a lap or more
// out stays in its slot and is looked at again each lap. Its callers arm
// at most ~1 s of quanta ahead (50 ticks at a 20 ms quantum, under a lap
// at any quantum over 4 ms), so every timer in a passed slot is due, and
// the levels, cascades and horizon a hierarchical wheel keeps for far
// deadlines would buy nothing.
//
// Concurrency: none. The wheel takes no lock; the caller serializes
// every call (the serve plane holds its arm mutex). Due timers are
// collected into the caller's scratch slice, so firing code may freely
// re-Arm (allocation-free: the scratch is reused and Timer nodes are
// intrusive).
package wheel

const (
	slots = 256
	mask  = slots - 1
)

// Timer is one schedulable deadline, embedded intrusively in the
// caller's per-item state. Data is set once at initialization and
// carried back on expiry; the zero Timer is ready to Arm. A Timer must
// not be armed on two wheels at once.
type Timer struct {
	// Data identifies the owner on expiry (set once, read-only after).
	Data any

	next, prev *Timer
	slot       *list
	when       int64
}

// list is one slot's intrusive doubly-linked list.
type list struct{ head *Timer }

func (l *list) push(t *Timer) {
	t.prev = nil
	t.next = l.head
	if l.head != nil {
		l.head.prev = t
	}
	l.head = t
	t.slot = l
}

// unlink removes t from its slot. t.slot must be non-nil.
func unlink(t *Timer) {
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		t.slot.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.next, t.prev, t.slot = nil, nil, nil
}

// Wheel is a hashed timer wheel. The zero value is not usable; create
// with New.
type Wheel struct {
	current int64 // last tick fully advanced past
	armed   int
	ring    [slots]list
}

// New returns an empty wheel positioned at tick 0.
func New() *Wheel { return &Wheel{} }

// Current returns the wheel clock: the last tick passed to Advance.
func (w *Wheel) Current() int64 { return w.current }

// Len returns the number of armed timers.
func (w *Wheel) Len() int { return w.armed }

// Arm schedules t to fire at absolute tick `when`, moving it if already
// armed. A deadline at or before the current tick is clamped to the
// next tick — a zero-delay Arm fires on the next Advance, never
// synchronously.
func (w *Wheel) Arm(t *Timer, when int64) {
	if t.slot != nil {
		unlink(t)
		w.armed--
	}
	t.when = max(when, w.current+1)
	w.ring[t.when&mask].push(t)
	w.armed++
}

// Advance moves the wheel clock to tick `to`, appending every timer
// whose deadline has arrived to due (in no particular order) and
// returning the extended slice. Collected timers are disarmed; the
// caller fires them after Advance returns and may re-Arm from there.
// Pass a reused scratch slice to keep the steady state allocation-free.
func (w *Wheel) Advance(to int64, due []*Timer) []*Timer {
	for c, n := w.current+1, min(to-w.current, slots); n > 0; c, n = c+1, n-1 {
		for t := w.ring[c&mask].head; t != nil; {
			next := t.next
			if t.when <= to {
				unlink(t)
				due = append(due, t)
				w.armed--
			}
			t = next
		}
	}
	w.current = max(w.current, to)
	return due
}

// DrainAll disarms every timer and appends them all to due — the
// shutdown sweep.
func (w *Wheel) DrainAll(due []*Timer) []*Timer {
	for i := range w.ring {
		for t := w.ring[i].head; t != nil; {
			next := t.next
			t.next, t.prev, t.slot = nil, nil, nil
			due = append(due, t)
			t = next
		}
		w.ring[i].head = nil
	}
	w.armed = 0
	return due
}
