package sim

import (
	"testing"
	"time"
)

// Handle and cancellation edge cases: an Event is an id the calendar
// matches on Cancel, so every test here is about a handle whose entry is
// gone — fired, cancelled, or reset away — staying inert.

func TestCancelAfterFire(t *testing.T) {
	var eng Engine
	fired := 0
	ev := schedule(&eng, time.Millisecond, func() { fired++ })
	eng.Run()
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	// The entry is gone; Cancel must not resurrect or corrupt anything.
	ev.Cancel()
	ev.Cancel()
	var zero Event
	zero.Cancel() // the zero handle is inert
	if eng.Pending() != 0 || eng.Executed() != 1 {
		t.Errorf("Pending=%d Executed=%d after cancel-after-fire", eng.Pending(), eng.Executed())
	}
	// The engine must still schedule and fire normally.
	schedule(&eng, time.Millisecond, func() { fired++ })
	eng.Run()
	if fired != 2 {
		t.Errorf("engine wedged after cancel-after-fire: fired = %d", fired)
	}
}

func TestDoubleCancelKeepsAccountingExact(t *testing.T) {
	var eng Engine
	ev := schedule(&eng, time.Millisecond, func() {})
	keep := schedule(&eng, 2*time.Millisecond, func() {})
	ev.Cancel()
	if eng.Pending() != 1 {
		t.Fatalf("Pending = %d after first cancel, want 1", eng.Pending())
	}
	// A second cancel must not remove anything else.
	ev.Cancel()
	if eng.Pending() != 1 {
		t.Fatalf("Pending = %d after double cancel, want 1", eng.Pending())
	}
	keep.Cancel()
	if eng.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", eng.Pending())
	}
	eng.Run()
	if eng.Executed() != 0 {
		t.Errorf("Executed = %d, want 0", eng.Executed())
	}
}

func TestCancelFromInsideOwnCallback(t *testing.T) {
	var eng Engine
	fired := 0
	var self Event
	self = schedule(&eng, time.Millisecond, func() {
		fired++
		// The entry left the calendar before its callback ran, so
		// cancelling yourself is a no-op that in particular cannot remove
		// the successor scheduled next.
		self.Cancel()
		schedule(&eng, time.Millisecond, func() { fired++ })
	})
	eng.Run()
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (self-cancel must not kill the successor)", fired)
	}
}

func TestStaleHandleAfterSlotRecycle(t *testing.T) {
	var eng Engine
	// A fired event's handle must not reach the event scheduled after it,
	// nor one scheduled after a Reset.
	stale := schedule(&eng, time.Millisecond, func() {})
	eng.Run()

	fired := 0
	schedule(&eng, time.Millisecond, func() { fired++ })
	stale.Cancel()
	if eng.Pending() != 1 {
		t.Fatalf("stale Cancel killed the next event (Pending = %d)", eng.Pending())
	}
	eng.Run()

	pending := schedule(&eng, time.Millisecond, func() {})
	eng.Reset()
	schedule(&eng, time.Millisecond, func() { fired++ })
	stale.Cancel()
	pending.Cancel()
	if eng.Pending() != 1 {
		t.Fatalf("a handle from before Reset killed a new event (Pending = %d)", eng.Pending())
	}
	eng.Run()
	if fired != 2 {
		t.Errorf("fired = %d, want 2: a stale handle cancelled a live event", fired)
	}
}

// TestRunUntilDeadHeadAtDeadline: the calendar's earliest event is
// cancelled at (or before) the deadline, and the next live event lies
// beyond it. RunUntil must not fire the live event and must not advance
// the clock past the deadline.
func TestRunUntilDeadHeadAtDeadline(t *testing.T) {
	var eng Engine
	headFired, lateFired := false, false
	head := schedule(&eng, 3*time.Millisecond, func() { headFired = true })
	schedule(&eng, 5*time.Millisecond, func() { lateFired = true })
	head.Cancel()

	eng.RunUntil(3 * time.Millisecond)
	if headFired {
		t.Error("cancelled head event fired")
	}
	if lateFired {
		t.Error("RunUntil fired an event past the deadline after a cancelled head")
	}
	if eng.Now() != 3*time.Millisecond {
		t.Errorf("Now = %v, want exactly the 3ms deadline", eng.Now())
	}
	if eng.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", eng.Pending())
	}

	eng.RunUntil(MaxTime)
	if !lateFired {
		t.Error("live event never fired")
	}
}

// TestCancelHeavyCompaction drives a cancel-dominated program — far more
// entries than any run keeps, most of them cancelled — and checks the
// survivors still fire in order with exact accounting.
func TestCancelHeavyCompaction(t *testing.T) {
	var eng Engine
	const n = 10000
	var fired []int
	handles := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		i := i
		handles = append(handles, schedule(&eng, time.Duration(i)*time.Microsecond, func() {
			fired = append(fired, i)
		}))
	}
	// Cancel everything not divisible by 97.
	for i, h := range handles {
		if i%97 != 0 {
			h.Cancel()
		}
	}
	want := 0
	for i := 0; i < n; i += 97 {
		want++
	}
	if eng.Pending() != want {
		t.Fatalf("Pending = %d, want %d", eng.Pending(), want)
	}
	eng.Run()
	if len(fired) != want {
		t.Fatalf("fired %d, want %d", len(fired), want)
	}
	for j := 1; j < len(fired); j++ {
		if fired[j-1] >= fired[j] {
			t.Fatalf("order violated at %d: %d >= %d", j, fired[j-1], fired[j])
		}
	}
	if eng.Executed() != uint64(want) {
		t.Errorf("Executed = %d, want %d", eng.Executed(), want)
	}
}

// TestCancelAllCompaction cancels every scheduled event, so the calendar
// empties by cancellation alone, and checks it is still usable.
func TestCancelAllCompaction(t *testing.T) {
	var eng Engine
	const n = 65
	handles := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		handles = append(handles, schedule(&eng, time.Duration(i)*time.Microsecond, func() {
			t.Error("cancelled event fired")
		}))
	}
	for _, h := range handles {
		h.Cancel()
	}
	if eng.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", eng.Pending())
	}
	eng.Run()
	if eng.Executed() != 0 {
		t.Errorf("Executed = %d, want 0", eng.Executed())
	}
	fired := false
	schedule(&eng, time.Microsecond, func() { fired = true })
	eng.Run()
	if !fired {
		t.Error("event scheduled after cancelling everything never fired")
	}
}

// TestScheduleArg covers argument delivery, ordering against other
// events, cancellation and the negative-delay clamp.
func TestScheduleArg(t *testing.T) {
	var eng Engine
	var got []int
	push := func(arg any) { got = append(got, *arg.(*int)) }
	one, two, three := 1, 2, 3
	eng.ScheduleArg(2*time.Millisecond, push, &two)
	schedule(&eng, 3*time.Millisecond, func() { got = append(got, three) })
	eng.ScheduleArg(time.Millisecond, push, &one)
	ev := eng.ScheduleArg(time.Millisecond, push, &three)
	ev.Cancel()
	eng.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
	fired := false
	eng.ScheduleArg(-time.Second, func(any) { fired = true }, nil)
	eng.Run()
	if !fired {
		t.Error("negative-delay ScheduleArg event never fired")
	}
}
