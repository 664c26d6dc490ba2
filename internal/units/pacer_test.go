package units

import (
	"testing"
	"time"
)

// Regression: a sub-quantum rate (rate·quantum < 1 byte) must still make
// progress. The old memserve code computed int(BytesIn(rate, quantum))
// once — zero for rates below 10 B/s at 100ms quanta — so the stream
// never advanced and held its admission slot forever.
func TestPacerSubQuantumRateMakesProgress(t *testing.T) {
	p := NewPacer(3*BPS, 100*time.Millisecond) // 0.3 bytes per quantum
	total := 0
	for i := 0; i < 100; i++ { // 10 simulated seconds
		total += p.Next()
	}
	if total != 30 {
		t.Errorf("3 B/s over 10s emitted %d bytes, want 30", total)
	}
}

func TestPacerWholeQuantumRate(t *testing.T) {
	p := NewPacer(100*KBPS, 100*time.Millisecond)
	for i := 0; i < 5; i++ {
		if n := p.Next(); n != 10000 {
			t.Fatalf("quantum %d: chunk = %d, want 10000", i, n)
		}
	}
}

// The cumulative budget is exact at every boundary: fractional carry
// never loses or duplicates bytes, whatever the rate/quantum mix.
func TestPacerCumulativeExact(t *testing.T) {
	for _, rate := range []ByteRate{1, 3, 7, 999, 100e3, 123456.789} {
		p := NewPacer(rate, 10*time.Millisecond)
		total := 0
		const quanta = 1000 // 10 simulated seconds
		for i := 0; i < quanta; i++ {
			total += p.Next()
		}
		want := float64(rate) * 10.0
		if diff := want - float64(total); diff < 0 || diff >= 1 {
			t.Errorf("rate %v: emitted %d bytes over 10s, want within 1 of %.2f", rate, total, want)
		}
	}
}

func TestPacerNonPositiveRate(t *testing.T) {
	p := NewPacer(0, time.Second)
	for i := 0; i < 3; i++ {
		if n := p.Next(); n != 0 {
			t.Fatalf("zero-rate pacer emitted %d bytes", n)
		}
	}
}

// deadline is the wall-clock instant of p's most recently issued quantum,
// measured from the stream start: pacing against these absolute
// boundaries, rather than sleeping a relative quantum after each write,
// keeps a blocked write from shifting every later one.
func deadline(p *Pacer, start time.Time) time.Time {
	return start.Add(time.Duration(p.Ticks()) * p.quantum)
}

func TestPacerDeadlineAnchored(t *testing.T) {
	p := NewPacer(1*KBPS, 100*time.Millisecond)
	start := time.Unix(1000, 0)
	p.Next()
	p.Next()
	p.Next()
	if got, want := deadline(p, start), start.Add(300*time.Millisecond); !got.Equal(want) {
		t.Errorf("Deadline after 3 quanta = %v, want %v", got, want)
	}
}

// The catch-up contract the serving loop relies on after a blocked
// write: a stall of k quanta leaves the pacer k boundaries behind the
// wall clock, and the loop then calls Next repeatedly with no sleep in
// between (every Deadline is already past). Those catch-up calls must
// (a) emit exactly the owed rate × stall bytes cumulatively, (b) stay
// bounded per call — one quantum's worth each, never one giant
// stall-sized chunk — and (c) keep Deadline anchored to stream start,
// so the schedule never shifts by the stall.
func TestPacerCatchUpAfterStall(t *testing.T) {
	const (
		rate    = 100 * KBPS // 10000 B per 100ms quantum
		quantum = 100 * time.Millisecond
		perQ    = 10000
	)
	p := NewPacer(rate, quantum)
	start := time.Unix(1000, 0)

	// 5 on-schedule quanta.
	for i := 1; i <= 5; i++ {
		if n := p.Next(); n != perQ {
			t.Fatalf("quantum %d: chunk = %d, want %d", i, n, perQ)
		}
		if got, want := deadline(p, start), start.Add(time.Duration(i)*quantum); !got.Equal(want) {
			t.Fatalf("quantum %d: Deadline = %v, want %v", i, got, want)
		}
	}

	// A 7-quantum stall: the writer was blocked, no Next calls happened.
	// The loop resumes and drains the owed quanta back-to-back.
	const stall = 7
	owed := 0
	for i := 0; i < stall; i++ {
		n := p.Next()
		if n > perQ+1 {
			t.Fatalf("catch-up call %d emitted %d bytes; must stay bounded by one quantum's %d", i, n, perQ)
		}
		owed += n
	}
	if owed != stall*perQ {
		t.Errorf("catch-up emitted %d bytes over %d quanta, want the owed %d", owed, stall, stall*perQ)
	}
	// Deadline is still start-anchored: 12 quanta issued in total, so the
	// boundary is start+12q regardless of when the calls actually ran.
	if got, want := deadline(p, start), start.Add(12*quantum); !got.Equal(want) {
		t.Errorf("Deadline after stall catch-up = %v, want start-anchored %v", got, want)
	}
}

// Catch-up with a fractional-rate pacer: the owed bytes across a stall
// keep the cumulative budget exact (no double-count, no loss), even when
// single quanta owe fractional bytes.
func TestPacerCatchUpFractionalExact(t *testing.T) {
	p := NewPacer(7*BPS, 100*time.Millisecond) // 0.7 bytes per quantum
	total := 0
	for i := 0; i < 10; i++ { // 1s on schedule
		total += p.Next()
	}
	for i := 0; i < 30; i++ { // 3s stall drained in a burst
		total += p.Next()
	}
	if total != 28 { // 7 B/s × 4s
		t.Errorf("cumulative bytes = %d, want 28", total)
	}
}

func TestPacerPanicsOnBadQuantum(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPacer(r, 0) did not panic")
		}
	}()
	NewPacer(1*KBPS, 0)
}

// NextBatch(k) must emit exactly what k Next() calls emit: the budget
// is recomputed from the tick index and sent is always integral, so the
// floors telescope. This is the wheel plane's byte-conservation
// contract — a stream that slept through k quanta settles the same debt
// in one call as the goroutine plane does in k.
func TestPacerNextBatchEquivalence(t *testing.T) {
	rates := []ByteRate{5 * BPS, 7 * BPS, 100 * KBPS, 333333 * BPS}
	for _, rate := range rates {
		a := NewPacer(rate, 10*time.Millisecond)
		b := NewPacer(rate, 10*time.Millisecond)
		totalA, totalB := 0, 0
		// Mixed advancement pattern: singles vs batches of 1,2,3,5,25.
		batches := []int64{1, 2, 3, 5, 25, 1, 7}
		for _, k := range batches {
			for i := int64(0); i < k; i++ {
				totalA += a.Next()
			}
			totalB += b.NextBatch(k)
		}
		if totalA != totalB {
			t.Errorf("rate %v: %d singles emitted %d bytes, batches emitted %d",
				rate, 44, totalA, totalB)
		}
		if a.Ticks() != b.Ticks() {
			t.Errorf("rate %v: tick counts diverged: %d vs %d", rate, a.Ticks(), b.Ticks())
		}
	}
}

func TestPacerNextBatchNonPositive(t *testing.T) {
	p := NewPacer(1*KBPS, 10*time.Millisecond)
	if n := p.NextBatch(0); n != 0 {
		t.Errorf("NextBatch(0) = %d, want 0", n)
	}
	if n := p.NextBatch(-3); n != 0 {
		t.Errorf("NextBatch(-3) = %d, want 0", n)
	}
	if got := p.Ticks(); got != 0 {
		t.Errorf("non-positive batches advanced ticks to %d", got)
	}
}

// QuantaToNonzero is the wheel's skip-ahead: park a sub-quantum stream
// until a whole byte accrues. Parking that long then settling the debt
// must emit at least one byte; parking one quantum less must emit zero.
func TestPacerQuantaToNonzero(t *testing.T) {
	for _, rate := range []ByteRate{1 * BPS, 5 * BPS, 49 * BPS, 7 * BPS} {
		p := NewPacer(rate, 10*time.Millisecond)
		for step := 0; step < 20; step++ {
			k := p.QuantaToNonzero()
			if k < 1 {
				t.Fatalf("rate %v: QuantaToNonzero = %d, want >= 1", rate, k)
			}
			if k > 2 {
				// Well short of the estimate nothing must be due yet;
				// the documented float tolerance is one quantum.
				probe := *p
				if n := probe.NextBatch(k - 2); n != 0 {
					t.Fatalf("rate %v step %d: k=%d but k-2 quanta already emit %d bytes",
						rate, step, k, n)
				}
			}
			n := p.NextBatch(k)
			// Float rounding may leave the estimate one quantum short
			// (emitting 0 once); one extra quantum must then deliver.
			if n == 0 {
				if n2 := p.NextBatch(1); n2 < 1 {
					t.Fatalf("rate %v step %d: skip of %d then 1 more still emits nothing", rate, step, k)
				}
			}
		}
	}
	// At and above one byte per quantum the skip is always 1.
	p := NewPacer(100*BPS, 10*time.Millisecond)
	if k := p.QuantaToNonzero(); k != 1 {
		t.Errorf("super-quantum rate: QuantaToNonzero = %d, want 1", k)
	}
	// Non-positive rate parks on a saturated horizon.
	z := NewPacer(0, 10*time.Millisecond)
	if k := z.QuantaToNonzero(); k < 1<<40 {
		t.Errorf("zero rate: QuantaToNonzero = %d, want saturated", k)
	}
}
