package units

import (
	"math"
	"time"
)

// Pacer converts a byte rate into a sequence of whole-byte chunk sizes,
// one per fixed pacing quantum, without losing the fractional bytes that
// integer truncation would drop. A naive `int(BytesIn(rate, quantum))`
// yields zero for sub-quantum rates (rate·quantum < 1 byte), so a sender
// paced that way never makes progress; the Pacer instead tracks the
// cumulative byte budget at each quantum boundary and emits the whole
// bytes that have become due, carrying the remainder forward.
//
// The budget is recomputed from the tick index on every call rather than
// accumulated incrementally, so per-quantum float error does not compound
// over long streams.
type Pacer struct {
	rate    ByteRate
	quantum time.Duration
	ticks   int64 // quanta elapsed
	sent    float64
}

// NewPacer creates a pacer emitting chunks for rate at one chunk per
// quantum. It panics on a non-positive quantum; a non-positive rate
// yields a pacer that always returns zero.
func NewPacer(rate ByteRate, quantum time.Duration) *Pacer {
	if quantum <= 0 {
		panic("units: non-positive pacing quantum")
	}
	return &Pacer{rate: rate, quantum: quantum}
}

// Next advances one quantum and returns the whole bytes due, carrying
// any fractional remainder into later quanta. For sub-quantum rates it
// returns 0 for several calls and then 1 once a whole byte accrues.
func (p *Pacer) Next() int { return p.NextBatch(1) }

// NextBatch advances k quanta at once and returns the total whole bytes
// due across all of them — the timer-wheel catch-up path, where a
// stream that slept through k quantum boundaries settles its whole debt
// in one call. Because the budget is recomputed from the tick index,
// NextBatch(k) emits exactly the same total as k Next() calls
// (p.sent is always an integer, so the floors telescope). k <= 0 is a
// no-op returning 0.
func (p *Pacer) NextBatch(k int64) int {
	if p.rate <= 0 || k <= 0 {
		if k > 0 {
			p.ticks += k
		}
		return 0
	}
	p.ticks += k
	due := float64(p.rate) * (time.Duration(p.ticks) * p.quantum).Seconds()
	n := int(due - p.sent)
	if n < 0 {
		n = 0
	}
	p.sent += float64(n)
	return n
}

// Ticks returns how many quanta the pacer has issued.
func (p *Pacer) Ticks() int64 { return p.ticks }

// QuantaToNonzero returns the number of quanta that must elapse before
// the pacer next emits at least one whole byte — the timer wheel's
// skip-ahead: a sub-quantum stream parks that many ticks out instead of
// waking every quantum to emit nothing. Always at least 1; a
// non-positive rate returns a saturated horizon. Float rounding may
// put the estimate one quantum off in either direction (the division
// by perTick and the Duration-based accrual round differently): one
// short costs a spurious zero-byte wake and a re-park, one long delays
// a sub-quantum stream's next byte by a single quantum. Progress is
// never lost either way.
func (p *Pacer) QuantaToNonzero() int64 {
	if p.rate <= 0 {
		return math.MaxInt64 / 2
	}
	perTick := float64(p.rate) * p.quantum.Seconds()
	if perTick >= 1 {
		return 1
	}
	accrued := float64(p.rate) * (time.Duration(p.ticks) * p.quantum).Seconds()
	k := int64(math.Ceil((p.sent + 1 - accrued) / perTick))
	if k < 1 {
		k = 1
	}
	return k
}
