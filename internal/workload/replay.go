package workload

import (
	"math/bits"
	"slices"
	"time"
)

// Replay drives one session trace through any number of admission tests.
// Reset indexes the trace once — session indices sorted by departure time
// — and each Admission call then walks arrivals against a cursor over
// that order in O(n), where a departure heap paid O(log n) per session
// per test. It returns loss-system statistics — the Erlang-B view of the
// streaming server's capacity region.
//
// The trace must be in arrival order with non-negative holds, hold fewer
// than 2³¹ sessions, and stay unmodified until the next Reset. Negative
// holds are unsupported: the cursor would pass over departures that are
// due and the statistics would be silently wrong. The zero Replay is
// ready for Reset. A Replay keeps its index storage (8 bytes and one flag
// per session, plus a 256 KB histogram) across Resets.
//
// Every statistic, AvgBusy's float64 sum included, is bit-equal to what
// the heap replay it replaced computes (replay_oracle_test.go): an
// admitted session leaves at the first later arrival at or after its
// departure, in departure order, and sessions leaving at the same instant
// may swap places freely because all but the first of them integrate a
// zero-length interval.
type Replay struct {
	sessions []Session
	order    []int32 // session indices, stably sorted by departure
	scratch  []int32 // radix scatter buffer
	admitted []bool  // per session, this Admission call

	counts [1 << radixBits]int32 // one digit's histogram, then its bucket offsets
}

const radixBits = 16

// NewReplay returns a Replay with index storage for traces of up to n
// sessions already allocated.
func NewReplay(n int) *Replay {
	return &Replay{
		order:    make([]int32, 0, n),
		scratch:  make([]int32, 0, n),
		admitted: make([]bool, 0, n),
	}
}

// departure is when session s leaves if admitted.
func departure(s *Session) time.Duration { return s.Arrive + s.Hold }

// Reset points the Replay at a new trace and indexes it.
func (r *Replay) Reset(sessions []Session) {
	n := len(sessions)
	r.sessions = sessions
	r.order = slices.Grow(r.order[:0], n)[:n]
	r.scratch = slices.Grow(r.scratch[:0], n)[:n]
	r.admitted = slices.Grow(r.admitted[:0], n)[:n]
	for i := range r.order {
		r.order[i] = int32(i)
	}
	if n == 0 {
		return
	}

	// Stable LSD radix over departure − earliest departure, one 16-bit
	// digit per pass, stopping at the latest departure's highest digit (a
	// six-hour trace in nanoseconds needs three). Keys are recomputed from
	// the sessions rather than stored: 16-byte (key, index) pairs would
	// double the index's footprint for a sort that runs once per trace.
	lo, hi := departure(&sessions[0]), departure(&sessions[0])
	for i := range sessions {
		d := departure(&sessions[i])
		lo, hi = min(lo, d), max(hi, d)
	}
	key := func(s *Session) uint64 { return uint64(departure(s)) - uint64(lo) }
	src, dst := r.order, r.scratch
	for shift := uint(0); shift < uint(bits.Len64(uint64(hi)-uint64(lo))); shift += radixBits {
		cnt := &r.counts
		clear(cnt[:])
		for i := range sessions {
			cnt[uint16(key(&sessions[i])>>shift)]++
		}
		var sum int32
		for b, c := range cnt {
			cnt[b] = sum
			sum += c
		}
		for _, j := range src {
			b := uint16(key(&sessions[j]) >> shift)
			dst[cnt[b]] = j
			cnt[b]++
		}
		src, dst = dst, src
	}
	r.order, r.scratch = src, dst
}

// Admission replays the trace through one admission test: capacity
// reports whether one more concurrent stream fits given the current
// count.
func (r *Replay) Admission(capacity func(busy int) bool) AdmissionStats {
	sessions, order, admitted := r.sessions, r.order, r.admitted
	stats := AdmissionStats{Offered: len(sessions)}
	if len(sessions) == 0 {
		return stats
	}
	clear(admitted)
	next := 0 // cursor into order: everything before it has left or was never admitted
	busy := 0
	var busyArea float64
	last := time.Duration(0)
	for i := range sessions {
		t := sessions[i].Arrive
		// Process departures up to t, integrating busy-time exactly. The
		// cursor waits at a session that has not arrived yet: it can be
		// due only through a zero-length hold at this very instant, it
		// leaves after its own arrival, and nothing behind it in the
		// order is both due and already here.
		for next < len(order) {
			j := int(order[next])
			if j >= i {
				break
			}
			if admitted[j] {
				d := departure(&sessions[j])
				if d > t {
					break
				}
				busyArea += float64(busy) * (d - last).Seconds()
				last = d
				busy--
			}
			next++
		}
		busyArea += float64(busy) * (t - last).Seconds()
		last = t
		if !capacity(busy) {
			stats.Rejected++
			continue
		}
		stats.Admitted++
		admitted[i] = true
		busy++
		if busy > stats.PeakBusy {
			stats.PeakBusy = busy
		}
	}
	horizon := sessions[len(sessions)-1].Arrive
	if horizon > 0 {
		stats.AvgBusy = busyArea / horizon.Seconds()
	}
	stats.BlockProb = float64(stats.Rejected) / float64(stats.Offered)
	return stats
}
