package server

import (
	"sort"
	"time"

	"memstream/internal/disk"
	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// This file holds the rig's batch-oriented state: per-stream playback
// state as struct-of-arrays (playerSoA), the shared consumption tables
// that replaced the per-player integrator closures (consTables), and the
// Arena that lets a sequence of runs reuse all of it.
//
// The layout exists for the steady-state cycle walk: one cycle visits
// every stream once, and with per-player heap objects each visit was a
// pointer chase into a separately-allocated player plus an indirect call
// into a captured integrator closure. The SoA walk touches parallel
// arrays sequentially, and the consumption profiles index into two shared
// cumulative tables — same arithmetic, no per-player allocations, cache
// lines doing useful work. The pinned-golden gate (testdata of
// internal/experiments) holds this rewrite to byte-identical Results.

// playerSoA is every stream's playback state in parallel arrays indexed
// by stream slot (the rig's player index). It also carries the pool-wide
// DRAM occupancy accounting: the rig's pool is unlimited, so what matters
// is the running total and its high-water mark.
type playerSoA struct {
	pos       []int64         // next block to read from the stream's source device
	startAt   []time.Duration // playback begins (and margins anchor) here
	lastDrain []time.Duration // drain clock; advanced by every fill and the final drain
	level     []units.Bytes   // bytes currently buffered in DRAM
	deficit   []units.Bytes   // cumulative underflow bytes
	underflow []int32         // underflow events
	cons      []consRef       // consumption profile; zero value = CBR

	used      units.Bytes // total DRAM occupancy across all streams
	highWater units.Bytes
}

// reset sizes every array for n streams and zeroes all state.
func (ps *playerSoA) reset(n int) {
	ps.pos = resize(ps.pos, n)
	ps.startAt = resize(ps.startAt, n)
	ps.lastDrain = resize(ps.lastDrain, n)
	ps.level = resize(ps.level, n)
	ps.deficit = resize(ps.deficit, n)
	ps.underflow = resize(ps.underflow, n)
	ps.cons = resize(ps.cons, n)
	ps.used, ps.highWater = 0, 0
}

// resize returns s with length n and zeroed contents, reusing capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

// consRef points a stream at its consumption profile. The zero value is
// CBR at the rig's nominal rate; trace and pause kinds index into the
// rig's shared consTables.
type consRef struct {
	kind consKind
	idx  int32
}

type consKind uint8

const (
	consCBR consKind = iota
	consTrace
	consPause
)

// consTables holds every VBR trace prefix-sum and pause-phase schedule of
// a run in shared append-only arrays. Each profile is an (offset, length)
// window; lookups reproduce the arithmetic of the closure-based
// traceIntegrator/pauseIntegrator (which survive in integrators_test.go as the
// behavioral reference) operation for operation, so a drain computes the
// same float64s it always did.
type consTables struct {
	// VBR traces: prefix[off+i] is the bytes consumed by the end of
	// interval i (prefix[off] == 0), built as the same running float64 sum
	// the integrator closure accumulated.
	prefix []float64
	traces []traceTable

	// Pause schedules: bounds[off+i] alternates play-end, pause-end, ...
	// in seconds; consumed[off+i] is cumulative consumption at that
	// boundary.
	bounds   []float64
	consumed []float64
	pauses   []pauseTable
}

type traceTable struct {
	off   int32
	dt    time.Duration // interval length
	span  time.Duration // len(trace)·dt
	total float64       // bytes consumed per full trace span
}

type pauseTable struct {
	off, n int32
	rateF  float64 // play-phase consumption rate, bytes/sec
}

func (t *consTables) reset() {
	t.prefix = t.prefix[:0]
	t.traces = t.traces[:0]
	t.bounds = t.bounds[:0]
	t.consumed = t.consumed[:0]
	t.pauses = t.pauses[:0]
}

// addTrace appends a normalized VBR trace's prefix sums and returns a
// consRef to it.
func (t *consTables) addTrace(trace []units.ByteRate, dt time.Duration) consRef {
	off := int32(len(t.prefix))
	p := 0.0
	t.prefix = append(t.prefix, 0)
	for _, r := range trace {
		p += float64(r) * dt.Seconds()
		t.prefix = append(t.prefix, p)
	}
	t.traces = append(t.traces, traceTable{
		off: off, dt: dt, span: time.Duration(len(trace)) * dt, total: p,
	})
	return consRef{kind: consTrace, idx: int32(len(t.traces) - 1)}
}

// addPause generates a play/pause phase schedule (alternating
// exponentially distributed phases out to horizon seconds, consuming
// rateF while playing) and returns a consRef to it. The RNG draws happen
// here, eagerly, in the caller's player order — the same consumption
// discipline the closure build had.
func (t *consTables) addPause(rng *sim.RNG, rateF, meanPlay, meanPause, horizon float64) consRef {
	off := int32(len(t.bounds))
	tt, c := 0.0, 0.0
	playing := true
	for tt < horizon {
		var d float64
		if playing {
			d = rng.Exp(meanPlay)
			c += rateF * d
		} else {
			d = rng.Exp(meanPause)
		}
		tt += d
		t.bounds = append(t.bounds, tt)
		t.consumed = append(t.consumed, c)
		playing = !playing
	}
	t.pauses = append(t.pauses, pauseTable{off: off, n: int32(len(t.bounds)) - off, rateF: rateF})
	return consRef{kind: consPause, idx: int32(len(t.pauses) - 1)}
}

// consume integrates profile ref over [from, to), offsets measured from
// playback start. ref.kind must not be consCBR (the rig handles CBR
// inline).
func (t *consTables) consume(ref consRef, from, to time.Duration) units.Bytes {
	if ref.kind == consTrace {
		tt := &t.traces[ref.idx]
		return units.Bytes(t.traceAt(tt, to) - t.traceAt(tt, from))
	}
	pt := &t.pauses[ref.idx]
	return units.Bytes(t.pauseAt(pt, to) - t.pauseAt(pt, from))
}

// traceAt is the cumulative consumption of a repeating piecewise-constant
// rate profile at offset at.
func (t *consTables) traceAt(tt *traceTable, at time.Duration) float64 {
	if at <= 0 {
		return 0
	}
	wraps := float64(at / tt.span)
	rem := at % tt.span
	i := int32(rem / tt.dt)
	frac := float64(rem%tt.dt) / float64(tt.dt)
	p := t.prefix[tt.off+i:]
	return wraps*tt.total + p[0] + (p[1]-p[0])*frac
}

// pauseAt is the cumulative consumption of a play/pause schedule at
// offset x; beyond the generated horizon the stream is treated as paused.
func (t *consTables) pauseAt(pt *pauseTable, x time.Duration) float64 {
	xs := x.Seconds()
	if xs <= 0 || pt.n == 0 {
		return 0
	}
	b := t.bounds[pt.off : pt.off+pt.n]
	i := sort.SearchFloat64s(b, xs) // first boundary ≥ xs
	if i == len(b) {
		return t.consumed[pt.off+pt.n-1]
	}
	prevT, prevC := 0.0, 0.0
	if i > 0 {
		prevT, prevC = b[i-1], t.consumed[int(pt.off)+i-1]
	}
	if i%2 == 0 { // inside a play phase
		return prevC + pt.rateF*(xs-prevT)
	}
	return prevC // inside a pause phase
}

// Arena is the reusable simulation state for a sequence of server runs:
// the event engine, the SoA player state, the consumption tables, the
// margins reservoir, the pools of service chains and disk schedulers, and
// the last catalog a run laid out. A shard goroutine creates one Arena
// and threads it through every partition it executes (Config.Arena), so
// partition p+1 runs in the storage partition p grew — steady state
// allocates nothing per run beyond the run's own Result — and a sweep
// whose points share a catalog builds it, and its sampler, once.
//
// An Arena is not safe for concurrent use: at most one run may own it at
// a time. Reuse is provably behavior-free — every reset restores exact
// zero-state semantics, and the pinned-golden and shard byte-identity
// gates hold runs with and without an arena to identical Results.
type Arena struct {
	eng     sim.Engine
	ps      playerSoA
	tab     consTables
	margins *sim.Reservoir

	chains chainSet
	scheds []*disk.Scheduler
	all    []int // 0, 1, 2, …: rig.allStreams, read-only

	// cat is the catalog the last run laid out, reused by the next run
	// with the same catKey. A catalog is a pure function of its key and
	// read-only once its sampler is built, so a remembered one is
	// indistinguishable from a fresh one.
	cat    *workload.Catalog
	catKey catalogKey
}

// NewArena returns an empty arena ready for Config.Arena.
func NewArena() *Arena { return &Arena{} }

// reset prepares the arena for a run of n streams.
func (a *Arena) reset(n int, marginSeed uint64) {
	a.eng.Reset()
	a.ps.reset(n)
	a.tab.reset()
	a.chains.reset(&a.eng)
	if a.margins == nil {
		a.margins = sim.NewReservoir(8192, marginSeed)
	} else {
		a.margins.Reset(marginSeed)
	}
}

// catalog returns the catalog for k: the remembered one when the previous
// run asked for the same key, a new one (remembered in its place)
// otherwise.
func (a *Arena) catalog(k catalogKey) (*workload.Catalog, error) {
	if a.cat != nil && a.catKey == k {
		return a.cat, nil
	}
	cat, err := newCatalog(k)
	if err != nil {
		return nil, err
	}
	a.cat, a.catKey = cat, k
	return cat, nil
}

// chainSet is every service chain of a run, pooled across runs. The set
// owns one calendar entry, keyed by its chains' earliest pending wake-up
// (a completion a chain posts instead of scheduling it). When the entry
// fires, the set runs that chain, then keeps running whichever chain is
// now earliest for as long as the engine lets it fire in place
// (sim.Engine.Advance), and puts the first key it may not fire back on
// the calendar. A buffered run's bank transfers thus cost a scan over
// K + 1 chains instead of a calendar push and pop each, and every wake-up
// still fires under the key, and in the order, that one calendar entry
// per completion would give it.
type chainSet struct {
	eng    *sim.Engine
	all    []*chain // the pool; the current run owns all[:used]
	used   int
	ev     sim.Event // the set's calendar entry, when armed
	key    sim.Key   // ev's key
	armed  bool
	firing bool // fireChains is running: posts wait for its scan
}

// reset re-arms the set for a run on eng, keeping every pooled chain.
func (s *chainSet) reset(eng *sim.Engine) {
	for _, c := range s.all[:s.used] {
		c.reset()
	}
	s.eng, s.used = eng, 0
	s.ev, s.key, s.armed, s.firing = sim.Event{}, sim.Key{}, false, false
}

// get hands out a pooled chain of the set.
func (s *chainSet) get() *chain {
	if s.used == len(s.all) {
		s.all = append(s.all, &chain{set: s})
	}
	s.used++
	return s.all[s.used-1]
}

// post notes that c's wake-up is pending. Outside fireChains, a wake-up
// earlier than the armed one takes over the set's calendar entry; inside
// it, the scan after the running chain picks it up.
func (s *chainSet) post(c *chain) {
	if s.firing || (s.armed && !c.wake.Less(s.key)) {
		return
	}
	s.arm(c.wake)
}

// arm puts the set's calendar entry at k, cancelling the armed one.
func (s *chainSet) arm(k sim.Key) {
	if s.armed {
		s.ev.Cancel()
	}
	s.ev, s.key, s.armed = s.eng.ScheduleKey(k, fireChains, s), k, true
}

// earliest returns the busy chain whose wake-up comes first, or nil.
func (s *chainSet) earliest() *chain {
	var first *chain
	for _, c := range s.all[:s.used] {
		if c.busy && (first == nil || c.wake.Less(first.wake)) {
			first = c
		}
	}
	return first
}

// fireChains is the set's calendar callback: the armed wake-up is due.
func fireChains(arg any) {
	s := arg.(*chainSet)
	s.armed, s.firing = false, true
	c := s.earliest()
	for {
		c.runNext()
		if c = s.earliest(); c == nil || !s.eng.Advance(c.wake) {
			break
		}
	}
	s.firing = false
	if c != nil {
		s.arm(c.wake)
	}
}

// getSched hands out a pooled C-LOOK scheduler re-armed for dev. The
// caller returns it with putSched once its batch has fully dispatched.
func (a *Arena) getSched(dev *disk.Device) *disk.Scheduler {
	if n := len(a.scheds); n > 0 {
		s := a.scheds[n-1]
		a.scheds = a.scheds[:n-1]
		s.Rebind(dev)
		return s
	}
	return disk.NewScheduler(dev, disk.CLook)
}

func (a *Arena) putSched(s *disk.Scheduler) { a.scheds = append(a.scheds, s) }
