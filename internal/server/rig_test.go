package server

import (
	"reflect"
	"testing"
	"time"

	"memstream/internal/device"
	"memstream/internal/model"
	"memstream/internal/ring"
	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// rigConfigs is one representative configuration per driver, small enough
// to run all five in a table test.
func rigConfigs() []struct {
	name string
	cfg  Config
} {
	edf := baseConfig(Direct, 50, units.MBPS)
	edf.UseEDF = true
	cached := baseConfig(Cached, 200, 100*units.KBPS)
	cached.CachePolicy = model.Striped
	cached.Titles = 400
	hybrid := baseConfig(Hybrid, 300, 100*units.KBPS)
	hybrid.K = 4
	hybrid.CacheDevices = 2
	hybrid.Titles = 400
	return []struct {
		name string
		cfg  Config
	}{
		{"direct", baseConfig(Direct, 50, units.MBPS)},
		{"edf", edf},
		{"buffered", baseConfig(Buffered, 100, units.MBPS)},
		{"cached", cached},
		{"hybrid", hybrid},
	}
}

// TestFirstStreamIDDoesNotChangeDynamics: stream IDs are identity, not
// behaviour — offsetting a partition's ID range must not perturb its
// Result. This is what lets the shard layer give every partition a
// disjoint global ID range for free.
func TestFirstStreamIDDoesNotChangeDynamics(t *testing.T) {
	cfg := baseConfig(Direct, 50, units.MBPS)
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FirstStreamID = 4096
	shifted, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, shifted) {
		t.Errorf("FirstStreamID changed the Result:\n got %+v\nwant %+v", shifted, base)
	}
}

func TestPopulationSizeValidated(t *testing.T) {
	cfg := baseConfig(Direct, 5, units.MBPS)
	cfg.FirstStreamID = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative FirstStreamID did not fail validation")
	}
}

// Every mode populates the cross-mode Result fields the rig assembles.
func TestResultInvariantsAcrossModes(t *testing.T) {
	for _, tc := range rigConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Streams != tc.cfg.N {
				t.Errorf("Streams = %d, want %d", res.Streams, tc.cfg.N)
			}
			if res.Events <= 0 {
				t.Error("Events not populated")
			}
			if res.Cycles <= 0 {
				t.Error("Cycles not populated")
			}
			if res.SimulatedTime <= 0 {
				t.Error("SimulatedTime not populated")
			}
			if res.MarginP5 <= 0 {
				t.Errorf("MarginP5 = %v, want > 0 with %d streams", res.MarginP5, tc.cfg.N)
			}
			if res.DiskBusy <= 0 || res.DiskIOs == 0 {
				t.Error("disk accounting not populated")
			}
		})
	}
}

// Attaching the probe must not change the run: same seed, Trace on vs off,
// identical Result in every field but the trace itself.
func TestProbeAttachmentPreservesResult(t *testing.T) {
	for _, tc := range rigConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			traced := tc.cfg
			traced.Trace = true
			got, err := Run(traced)
			if err != nil {
				t.Fatal(err)
			}
			if got.Trace == nil {
				t.Fatal("Trace=true returned no trace")
			}
			got.Trace = nil
			if !reflect.DeepEqual(got, plain) {
				t.Errorf("probe changed the run:\n with %+v\n without %+v", got, plain)
			}
		})
	}
}

// The recorded trace is coherent: monotone timestamps, per-source cycle
// progression, deltas that sum to the Result totals, and the per-mode
// sources present.
func TestTraceContents(t *testing.T) {
	wantSources := map[string][]string{
		"direct":   {"disk"},
		"edf":      {}, // no cycle structure, empty trace
		"buffered": {"disk", "mems"},
		"cached":   {"disk", "cache"},
		"hybrid":   {"disk", "mems", "cache"},
	}
	for _, tc := range rigConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Trace = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			samples := res.Trace.Samples
			want := wantSources[tc.name]
			if len(want) == 0 {
				if len(samples) != 0 {
					t.Fatalf("EDF recorded %d samples, want none", len(samples))
				}
				return
			}
			if len(samples) == 0 {
				t.Fatal("no samples recorded")
			}
			seen := map[string]bool{}
			lastAt := time.Duration(-1)
			lastCycle := map[string]int64{}
			var uf int
			var fills uint64
			for _, s := range samples {
				seen[s.Source] = true
				if s.At < lastAt {
					t.Fatalf("timestamps not monotone: %v after %v", s.At, lastAt)
				}
				lastAt = s.At
				if prev, ok := lastCycle[s.Source]; ok && s.Cycle != prev+1 {
					t.Fatalf("%s cycles not consecutive: %d after %d", s.Source, s.Cycle, prev)
				}
				lastCycle[s.Source] = s.Cycle
				if s.DRAMInUse > s.DRAMHighWater {
					t.Fatalf("in-use %v above high water %v", s.DRAMInUse, s.DRAMHighWater)
				}
				if s.DRAMHighWater > res.DRAMHighWater {
					t.Fatalf("sample high water %v above final %v", s.DRAMHighWater, res.DRAMHighWater)
				}
				for _, d := range s.Devices {
					if d.Queue < -1 || d.BusyDelta < 0 {
						t.Fatalf("bad device sample %+v", d)
					}
				}
				uf += s.UnderflowsDelta
				fills += s.CacheFillsDelta
			}
			for _, src := range want {
				if !seen[src] {
					t.Errorf("source %q missing from trace", src)
				}
			}
			// Deltas never exceed the run totals (the final drain happens
			// after the last sample, so strict equality isn't guaranteed).
			if uf > res.Underflows {
				t.Errorf("summed underflow deltas %d exceed total %d", uf, res.Underflows)
			}
			if res.FromCache > 0 && fills == 0 {
				t.Error("cache mode recorded no cache-fill deltas")
			}
		})
	}
}

// runFunc is scheduleFunc's static callback: the argument is the closure.
func runFunc(arg any) { arg.(func())() }

// scheduleFunc runs fn after delay d, through the engine's one scheduling
// path. (The sim tests call their copy schedule; here that name is the
// imported package.)
func scheduleFunc(eng *sim.Engine, d time.Duration, fn func()) sim.Event {
	return eng.ScheduleArg(d, runFunc, fn)
}

// --- self-chaining cycle loops ---

// cycleLoopUpFront is cycleLoop as it was before the loops chained
// themselves: every cycle of the loop on the calendar at set-up, one
// cycle state each. It is the oracle for the chained loop — the same
// (time, sequence) key for every cycle, held the expensive way.
func cycleLoopUpFront(r *rig, source string, period time.Duration, first, n int64, fn func(c int64)) {
	if n <= 0 {
		return
	}
	calls := make([]upFrontCall, n)
	for c := first; c < first+n; c++ {
		cc := &calls[c-first]
		*cc = upFrontCall{r: r, source: source, fn: fn, c: c}
		r.eng.ScheduleArg(time.Duration(c)*period, runUpFrontCall, cc)
	}
}

type upFrontCall struct {
	r      *rig
	source string
	fn     func(c int64)
	c      int64
}

func runUpFrontCall(arg any) {
	cc := arg.(*upFrontCall)
	cc.fn(cc.c)
	if cc.r.probe != nil {
		cc.r.probe.sample(cc.source, cc.c)
	}
}

// rigFiring is one thing the loop test saw happen: a loop's cycle, or
// (loop < 0) a chain item or plain event the stages queued.
type rigFiring struct {
	at    time.Duration
	loop  int
	cycle int64
}

// TestCycleLoopMatchesUpFrontSchedule runs random sets of loops on a rig —
// periods with common multiples so their cycles coincide, first cycle 0
// or 1, zero to many cycles, stages that queue chain work and plain
// events at the firing time — once through cycleLoop and once through
// the up-front schedule it replaced, and requires the same firings at
// the same times in the same order, the same Executed(), and the same
// probe samples.
func TestCycleLoopMatchesUpFrontSchedule(t *testing.T) {
	periods := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 60 * time.Millisecond}
	type spec struct {
		period   time.Duration
		first, n int64
	}
	for seed := uint64(1); seed <= 25; seed++ {
		pick := sim.NewRNG(seed)
		specs := make([]spec, 1+pick.Intn(5))
		for i := range specs {
			specs[i] = spec{
				period: periods[pick.Intn(len(periods))],
				first:  int64(pick.Intn(2)),
				n:      []int64{0, 1, 3, 40, 90}[pick.Intn(5)],
			}
		}
		run := func(chained bool) ([]rigFiring, uint64, *Trace) {
			cfg := baseConfig(Direct, 4, units.MBPS)
			cfg.Trace = true
			r, err := newRig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(seed * 104729)
			var trace []rigFiring
			chains := []*chain{r.newChain(), r.newChain()}
			work := func(it *chainItem, start time.Duration) time.Duration {
				trace = append(trace, rigFiring{start, -1, int64(it.stream)})
				return start + time.Duration(it.req.Blocks)*time.Millisecond
			}
			var end time.Duration
			for i, s := range specs {
				loop := i
				stage := func(c int64) {
					trace = append(trace, rigFiring{r.eng.Now(), loop, c})
					switch rng.Intn(4) {
					case 0: // an idle cycle
					case 1: // a counted batch: completions land on later cycle boundaries
						chains[rng.Intn(2)].submit(chainItem{fn: work, stream: int32(c),
							req: device.Request{Blocks: int64(rng.Intn(3)) * 5}, repeat: int32(1 + rng.Intn(4))})
					case 2: // zero-length work: the chain re-fires at this very instant
						chains[rng.Intn(2)].submit(chainItem{fn: work, stream: int32(c)})
					default: // a plain event tied with whatever else is due now
						scheduleFunc(r.eng, 0, func() { trace = append(trace, rigFiring{r.eng.Now(), -2, c}) })
					}
				}
				if chained {
					r.cycleLoop("loop", s.period, s.first, s.n, stage)
				} else {
					cycleLoopUpFront(r, "loop", s.period, s.first, s.n, stage)
				}
				end = max(end, time.Duration(s.first+s.n)*s.period)
			}
			r.finish(end + time.Second)
			return trace, r.eng.Executed(), r.probe.trace
		}
		want, wantExec, wantSamples := run(false)
		got, gotExec, gotSamples := run(true)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d %+v: firing %d: chained %+v, up front %+v", seed, specs, i, got[i], want[i])
			}
		}
		if len(got) != len(want) || gotExec != wantExec {
			t.Fatalf("seed %d: chained fired %d (executed %d), up front %d (executed %d)",
				seed, len(got), gotExec, len(want), wantExec)
		}
		if !reflect.DeepEqual(gotSamples, wantSamples) {
			t.Errorf("seed %d: probe samples differ", seed)
		}
	}
}

// TestCalendarStaysShallow: with the loops chained and the service
// chains sharing one entry, the calendar of every cycle mode holds at most
// one entry per loop, one for all the chains and the final drain — not
// one per future cycle or per busy chain — at every cycle and every
// transfer; an EDF run holds at most two. The high-water per mode is
// logged (go test -v).
func TestCalendarStaysShallow(t *testing.T) {
	replicated := baseConfig(Cached, 200, 100*units.KBPS)
	replicated.CachePolicy = model.Replicated
	replicated.Titles = 400
	cases := []struct {
		name string
		cfg  Config
	}{{"cached-replicated", replicated}}
	for _, tc := range rigConfigs() {
		if !tc.cfg.UseEDF {
			cases = append(cases, tc)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := newCycleRun(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			peak, samples, cycles := 0, 0, int64(0)
			note := func() {
				peak = max(peak, m.r.eng.Pending())
				samples++
			}
			for k := range m.stages {
				s := &m.stages[k]
				fn := s.fn
				s.fn = func(c int64) {
					note()
					fn(c)
					note()
				}
				cycles += s.n
			}
			transfer := func(fn *func(it *chainItem, start time.Duration) time.Duration) {
				inner := *fn
				*fn = func(it *chainItem, start time.Duration) time.Duration {
					note()
					return inner(it, start)
				}
			}
			if m.disk != nil {
				transfer(&m.disk.dispatchFn)
			}
			if m.cache != nil {
				transfer(&m.cache.readFn)
			}
			if m.pipe != nil {
				transfer(&m.pipe.drainFn)
			}
			res := m.run()
			loops := len(m.stages)
			if bound := loops + 2; peak > bound {
				t.Errorf("calendar peaked at %d entries over %d cycles; want ≤ %d (%d loops + the chain set + the final drain)",
					peak, cycles, bound, loops)
			}
			if peak < loops || samples < 3*int(cycles) || res.Underflows != 0 {
				t.Fatalf("run too tame to mean anything: peak %d, %d cycles, %d samples, %d underflows",
					peak, cycles, samples, res.Underflows)
			}
			t.Logf("Pending() high-water %d with %d loops, over %d cycles and %d samples", peak, loops, cycles, samples)
		})
	}
	// EDF has no loops and no chains: its calendar holds the one disk IO
	// in flight and the stop. The run is stepped to its stop event, so
	// Pending() is sampled after every completion callback (each pops one
	// entry and schedules at most one).
	t.Run("edf", func(t *testing.T) {
		cfg := baseConfig(Direct, 50, units.MBPS)
		cfg.UseEDF = true
		s, err := newEDFRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := s.r.eng
		peak, samples := eng.Pending(), 0
		for eng.Now() < s.end && eng.Step() {
			peak = max(peak, eng.Pending())
			samples++
		}
		if peak > 2 {
			t.Errorf("calendar peaked at %d entries; want ≤ 2 (the IO in flight + the stop)", peak)
		}
		if peak < 2 || samples < 3*cfg.N || s.r.dsk.Served() == 0 {
			t.Fatalf("run too tame to mean anything: peak %d, %d samples, %d IOs", peak, samples, s.r.dsk.Served())
		}
		t.Logf("Pending() high-water %d over %d completions", peak, samples)
	})
}

// --- service chains sharing one calendar entry ---

// arenaChains hands out n chains of a fresh arena's chain set, and the
// engine they run on.
func arenaChains(n int) (*sim.Engine, []*chain) {
	a := NewArena()
	a.reset(0, 1)
	cs := make([]*chain, n)
	for i := range cs {
		cs[i] = a.chains.get()
	}
	return &a.eng, cs
}

// queuer is what the chain program needs from a chain.
type queuer interface {
	submit(it chainItem)
	submitLow(it chainItem)
}

// refChain is the chain as it was before the chain set: every completion
// is a ScheduleArg event of its own. It is the oracle for chain and
// chainSet, which must fire every completion under the same key.
type refChain struct {
	eng    *sim.Engine
	busy   bool
	last   time.Duration
	cur    chainItem
	q, low ring.Ring[chainItem]
}

func (c *refChain) submit(it chainItem) {
	c.q.PushBack(it)
	if !c.busy {
		c.busy = true
		c.runNext()
	}
}

func (c *refChain) submitLow(it chainItem) {
	c.low.PushBack(it)
	if !c.busy {
		c.busy = true
		c.runNext()
	}
}

func refChainRunNext(arg any) { arg.(*refChain).runNext() }

func (c *refChain) runNext() {
	switch {
	case c.cur.repeat > 1:
		c.cur.repeat--
	case c.q.Len() > 0:
		c.cur = c.q.PopFront()
	case c.low.Len() > 0:
		c.cur = c.low.PopFront()
	default:
		c.busy = false
		return
	}
	start := max(c.eng.Now(), c.last)
	finish := max(c.cur.fn(&c.cur, start), start)
	c.last = finish
	c.eng.ScheduleArg(finish-c.eng.Now(), refChainRunNext, c)
}

// chainRun is one run of a chain item as the chain program saw it: the
// clock, the run's start, its chain, and the item's id and run number.
type chainRun struct {
	now, start time.Duration
	chain      int32
	item, run  int32
}

// chainProgram drives random multi-chain work from cycle loops and from
// the items' own handlers. Its randomness is drawn inside callbacks, so a
// run through the chain set and one through refChains stay in step only
// while they fire the same completions at the same times in the same
// order.
type chainProgram struct {
	r      *rig
	rng    *sim.RNG
	chains []queuer
	trace  []chainRun
	items  int32
	budget int
	work   func(it *chainItem, start time.Duration) time.Duration
}

// item is a fresh item for chain ch: counted when repeat > 1.
func (p *chainProgram) item(ch int, repeat int32) chainItem {
	p.items++
	return chainItem{fn: p.work, dev: int32(ch), stream: p.items, repeat: repeat}
}

// queue submits a random item — real-time, counted or best-effort — to a
// random chain.
func (p *chainProgram) queue() {
	ch := p.rng.Intn(len(p.chains))
	switch p.rng.Intn(3) {
	case 0:
		p.chains[ch].submit(p.item(ch, 0))
	case 1:
		p.chains[ch].submit(p.item(ch, int32(2+p.rng.Intn(4))))
	default:
		p.chains[ch].submitLow(p.item(ch, 0))
	}
}

func (p *chainProgram) run(it *chainItem, start time.Duration) time.Duration {
	it.parity++ // the run number: a counted item keeps it across runs
	p.trace = append(p.trace, chainRun{p.r.eng.Now(), start, it.dev, it.stream, it.parity})
	if len(p.trace) < p.budget {
		switch p.rng.Intn(8) {
		case 0, 1: // a handler feeding another chain, as a disk dispatch stages a bank write
			p.queue()
		case 2: // a plain event tied with whatever else is due then
			scheduleFunc(p.r.eng, time.Duration(p.rng.Intn(2))*time.Millisecond, func() {
				p.trace = append(p.trace, chainRun{p.r.eng.Now(), -1, -1, 0, 0})
			})
		}
	}
	// Whole milliseconds: completions land on cycle boundaries and on
	// one another. Zero-length runs re-fire at the very same instant.
	return start + time.Duration(p.rng.Intn(4))*time.Millisecond
}

// TestChainSetMatchesOneEventPerCompletion runs random multi-chain
// programs — counted items, best-effort items, handlers that submit to
// other chains, cycle loops whose timestamps coincide with completions,
// RunUntil steps and a final Run — once through the arena's chain set and
// once through refChains, and requires the same runs at the same times in
// the same order, the same Executed() and the same clock.
func TestChainSetMatchesOneEventPerCompletion(t *testing.T) {
	periods := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for seed := uint64(1); seed <= 20; seed++ {
		run := func(set bool) ([]chainRun, uint64, time.Duration) {
			r, err := newRig(baseConfig(Direct, 4, units.MBPS))
			if err != nil {
				t.Fatal(err)
			}
			p := &chainProgram{r: r, rng: sim.NewRNG(seed * 7919), budget: 4000}
			p.work = p.run
			n := 1 + int(seed%5) // up to the K + 2 chains of a hybrid run and beyond
			for i := 0; i < n; i++ {
				if set {
					p.chains = append(p.chains, r.newChain())
				} else {
					p.chains = append(p.chains, &refChain{eng: r.eng})
				}
			}
			pick := sim.NewRNG(seed)
			var end time.Duration
			for loop, loops := 0, 1+pick.Intn(3); loop < loops; loop++ {
				period, cycles := periods[pick.Intn(len(periods))], int64(60+pick.Intn(100))
				r.cycleLoop("loop", period, int64(pick.Intn(2)), cycles, func(c int64) {
					p.trace = append(p.trace, chainRun{r.eng.Now(), -1, -2, int32(loop), int32(c)})
					for k := 1 + p.rng.Intn(4); k > 0; k-- {
						p.queue()
					}
				})
				end = max(end, time.Duration(cycles+1)*period)
			}
			for at := time.Duration(0); at < end; at += time.Duration(1+pick.Intn(15)) * time.Millisecond {
				r.eng.RunUntil(at)
			}
			r.finish(end)
			return p.trace, r.eng.Executed(), r.eng.Now()
		}
		want, wantExec, wantNow := run(false)
		got, gotExec, gotNow := run(true)
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d: run %d:\n chain set %+v\n one event each %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) || gotExec != wantExec || gotNow != wantNow {
			t.Fatalf("seed %d: chain set fired %d (executed %d, now %v), one event each %d (executed %d, now %v)",
				seed, len(got), gotExec, gotNow, len(want), wantExec, wantNow)
		}
		if len(want) < 500 {
			t.Fatalf("seed %d: program too tame: %d runs", seed, len(want))
		}
	}
}

// --- arena-remembered catalogs ---

// TestArenaRemembersLastCatalog: an arena hands back the catalog it built
// last while the key repeats, and the right catalog — never a stale one —
// when the key changes in any field.
func TestArenaRemembersLastCatalog(t *testing.T) {
	a := NewArena()
	keyA := catalogKeyFor(baseConfig(Direct, 10, units.MBPS), 4096)
	keyB := keyA
	keyB.titles = 80
	check := func(k catalogKey) *workload.Catalog {
		t.Helper()
		got, err := a.catalog(k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newCatalog(k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Titles, want.Titles) {
			t.Fatalf("key %+v: arena returned a catalog a fresh build does not match", k)
		}
		return got
	}
	first := check(keyA)
	if check(keyA) != first {
		t.Error("a repeated key rebuilt the catalog")
	}
	b := check(keyB)
	if b == first || len(b.Titles) != 80 {
		t.Error("a new key got the old catalog")
	}
	if check(keyB) != b {
		t.Error("a repeated key rebuilt the catalog")
	}
	if again := check(keyA); len(again.Titles) != keyA.titles {
		t.Error("alternating back returned the wrong catalog")
	}
	// Every field of the key matters.
	for name, k := range map[string]catalogKey{
		"x":         {keyA.titles, 20, keyA.y, keyA.class, keyA.blockSize},
		"y":         {keyA.titles, keyA.x, 80, keyA.class, keyA.blockSize},
		"class":     {keyA.titles, keyA.x, keyA.y, mediaClass(100 * units.KBPS), keyA.blockSize},
		"blockSize": {keyA.titles, keyA.x, keyA.y, keyA.class, 512},
	} {
		before, _ := a.catalog(keyA)
		if got := check(k); got == before {
			t.Errorf("changing %s alone reused the remembered catalog", name)
		}
	}
	if _, err := a.catalog(catalogKey{titles: 10, x: 0, y: 150, class: keyA.class, blockSize: 4096}); err == nil {
		t.Error("an invalid distribution built a catalog")
	}
	if got := check(keyA); len(got.Titles) != keyA.titles {
		t.Error("a failed build disturbed the arena")
	}
}

// TestSharedArenaSweepMatchesPrivateArenas is the experiment drivers'
// argument for threading one arena through a sweep: five points that
// repeat and change catalog keys, modes and sizes produce Results equal
// field for field with a shared arena and with none.
func TestSharedArenaSweepMatchesPrivateArenas(t *testing.T) {
	hybrid := baseConfig(Hybrid, 120, 100*units.KBPS)
	hybrid.K, hybrid.CacheDevices, hybrid.Titles = 4, 2, 400
	cached := baseConfig(Cached, 150, 100*units.KBPS)
	cached.Titles = 400
	skewed := cached
	skewed.X, skewed.Y = 50, 50
	traced := baseConfig(Direct, 40, units.MBPS)
	traced.Trace = true
	sweep := []Config{hybrid, cached, skewed, traced, baseConfig(Buffered, 60, units.MBPS)}

	arena := NewArena()
	for round := 0; round < 2; round++ { // the second round starts from a warm arena
		for i, cfg := range sweep {
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Arena = arena
			got, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round %d point %d (%v): shared arena changed the Result:\n got %+v\nwant %+v",
					round, i, cfg.Mode, got, want)
			}
		}
	}
}
