package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// options are the settings of one run of one workload.
type options struct {
	Workload string
	Seed     uint64
	Seconds  float64 // how long the measured passes run
	Trace    bool
	OutDir   string // results and traces; "" writes none

	// Div shrinks every workload's size by this divisor; 1 is the size
	// BENCHMARK.json describes. The package's tests run at 50.
	Div       int
	MinPasses int           // measured passes, at least; 7 at full size
	Setups    int           // set-up repetitions behind setup_s; 3 at full size
	ProbeMin  time.Duration // least duration of one timed probe call
}

// workloadDef is one named set of inputs.
type workloadDef struct {
	Name string
	Why  string
	run  func(o options, r *result)
}

var workloads = []workloadDef{
	{"sim-direct", "64 partitions x 4096 direct disk-to-DRAM streams: disk model, C-LOOK, rig cycle walk and event kernel do all the work, the middle tier none.", runSimDirect},
	{"sim-buffered", "Theorem 2 pipeline, 2 x 1500 streams through 4 mems-g3 devices: sled service model and bank staging dominate, the disk issues 1.5% of the IOs.", runSimBuffered},
	{"sim-buffered-rw", "sim-buffered plus N/4 recorders and best-effort reads: same layers used for writes and spare bandwidth beside real-time reads.", runSimBufferedRW},
	{"paper-suite", "All 30 paper artefacts once: short DES runs where set-up is a large share, closed-form sweeps and renderers; fingerprints checked against the repo's pins.", runPaperSuite},
	{"serve-steady", "4000 standing paced streams arriving as one burst on the default pacing plane: serve, wheel, Pacer, metrics and admission do everything, the simulator nothing.", runServeSteady},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef declares one metric name and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics BENCHMARK.json bounds. Each is defined on
// every workload (README.md says how), because the driver expects every
// declared metric from every run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of the traced run. A layer a workload does
// not exercise reports 0 there.
var perLayer = []metricDef{
	// Workload-level numbers the issue names that are defined on some
	// workloads only, so they cannot carry a bound in BENCHMARK.json.
	{"stream_s_per_s", "1/s"},
	{"margin_p5_s", "sim_s"},
	{"cpu_ms_per_stream_s", "ms"},
	{"admit_per_s", "1/s"},
	{"fail_share", "ratio"},

	{"sim.event_ns", "ns"},
	{"sim.cancel_ns", "ns"},
	{"sim.reservoir_observe_ns", "ns"},
	{"sim.events_per_pass", "count"},
	{"sim.events_per_s", "1/s"},
	{"ring.pushpop_ns", "ns"},
	{"disk.service_ns", "ns"},
	{"disk.clook_ns", "ns"},
	{"disk.ios_per_pass", "count"},
	{"mems.service_ns", "ns"},
	{"tier.flat_service_ns", "ns"},
	{"tier.sched_ns", "ns"},
	{"tier.ios_per_pass", "count"},
	{"bank.stage_ns", "ns"},
	{"bank.striped_read_ns", "ns"},
	{"bank.replicated_read_ns", "ns"},
	{"cache.plan_us", "us"},
	{"model.direct_plan_ns", "ns"},
	{"model.buffer_plan_us", "us"},
	{"model.cache_plan_us", "us"},
	{"schedule.timecycle_build_us", "us"},
	{"schedule.admit_ns", "ns"},
	{"workload.catalog_us", "us"},
	{"workload.draw_ns", "ns"},
	{"server.run_ns_per_event", "ns"},
	{"server.setup_us_per_stream", "us"},
	{"server.alloc_bytes_per_pass", "bytes"},
	{"server.dram_hw_over_plan", "ratio"},
	{"server.disk_util", "ratio"},
	{"server.mems_util", "ratio"},
	{"shard.overhead_share", "ratio"},
	{"shard.speedup_nproc", "ratio"},
	{"shard.merge_render_us", "us"},
	{"experiments.wall_ms.hybrid", "ms"},
	{"experiments.wall_ms.dynamics", "ms"},
	{"experiments.wall_ms.validate", "ms"},
	{"experiments.wall_ms.tiercompare", "ms"},
	{"experiments.wall_ms.fig9-zipf", "ms"},
	{"experiments.analytic_wall_ms", "ms"},
	{"plot.table_render_us", "us"},
	{"units.pacer_next_ns", "ns"},
	{"wheel.arm_advance_ns", "ns"},
	{"metrics.observe_ns", "ns"},
	{"metrics.counter_add_ns", "ns"},
	{"metrics.snapshot_us", "us"},
	{"serve.admit_us_p50", "us"},
	{"serve.admit_us_p99", "us"},
	{"serve.lag_ms_p50", "ms"},
	{"serve.lag_ms_p99", "ms"},
	{"serve.late_chunk_share", "ratio"},
	{"serve.cpu_ms_per_stream_s.goroutine", "ms"},
	{"serve.cpu_ms_per_stream_s.wheel", "ms"},
	{"serve.chunks_per_s", "1/s"},
	{"serve.drain_ms", "ms"},
	{"serve.http_metrics_ms", "ms"},
	{"serve.heap_kb_per_stream", "kB"},
	{"serve.goroutines_per_stream", "ratio"},
	{"budget.sim", "ratio"},
	{"budget.disk", "ratio"},
	{"budget.mems", "ratio"},
	{"budget.tier_sched", "ratio"},
	{"budget.bank", "ratio"},
	{"budget.workload", "ratio"},
	{"budget.residual", "ratio"},
	{"trace_overhead_pct", "%"},
}

// repeatExactly are the metrics a fixed seed determines: counts and
// simulated statistics. Two runs of one commit must agree on them exactly,
// and so may two commits when a change claims to alter speed alone.
var repeatExactly = []string{
	"margin_p5_s", "sim.events_per_pass", "disk.ios_per_pass", "tier.ios_per_pass",
	"server.dram_hw_over_plan", "server.disk_util", "server.mems_util",
}

// timedExperiments are the artefacts whose own wall is a per-layer metric.
var timedExperiments = []string{"hybrid", "dynamics", "validate", "tiercompare", "fig9-zipf"}

// result is one run's results file (bench/out/<workload>.json, or
// <workload>.traced.json for a traced run).
type result struct {
	Schema   string  `json:"schema"`
	Workload string  `json:"workload"`
	Why      string  `json:"why"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Machine  machine `json:"machine"`

	Correct   bool    `json:"correct"`
	Attempted int64   `json:"ops_attempted"`
	Failed    int64   `json:"ops_failed"`
	FailShare float64 `json:"fail_share"`
	Checks    checks  `json:"checks"`
	Digest    string  `json:"output_digest"` // of the run's deterministic output

	// Metrics holds every number the run measured, by name: the end-to-end
	// ones, and in a traced run the per-layer ones.
	Metrics map[string]sample `json:"metrics"`

	tracer *tracer
	root   int // the tracer's workload span
}

func (r *result) set(name string, s sample) { r.Metrics[name] = s }

// unitOf finds the declared unit of a metric name.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not declared")
}

func (r *result) median(name string, xs []float64) { r.set(name, summarize(unitOf(name), xs)) }
func (r *result) steady(name string, xs []float64) { r.set(name, steady(unitOf(name), xs)) }
func (r *result) exact(name string, v float64)     { r.set(name, exact(unitOf(name), v)) }

// probes copies probe timings into the result.
func (r *result) probes(p probes) {
	for name, v := range p {
		r.exact(name, v)
	}
}

// runWorkload runs one workload and fills in what every workload shares.
func runWorkload(w workloadDef, o options, m machine) *result {
	r := &result{
		Schema: "bench/v3", Workload: w.Name, Why: w.Why, Seed: o.Seed, Seconds: o.Seconds,
		Trace: o.Trace, Machine: m, Metrics: map[string]sample{}, root: -1,
	}
	if o.Trace {
		r.tracer = newTracer()
		r.root = r.tracer.begin("workload:"+w.Name, -1, 0)
	}
	w.run(o, r)
	r.tracer.end(r.root)
	if !o.Trace {
		r.exact("peak_rss_mb", peakRSSMB())
	}
	r.Correct = r.Checks.allOK()
	if r.Attempted > 0 {
		r.FailShare = float64(r.Failed) / float64(r.Attempted)
	}
	if o.Trace {
		r.exact("fail_share", r.FailShare)
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.Name]; !ok {
				r.exact(d.Name, 0) // the workload does not exercise this layer
			}
		}
	}
	return r
}

// setupTime reports setup_s: the process's age when the first set-up began
// plus the median of the repeated set-ups.
func (r *result) setupTime(begun time.Time, setups []float64) {
	base := begun.Sub(processStart).Seconds()
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = base + s
	}
	r.steady("setup_s", xs)
}

// passClock decides when the measured passes are over: after the run's
// seconds, and not before the least pass count.
type passClock struct {
	start  time.Time
	budget time.Duration
	least  int
	done   int
}

func newPassClock(seconds float64, least int) *passClock {
	return &passClock{start: time.Now(), budget: time.Duration(seconds * float64(time.Second)), least: least}
}

func (c *passClock) more() bool {
	return c.done < c.least || time.Since(c.start) < c.budget
}

// measuredPass runs pass n of a simulation workload after a forced
// collection and returns its CPU time. In a traced run every second pass is
// traced: run then gets the tracer and the pass's span, otherwise nil and -1.
func (r *result) measuredPass(o options, n int, run func(tr *tracer, span int)) (traced bool, cpu time.Duration) {
	traced = o.Trace && n%2 == 1
	var tr *tracer
	span := -1
	if traced {
		tr = r.tracer
		span = tr.begin("pass", r.root, n)
	}
	runtime.GC()
	cpu0 := cpuTime()
	run(tr, span)
	cpu = cpuTime() - cpu0
	tr.end(span)
	return traced, cpu
}

func digestOf(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// --- sim-* ---

func simDirectSpec(div int) simSpec {
	return simSpec{Partitions: max(24/div, 2), PerPart: 4096, Rate: slowRate, Titles: 64, X: 10, Y: 90}
}

func simBufferedSpec(div int, rw bool) simSpec {
	s := simSpec{
		Buffered: true, Partitions: 2, PerPart: max(1500/div, 24), Rate: fastRate,
		Titles: 400, X: 5, Y: 95, K: 4, Duration: 3 * time.Minute,
	}
	if rw {
		s.Writers = s.PerPart / 4
		s.BestEffort = true
	}
	return s
}

func runSimDirect(o options, r *result)     { runSim(o, r, simDirectSpec(o.Div)) }
func runSimBuffered(o options, r *result)   { runSim(o, r, simBufferedSpec(o.Div, false)) }
func runSimBufferedRW(o options, r *result) { runSim(o, r, simBufferedSpec(o.Div, true)) }

// runSim measures one sim-* workload: repeated set-ups, then measured
// passes on one shard goroutine, then one untimed pass on nproc shards
// whose output must match. A traced run alternates untraced and traced
// passes and then runs the layer probes.
func runSim(o options, r *result, spec simSpec) {
	tr := r.tracer
	begun := time.Now()
	var setups []float64
	var ref simPass
	for i := 0; i < o.Setups; i++ {
		start := time.Now()
		p := spec.run(o.Seed, 1, nil, -1, -1-i) // also the discarded warm-up pass
		setups = append(setups, time.Since(start).Seconds())
		if !r.Checks.add("setup pass", p.Err == nil, "%v", p.Err) {
			return
		}
		if i == 0 {
			ref = p
		}
	}
	r.Digest = digestOf(ref.Render)

	var walls, cpus, tracedWalls, overheads, mergeRender []float64
	sameRender, countsOK := true, true
	for clock := newPassClock(o.Seconds, o.MinPasses); clock.more(); clock.done++ {
		var p simPass
		traced, cpu := r.measuredPass(o, clock.done, func(tr *tracer, span int) {
			p = spec.run(o.Seed, 1, tr, span, clock.done)
		})

		good := p.Err == nil && p.Render == ref.Render
		sameRender = sameRender && good
		// Every staged disk read is written to the bank once and read
		// back at least once; the direct mode never touches the bank.
		memsOK := p.MEMSIOs == 0
		if spec.Buffered {
			memsOK = p.MEMSIOs >= 2*p.ReaderDiskIOs
		}
		counts := p.Streams == spec.Partitions*spec.PerPart && p.DiskIOs == p.WantDiskIOs && p.Underflows == 0 && memsOK
		countsOK = countsOK && counts
		r.Attempted += int64(p.Streams)
		if good && counts {
			r.Failed += int64(p.FailedStreams)
		} else {
			r.Failed += int64(p.Streams)
		}
		if traced {
			tracedWalls = append(tracedWalls, p.Wall.Seconds())
			continue
		}
		walls = append(walls, p.Wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		overheads = append(overheads, float64(p.RunWall-p.PartWall)/float64(p.RunWall))
		mergeRender = append(mergeRender, float64((p.Wall-p.RunWall).Nanoseconds())/1e3+p.RenderUS)
	}
	r.Checks.add("every pass renders identically", sameRender, "a pass of seed %d rendered differently from the first, or failed", o.Seed)
	r.Checks.add("streams, disk IOs, MEMS IOs as configured, no underflow", countsOK,
		"last reference pass: streams=%d disk_ios=%d want=%d mems_ios=%d underflows=%d",
		ref.Streams, ref.DiskIOs, ref.WantDiskIOs, ref.MEMSIOs, ref.Underflows)

	wide := spec.run(o.Seed, runtime.NumCPU(), nil, -1, -100)
	r.Checks.add("shards=1 and shards=nproc render identically", wide.Err == nil && wide.Render == ref.Render,
		"shards=%d rendered differently (err=%v)", runtime.NumCPU(), wide.Err)

	r.setupTime(begun, setups)
	r.steady("wall_s", walls)
	r.steady("cpu_s", cpus)
	wall := lowerQuartile(walls)
	// Printed with the end-to-end numbers; declared per-layer because
	// they exist on the sim-* workloads only.
	r.exact("stream_s_per_s", ref.StreamSeconds/wall)
	r.exact("margin_p5_s", ref.MarginP5.Seconds())
	r.exact("cpu_ms_per_stream_s", lowerQuartile(cpus)*1e3/ref.StreamSeconds)
	// Counts and simulated ratios: exact at a fixed seed, so the results
	// file of an untraced run carries them too and -aa compares them.
	r.exact("sim.events_per_pass", float64(ref.Events))
	r.exact("disk.ios_per_pass", float64(ref.DiskIOs))
	r.exact("tier.ios_per_pass", float64(ref.MEMSIOs))
	r.exact("server.dram_hw_over_plan", ref.DRAMOverPlan)
	r.exact("server.disk_util", ref.DiskUtil)
	r.exact("server.mems_util", ref.MEMSUtil)
	if !o.Trace {
		return
	}
	r.exact("sim.events_per_s", float64(ref.Events)/wall)
	r.median("shard.overhead_share", overheads)
	r.steady("shard.merge_render_us", mergeRender)
	r.exact("shard.speedup_nproc", wall/wide.Wall.Seconds())
	if len(tracedWalls) > 0 {
		r.exact("trace_overhead_pct", (lowerQuartile(tracedWalls)-wall)/wall*100)
	}

	probeSpan := tr.begin("probes", r.root, 0)
	defer tr.end(probeSpan)
	p := probes{}
	if err := simProbes(p, spec, o.Seed, o.ProbeMin); !r.Checks.add("layer probes", err == nil, "%v", err) {
		return
	}
	r.probes(p)
	slope, setupUS, alloc, err := spec.serverLine(o.Seed, time.Duration(o.Seconds*float64(time.Second))/8)
	if r.Checks.add("server.Run at D/8 and D", err == nil, "%v", err) {
		r.exact("server.run_ns_per_event", slope)
		r.exact("server.setup_us_per_stream", setupUS)
		r.exact("server.alloc_bytes_per_pass", alloc*float64(spec.Partitions))
	}

	// The budget: probe cost × the count the pass reported ÷ the pass's
	// wall. What the probes cannot reach from outside — the rig's cycle
	// walk, the consumption tables, the chains — is the residual.
	ns := wall * 1e9
	b := map[string]float64{
		"budget.sim":        p["sim.event_ns"] * float64(ref.Events) / ns,
		"budget.disk":       p["disk.clook_ns"] * float64(ref.DiskIOs) / ns,
		"budget.mems":       p["mems.service_ns"] * float64(ref.MEMSIOs) / ns,
		"budget.tier_sched": 0, // no server mode queues the tier through tier.NewScheduler
		"budget.bank":       p["bank.stage_ns"] * float64(ref.MEMSIOs-ref.BestEffortIOs) / ns,
		"budget.workload":   (p["workload.catalog_us"]*1e3*float64(spec.Partitions) + p["workload.draw_ns"]*float64(ref.Streams)) / ns,
	}
	residual := 1.0
	for name, share := range b {
		r.exact(name, share)
		residual -= share
	}
	r.exact("budget.residual", residual)
}

// --- paper-suite ---

func runPaperSuite(o options, r *result) {
	ids := suiteIDs()
	if o.Div > 1 {
		// The suite has no size to shrink; the tests run its analytic
		// artefacts and one short DES run.
		ids = []string{"ablation-edf", "fig2", "fig6", "table1", "tiercompare"}
	}
	tr := r.tracer
	begun := time.Now()
	var setups []float64
	var want map[string]string // fingerprint by artefact id
	pinned := pinnedSeeds[o.Seed] && o.Div == 1
	for i := 0; i < o.Setups; i++ {
		start := time.Now()
		err := pinSuiteTier()
		var pins map[string]string
		if err == nil && pinned {
			pins, err = loadPinned()
		}
		var p suitePass
		if err == nil {
			p, err = runSuite(ids, o.Seed, nil, -1, -1-i)
		}
		setups = append(setups, time.Since(start).Seconds())
		if !r.Checks.add("setup pass", err == nil, "%v", err) {
			return
		}
		if i > 0 {
			continue
		}
		want = map[string]string{}
		for _, run := range p.Runs {
			want[run.ID] = run.Fingerprint
			if pinned {
				want[run.ID] = pins[fmt.Sprintf("%s@%d", run.ID, o.Seed)]
			}
		}
	}

	var walls, cpus, tracedWalls, analytic []float64
	perID := map[string][]float64{}
	var events uint64
	mismatched := ""
	digest := sha256.New()
	for clock := newPassClock(o.Seconds, o.MinPasses); clock.more(); clock.done++ {
		var p suitePass
		var err error
		traced, cpu := r.measuredPass(o, clock.done, func(tr *tracer, span int) {
			p, err = runSuite(ids, o.Seed, tr, span, clock.done)
		})
		if !r.Checks.add("suite pass", err == nil, "%v", err) {
			return
		}
		r.Attempted += int64(len(p.Runs))
		var noEvents time.Duration
		events = 0
		for _, run := range p.Runs {
			if run.Err != "" || run.Fingerprint != want[run.ID] {
				r.Failed++
				mismatched = run.ID
			}
			if clock.done == 0 {
				fmt.Fprintf(digest, "%s %s\n", run.ID, run.Fingerprint)
			}
			events += run.Events
			if run.Events == 0 {
				noEvents += run.Wall
			}
			if !traced {
				perID[run.ID] = append(perID[run.ID], float64(run.Wall.Nanoseconds())/1e6)
			}
		}
		if traced {
			tracedWalls = append(tracedWalls, p.Wall.Seconds())
			continue
		}
		walls = append(walls, p.Wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		analytic = append(analytic, float64(noEvents.Nanoseconds())/1e6)
	}
	r.Digest = fmt.Sprintf("%x", digest.Sum(nil))
	source := "the first pass"
	if pinned {
		source = pinnedPath
	}
	r.Checks.add("every artefact's fingerprint matches "+source, mismatched == "", "%s differs or failed", mismatched)

	r.setupTime(begun, setups)
	r.steady("wall_s", walls)
	r.steady("cpu_s", cpus)
	r.exact("sim.events_per_pass", float64(events))
	if !o.Trace {
		return
	}
	wall := lowerQuartile(walls)
	r.exact("sim.events_per_s", float64(events)/wall)
	for _, id := range timedExperiments {
		if xs := perID[id]; len(xs) > 0 {
			r.steady("experiments.wall_ms."+id, xs)
		}
	}
	r.steady("experiments.analytic_wall_ms", analytic)
	if len(tracedWalls) > 0 {
		r.exact("trace_overhead_pct", (lowerQuartile(tracedWalls)-wall)/wall*100)
	}

	// The suite's DES artefacts run near the paper's buffered operating
	// point, so the device layers are probed at that geometry.
	probeSpan := tr.begin("probes", r.root, 0)
	defer tr.end(probeSpan)
	spec := simBufferedSpec(o.Div, false)
	p := probes{}
	err := simProbes(p, spec, o.Seed, o.ProbeMin)
	plotProbe(p, o.ProbeMin)
	if r.Checks.add("layer probes", err == nil, "%v", err) {
		r.probes(p)
	}
}

// --- serve-steady ---

func serveSteadySpec(div int) serveSpec {
	if div > 1 {
		return serveSpec{Streams: max(4000/div, 16), Rounds: 2, Window: 100 * time.Millisecond, Windows: 2, Warmup: 100 * time.Millisecond}
	}
	return serveSpec{Streams: 4000, Rounds: 30, Window: time.Second, Windows: 3, Warmup: time.Second}
}

// serveLedger accumulates the serve workload's checks across bursts.
type serveLedger struct {
	r           *result
	refused     int
	endedEarly  int
	offSchedule int // standing streams whose bytes strayed from rate × elapsed
	unbalanced  int // rounds after which the server's outcome counters did not add up
}

// settle folds a finished burst into the ledger.
func (l *serveLedger) settle(ls *liveServer, b *burst, hungUpAt time.Time) {
	refused, early := b.strays(hungUpAt)
	l.refused += refused
	l.endedEarly += early
	l.r.Attempted += int64(len(b.conns))
	l.r.Failed += int64(refused + early)
	if oc := ls.outcomes(); oc.Standing != 0 || oc.Completed+oc.Evicted+oc.Aborted != oc.Admitted {
		l.unbalanced++
	}
}

func (l *serveLedger) close() {
	l.r.Checks.add("every connection admitted", l.refused == 0, "%d refused", l.refused)
	l.r.Checks.add("no stream ended before its client hung up", l.endedEarly == 0, "%d ended early", l.endedEarly)
	l.r.Checks.add("every standing stream's bytes within 2.5 quanta of rate x elapsed", l.offSchedule == 0, "%d streams off schedule", l.offSchedule)
	l.r.Checks.add("completed + evicted + aborted == admitted after every round", l.unbalanced == 0, "%d rounds unbalanced", l.unbalanced)
}

// steadyState is what phase B measured on one pacing plane.
type steadyState struct {
	cpuMSPerStreamS, cpuS, chunksPerS []float64
	lagP50, lagP99, drainMS           float64
	lateShare                         float64 // chunks written over half a quantum late
	httpMS                            float64
	heapKB, goroutines                float64
}

// standing runs phase B on a fresh server: one burst of P streams, a
// settle time, then measurement windows until the deadline (and at least
// spec.Windows of them).
func standing(spec serveSpec, pacing string, rng *rand.Rand, deadline time.Time, l *serveLedger, withHTTP bool) (steadyState, error) {
	var st steadyState
	ls, err := startServer(spec, pacing)
	if err != nil {
		return st, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	goroutines := runtime.NumGoroutine()
	b := ls.arrive(spec, rng)
	runtime.ReadMemStats(&after)
	st.heapKB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1e3 / float64(spec.Streams)
	st.goroutines = float64(runtime.NumGoroutine()-goroutines) / float64(spec.Streams)

	// Late chunks are counted over the steady state, from the end of the
	// settle time to the end of the last window: while a burst is still
	// being admitted the server is measured on admission, not on pacing.
	time.Sleep(spec.Warmup)
	marks := b.mark()
	_, chunks0, late0 := b.progress()
	// No runtime.GC() between windows: a forced collection with P streams
	// live delays every stream by about three quanta on two cores, and the
	// steady state allocates nothing that would need one.
	for n := 0; n < spec.Windows || time.Now().Before(deadline); n++ {
		cpu0, t0 := cpuTime(), time.Now()
		ss0, ch0, _ := b.progress()
		time.Sleep(spec.Window)
		cpu, dt := cpuTime()-cpu0, time.Since(t0)
		ss1, ch1, _ := b.progress()
		st.cpuS = append(st.cpuS, cpu.Seconds())
		st.cpuMSPerStreamS = append(st.cpuMSPerStreamS, cpu.Seconds()*1e3/(ss1-ss0))
		st.chunksPerS = append(st.chunksPerS, float64(ch1-ch0)/dt.Seconds())
	}
	_, chunks1, late1 := b.progress()
	st.lateShare = float64(late1-late0) / float64(chunks1-chunks0)
	off := b.offSchedule(marks)
	l.offSchedule += off
	l.r.Failed += int64(off)
	if withHTTP {
		if st.httpMS, err = ls.httpMetricsMS(); err != nil {
			return st, err
		}
	}
	st.lagP50, st.lagP99 = ls.lagMS(0.5), ls.lagMS(0.99)
	hungUpAt := b.leave()
	st.drainMS = float64(time.Since(hungUpAt).Nanoseconds()) / 1e6
	l.settle(ls, b, hungUpAt)
	return st, ls.stop()
}

func runServeSteady(o options, r *result) {
	spec := serveSteadySpec(o.Div)
	tr := r.tracer
	rng := rand.New(rand.NewSource(int64(o.Seed)))
	ledger := &serveLedger{r: r}
	start := time.Now()
	budget := time.Duration(o.Seconds * float64(time.Second))

	// Set-up: server start plus the first full admission. It is a tenth
	// the length of a simulation's, so it is repeated three times as often.
	var setups []float64
	for i := 0; i < 3*o.Setups; i++ {
		t0 := time.Now()
		ls, err := startServer(spec, "")
		if err != nil {
			r.Checks.add("set-up: server start", false, "%v", err)
			return
		}
		b := ls.arrive(spec, rng)
		setups = append(setups, time.Since(t0).Seconds())
		hungUpAt := b.leave()
		ledger.settle(ls, b, hungUpAt)
		if err := ls.stop(); err != nil {
			r.Checks.add("set-up: server stop", false, "%v", err)
			return
		}
	}
	r.setupTime(start, setups)

	// Phase A: bursts of P arrivals, each torn down before the next.
	ls, err := startServer(spec, "")
	if !r.Checks.add("server start", err == nil, "%v", err) {
		return
	}
	var walls, tracedWalls, admitRates, admitUS []float64
	for round := 0; round < spec.Rounds; round++ {
		traced := o.Trace && round%2 == 1
		runtime.GC()
		b := ls.arrive(spec, rng)
		last := b.lastBanner()
		hungUpAt := b.leave()
		end := time.Now()
		ledger.settle(ls, b, hungUpAt)
		if traced {
			traceBurst(tr, r.root, round, b, end)
			tracedWalls = append(tracedWalls, end.Sub(b.start).Seconds())
			continue
		}
		walls = append(walls, end.Sub(b.start).Seconds())
		admitRates = append(admitRates, float64(spec.Streams)/last.Sub(b.start).Seconds())
		for _, c := range b.conns {
			admitUS = append(admitUS, float64(c.banner.Sub(c.enqueued).Nanoseconds())/1e3)
		}
	}
	if err := ls.stop(); !r.Checks.add("server stop", err == nil, "%v", err) {
		return
	}
	r.steady("wall_s", walls)

	// Phase B: P standing streams on the default plane for the rest of the
	// run's seconds (a traced run keeps half for the per-plane repeats).
	deadline := start.Add(budget)
	if o.Trace {
		deadline = time.Now().Add(time.Until(deadline) / 2)
	}
	st, err := standing(spec, "", rng, deadline, ledger, o.Trace)
	if !r.Checks.add("phase B", err == nil, "%v", err) {
		return
	}
	r.steady("cpu_s", st.cpuS)
	r.steady("cpu_ms_per_stream_s", st.cpuMSPerStreamS)
	admit := summarize(unitOf("admit_per_s"), admitRates)
	admit.Value = admit.Q3 // the upper quartile of a rate is the lower quartile of its time
	r.set("admit_per_s", admit)
	r.exact("serve.late_chunk_share", st.lateShare)
	r.Digest = digestOf(fmt.Sprintf("streams=%d rounds=%d", spec.Streams, spec.Rounds))
	if !o.Trace {
		ledger.close()
		return
	}

	_, p50, _ := quartiles(admitUS)
	r.exact("serve.admit_us_p50", p50)
	r.exact("serve.admit_us_p99", percentile(admitUS, 0.99))
	r.exact("serve.lag_ms_p50", st.lagP50)
	r.exact("serve.lag_ms_p99", st.lagP99)
	r.median("serve.chunks_per_s", st.chunksPerS)
	r.exact("serve.drain_ms", st.drainMS)
	r.exact("serve.http_metrics_ms", st.httpMS)
	r.exact("serve.heap_kb_per_stream", st.heapKB)
	r.exact("serve.goroutines_per_stream", st.goroutines)
	if len(tracedWalls) > 0 {
		untraced := lowerQuartile(walls)
		r.exact("trace_overhead_pct", (lowerQuartile(tracedWalls)-untraced)/untraced*100)
	}
	for _, plane := range []string{"goroutine", "wheel"} {
		ps, err := standing(spec, plane, rng, time.Now(), ledger, false)
		if !r.Checks.add("phase B on the "+plane+" plane", err == nil, "%v", err) {
			return
		}
		r.steady("serve.cpu_ms_per_stream_s."+plane, ps.cpuMSPerStreamS)
	}
	ledger.close()

	probeSpan := tr.begin("probes", r.root, 0)
	p := probes{}
	serveProbes(p, spec, o.ProbeMin)
	r.probes(p)
	tr.end(probeSpan)
}

// traceBurst records round → connection{queued, admit, first chunk,
// streaming} for every sixteenth connection of a burst, from the
// timestamps the passive connections keep.
func traceBurst(tr *tracer, parent, round int, b *burst, end time.Time) {
	span := tr.add("round", parent, round, b.start, end)
	for i, c := range b.conns {
		if i%16 != 0 || c.refused {
			continue
		}
		id := tr.add("connection", span, c.id, c.enqueued, c.closedAt)
		tr.add("queued", id, c.id, c.enqueued, c.accepted)
		tr.add("admit", id, c.id, c.accepted, c.banner)
		if c.first.Load() == 0 {
			continue
		}
		firstChunk := c.banner.Add(time.Duration(c.first.Load()))
		tr.add("first chunk", id, c.id, c.banner, firstChunk)
		tr.add("streaming", id, c.id, firstChunk, c.closedAt)
	}
}

// percentile is the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[min(max(i, 0), len(d)-1)]
}
