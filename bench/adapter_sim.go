package main

// Every call from the benchmark into the simulation side of this module —
// shard, server, experiments and the layers beneath them — is in this
// file, so a refactor of those packages has one place to follow. The
// end-to-end entry points are the ones the repo's goldens already pin:
// shard.Run over server.Config, and experiments.RunSuite.

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"memstream/internal/bank"
	"memstream/internal/cache"
	"memstream/internal/device"
	"memstream/internal/disk"
	"memstream/internal/experiments"
	"memstream/internal/model"
	"memstream/internal/plot"
	"memstream/internal/ring"
	"memstream/internal/schedule"
	"memstream/internal/server"
	"memstream/internal/shard"
	"memstream/internal/sim"
	"memstream/internal/tier"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// paperTier is the middle tier every workload runs on: the paper's G3
// MEMS device, the operating point the pinned fingerprints are defined at.
const paperTier = "mems-g3"

// flatTier is the uniform-latency device tier.flat_service_ns probes.
const flatTier = "nvm-optane"

// simSpec describes one sim-* workload: Partitions independent servers of
// PerPart streams each, run through shard.Run.
type simSpec struct {
	Buffered   bool // disk→MEMS→DRAM pipeline; false = direct disk→DRAM
	Partitions int
	PerPart    int
	Rate       units.ByteRate
	Titles     int
	X, Y       float64
	K          int
	Writers    int // recorders among PerPart (buffered only)
	BestEffort bool
	Duration   time.Duration // simulated; 0 = the direct mode's 10 IO cycles
}

// config is partition part's server configuration.
func (s simSpec) config(part int) server.Config {
	cfg := server.Config{
		Mode:          server.Direct,
		Disk:          disk.FutureDisk(),
		N:             s.PerPart,
		BitRate:       s.Rate,
		Titles:        s.Titles,
		X:             s.X,
		Y:             s.Y,
		FirstStreamID: part * s.PerPart,
		Duration:      s.Duration,
	}
	if s.Buffered {
		cfg.Mode = server.Buffered
		cfg.Tier = tier.MustLookup(paperTier)
		cfg.K = s.K
		cfg.Writers = s.Writers
		cfg.BestEffort = s.BestEffort
	}
	return cfg
}

// plan is the sharded run. The direct workload is the repo's own scaling
// scenario, shard.Uniform; the buffered ones wrap server.Config in a plan
// of the same shape.
func (s simSpec) plan() (shard.Plan, error) {
	if !s.Buffered {
		return shard.Uniform(s.Partitions*s.PerPart, s.PerPart, s.Rate, s.Duration)
	}
	return shard.Plan{
		Name:       "bench-buffered",
		Partitions: s.Partitions,
		Build: func(part int, _ uint64) (server.Config, error) {
			return s.config(part), nil
		},
	}, nil
}

// simPass is what one shard.Run pass reported, reduced to the numbers the
// metrics and checks need.
type simPass struct {
	Err error

	Wall     time.Duration // harness wall around shard.Run
	RunWall  time.Duration // shard.Report.Wall: partitions, before the merge
	PartWall time.Duration // Σ PartReport.Wall: time inside server.Run
	Render   string
	RenderUS float64

	Streams       int
	FailedStreams int // underflowed, or in a partition that errored
	Events        uint64
	DiskIOs       uint64
	MEMSIOs       uint64
	WantDiskIOs   uint64 // the count the configuration implies
	ReaderDiskIOs uint64 // of those, reads that the buffered pipeline stages
	BestEffortIOs uint64
	Underflows    int
	StreamSeconds float64 // Σ partitions Streams × SimulatedTime
	MarginP5      time.Duration

	// Means over partitions of simulated ratios; exact at a fixed seed.
	DRAMOverPlan float64
	DiskUtil     float64
	MEMSUtil     float64
}

// run executes one pass on the given number of shard goroutines. With a
// tracer it records shard.Run → partition{build, server.Run} → merge and
// render under parent; partition spans come from wrapping Plan.Build and
// from PartReport.Wall.
func (s simSpec) run(seed uint64, shards int, tr *tracer, parent, pass int) simPass {
	plan, err := s.plan()
	if err != nil {
		return simPass{Err: err}
	}
	type built struct{ start, end time.Time }
	builds := make([]built, plan.Partitions)
	sizes := make([]int, plan.Partitions)
	inner := plan.Build
	plan.Build = func(part int, seed uint64) (server.Config, error) {
		start := time.Now()
		cfg, err := inner(part, seed)
		sizes[part] = cfg.N
		builds[part] = built{start, time.Now()}
		return cfg, err
	}

	runSpan := tr.begin("shard.Run", parent, pass)
	start := time.Now()
	rep, err := shard.Run(plan, seed, shards)
	end := time.Now()
	tr.end(runSpan)
	if tr != nil {
		for p, pr := range rep.Parts {
			b := builds[p]
			id := tr.add("partition", runSpan, p, b.start, b.end.Add(pr.Wall))
			tr.add("build", id, p, b.start, b.end)
			tr.add("server.Run", id, p, b.end, b.end.Add(pr.Wall))
		}
		tr.add("merge", runSpan, pass, start.Add(rep.Wall), end)
	}

	out := simPass{Err: err, Wall: end.Sub(start), RunWall: rep.Wall}
	renderStart := time.Now()
	out.Render = rep.Merged.Render()
	renderEnd := time.Now()
	out.RenderUS = float64(renderEnd.Sub(renderStart).Nanoseconds()) / 1e3
	tr.add("render", parent, pass, renderStart, renderEnd)

	m := rep.Merged
	out.Events, out.DiskIOs, out.MEMSIOs = m.Events, m.DiskIOs, m.MEMSIOs
	out.Underflows, out.MarginP5 = m.Underflows, m.WorstMarginP5
	ok := 0
	for p, pr := range rep.Parts {
		out.PartWall += pr.Wall
		out.Streams += sizes[p]
		if pr.Err != "" {
			out.FailedStreams += sizes[p]
			continue
		}
		ok++
		r := pr.Result
		out.StreamSeconds += float64(r.Streams) * r.SimulatedTime.Seconds()
		readers := uint64(r.Streams - s.Writers)
		// A recorder has nothing assembled to ship in disk cycle 0.
		out.ReaderDiskIOs += readers * uint64(r.Cycles)
		out.WantDiskIOs += readers*uint64(r.Cycles) + uint64(s.Writers)*uint64(r.Cycles-1)
		if r.PlannedDRAM > 0 {
			out.DRAMOverPlan += float64(r.DRAMHighWater) / float64(r.PlannedDRAM)
		}
		out.DiskUtil += r.DiskUtil
		out.MEMSUtil += r.MEMSUtil
		out.BestEffortIOs += uint64(r.BestEffortBytes / bestEffortIOBytes())
	}
	if ok > 0 {
		out.DRAMOverPlan /= float64(ok)
		out.DiskUtil /= float64(ok)
		out.MEMSUtil /= float64(ok)
	}
	if u := out.Underflows; u > 0 {
		if u > out.Streams-out.FailedStreams {
			u = out.Streams - out.FailedStreams
		}
		out.FailedStreams += u
	}
	return out
}

// bestEffortIOBytes is the size of one best-effort MEMS read: 256 KB
// rounded up to whole device blocks, as the buffered driver issues them.
func bestEffortIOBytes() units.Bytes {
	blk := tier.MustLookup(paperTier).BlockBytes
	return units.Bytes(blocksFor(256*units.KB, blk)) * blk
}

func blocksFor(b, blockSize units.Bytes) int64 {
	n := int64(b / blockSize)
	if units.Bytes(n)*blockSize < b {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// serverLine times server.Run on partition 0's configuration at the
// workload's simulated duration D and at D/8, and fits wall = intercept +
// slope × events: the slope is the steady-state cost of one event, the
// intercept the set-up (catalog, devices, planning, population) that does
// not grow with run length. The short run keeps the intercept's error near
// the error of one short timing; extrapolating from D and 2D would double
// the error of a long one. It also reports bytes allocated by one run at D.
func (s simSpec) serverLine(seed uint64, budget time.Duration) (nsPerEvent, setupUSPerStream, allocBytes float64, err error) {
	cfg := s.config(0)
	cfg.Seed = seed
	cfg.Arena = server.NewArena()
	timed := func(c server.Config) (server.Result, float64, error) {
		start := time.Now()
		r, err := server.Run(c)
		return r, float64(time.Since(start).Nanoseconds()), err
	}
	before := totalAlloc()
	base, _, err := timed(cfg) // also warms the arena
	if err != nil {
		return 0, 0, 0, err
	}
	allocBytes = float64(totalAlloc() - before)
	cfg.Duration = base.SimulatedTime
	short := cfg
	short.Duration = base.SimulatedTime / 8

	var slopes, intercepts []float64
	for start := time.Now(); len(slopes) == 0 || (time.Since(start) < budget && len(slopes) < 5); {
		r1, w1, err := timed(short)
		if err != nil {
			return 0, 0, 0, err
		}
		r2, w2, err := timed(cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		if r2.Events <= r1.Events {
			return 0, 0, 0, fmt.Errorf("server: %d events at D, %d at D/8", r2.Events, r1.Events)
		}
		slope := (w2 - w1) / float64(r2.Events-r1.Events)
		slopes = append(slopes, slope)
		intercepts = append(intercepts, w1-slope*float64(r1.Events))
	}
	return median(slopes), math.Max(median(intercepts), 0) / 1e3 / float64(cfg.N), allocBytes, nil
}

// --- paper suite ---

// pinnedPath is the repo's own fingerprint file, relative to the checkout
// root the benchmark runs from.
var pinnedPath = filepath.Join("internal", "experiments", "testdata", "pinned_results.json")

// pinnedSeeds are the root seeds pinned_results.json covers.
var pinnedSeeds = map[uint64]bool{experiments.DefaultSeed: true, 20030305: true}

// suiteIDs lists every artefact of the paper suite.
func suiteIDs() []string { return experiments.IDs() }

// pinSuiteTier pins the experiments package's middle tier; it is a
// package-level setting, so the benchmark sets it rather than trusting the
// default.
func pinSuiteTier() error { return experiments.SetTier(paperTier) }

// loadPinned reads the pinned fingerprints, keyed "<id>@<root seed>".
func loadPinned() (map[string]string, error) {
	data, err := os.ReadFile(pinnedPath)
	if err != nil {
		return nil, err
	}
	pinned := map[string]string{}
	if err := json.Unmarshal(data, &pinned); err != nil {
		return nil, fmt.Errorf("%s: %w", pinnedPath, err)
	}
	return pinned, nil
}

// suiteRun is one artefact of one suite pass.
type suiteRun struct {
	ID          string
	Wall        time.Duration
	End         time.Time
	Events      uint64
	Err         string
	Fingerprint string
}

type suitePass struct {
	Wall time.Duration
	Runs []suiteRun
}

// runSuite executes the artefacts on one worker, in order. With a tracer
// it records suite → experiment; with one worker the artefacts run back to
// back, so an experiment's span ends when its progress callback fires and
// starts its reported wall earlier.
func runSuite(ids []string, seed uint64, tr *tracer, parent, pass int) (suitePass, error) {
	ends := make(map[string]time.Time, len(ids))
	span := tr.begin("suite", parent, pass)
	rep, err := experiments.RunSuite(ids, seed, 1, func(_, _ int, r experiments.RunReport) {
		ends[r.ID] = time.Now()
	})
	tr.end(span)
	if err != nil {
		return suitePass{}, err
	}
	out := suitePass{Wall: rep.Wall, Runs: make([]suiteRun, len(rep.Runs))}
	for i, r := range rep.Runs {
		out.Runs[i] = suiteRun{ID: r.ID, Wall: r.Wall, End: ends[r.ID], Events: r.Events, Err: r.Error}
		if r.Error == "" {
			out.Runs[i].Fingerprint = fingerprint(r.Result)
		}
		tr.add("experiment:"+r.ID, span, i, ends[r.ID].Add(-r.Wall), ends[r.ID])
	}
	return out, nil
}

// fingerprint is the sha256 recipe of internal/experiments/pinned_test.go:
// the rendered artefact, the structured series and the simulation
// counters; wall time and the seed echo are left out.
func fingerprint(res experiments.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "output:%s\n", res.Output)
	for _, s := range res.Series {
		b, _ := json.Marshal(s) // a Series of strings and floats cannot fail to encode
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "events:%d streams:%d cycles:%d underflows:%d\n",
		res.Metrics.Events, res.Metrics.Streams, res.Metrics.Cycles, res.Metrics.Underflows)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// --- layer probes ---

// probeGeometry is the IO shape a workload presents to the device layers.
type probeGeometry struct {
	Streams    int   // per partition
	DiskBlocks int64 // blocks per disk IO
	SlotSize   units.Bytes
	DrainBytes units.Bytes // bytes per MEMS-side transfer
	K          int
	Pending    int // events in the calendar at once: one per device in flight, plus the cycle timer
}

func diskSpecOf(d *disk.Device) model.DeviceSpec {
	return model.DeviceSpec{Rate: d.EffectiveRate(), Latency: d.Params().AvgAccess()}
}

func bufferConfigOf(s simSpec, d *disk.Device) model.BufferConfig {
	t := tier.MustLookup(paperTier)
	return model.BufferConfig{
		Load:          model.StreamLoad{N: s.PerPart, BitRate: s.Rate},
		Disk:          diskSpecOf(d),
		Tier:          model.DeviceSpec{Rate: t.Rate, Latency: t.MaxLatency},
		K:             s.K,
		SizePerDevice: t.Capacity,
	}
}

// geometry derives the IO sizes the server drivers plan for this spec, by
// the same model calls they make.
func (s simSpec) geometry(d *disk.Device) (probeGeometry, error) {
	g := probeGeometry{Streams: s.PerPart, K: s.K, Pending: s.K + 2}
	blk := d.Geometry().BlockSize
	if !s.Buffered {
		plan, err := model.DiskDirect(model.StreamLoad{N: s.PerPart, BitRate: s.Rate}, diskSpecOf(d))
		if err != nil {
			return probeGeometry{}, err
		}
		g.DiskBlocks = blocksFor(plan.IOSize, blk)
		return g, nil
	}
	bcfg := bufferConfigOf(s, d)
	plan, err := model.BufferPlan(bcfg)
	if err != nil {
		return probeGeometry{}, err
	}
	plan.CapDiskCycle(20*time.Second, bcfg.Load) // as the buffered driver does
	g.DiskBlocks = blocksFor(plan.DiskIOSize, blk)
	g.SlotSize = plan.DiskIOSize
	g.DrainBytes = units.BytesIn(s.Rate, plan.MEMSCycle)
	return g, nil
}

// probes maps a per-layer metric name to nanoseconds (or, for *_us names,
// microseconds) per operation.
type probes map[string]float64

// simProbes times every layer under a sim-* workload at the spec's IO
// geometry, on partition 0's population drawn from the seed.
func simProbes(p probes, s simSpec, seed uint64, minDur time.Duration) error {
	d, err := disk.New(disk.FutureDisk())
	if err != nil {
		return err
	}
	g, err := s.geometry(d)
	if err != nil {
		return err
	}
	cat, err := s.catalog(d.Geometry().BlockSize)
	if err != nil {
		return err
	}
	kernelProbes(p, g, seed, minDur)
	if err := diskProbes(p, d, g, cat, seed, minDur); err != nil {
		return err
	}
	if s.Buffered {
		if err := tierProbes(p, g, minDur); err != nil {
			return err
		}
	}
	return planProbes(p, s, d, cat, seed, minDur)
}

// catalog lays the spec's titles out as server.Run does.
func (s simSpec) catalog(blockSize units.Bytes) (*workload.Catalog, error) {
	class := workload.MediaClass{Name: "sim", BitRate: s.Rate, Duration: 100 * time.Minute}
	weights := workload.XYDistribution{X: s.X, Y: s.Y}.Weights(s.Titles)
	return workload.NewCatalog(s.Titles, class, weights, blockSize)
}

// kernelProbes times the event kernel and the ring buffer.
func kernelProbes(p probes, g probeGeometry, seed uint64, minDur time.Duration) {
	// A standing population of self-rescheduling events, as many as the
	// workload keeps in flight: each fire is one ScheduleArg plus one pop,
	// the pair every simulated IO pays.
	var eng sim.Engine
	rng := sim.NewRNG(seed)
	var fire func(any)
	fire = func(any) { eng.ScheduleArg(sim.Time(1+rng.Uint64n(1000)), fire, nil) }
	for i := 0; i < g.Pending; i++ {
		fire(nil)
	}
	p["sim.event_ns"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			eng.Step()
		}
	})
	p["sim.cancel_ns"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			eng.ScheduleArg(sim.Time(2000), fire, nil).Cancel()
		}
	})
	res := sim.NewReservoir(8192, seed) // the rig's margin reservoir size
	p["sim.reservoir_observe_ns"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			res.Observe(float64(i & 1023))
		}
	})
	var q ring.Ring[int]
	for i := 0; i < 64; i++ {
		q.PushBack(i)
	}
	p["ring.pushpop_ns"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			q.PushBack(q.PopFront())
		}
	})
}

// diskProbes times the disk service-time model and the C-LOOK scheduler
// on batches of one request per stream, the shape of one IO cycle, at the
// positions a population drawn from the seed starts at: the cost of a
// request depends on where the catalog lies on the disk.
// disk.clook_ns includes the Service call each dispatch makes;
// disk.service_ns is that call alone on the same sweep.
func diskProbes(p probes, d *disk.Device, g probeGeometry, cat *workload.Catalog, seed uint64, minDur time.Duration) error {
	pop, err := workload.NewGenerator(cat, seed).DrawRange(0, g.Streams)
	if err != nil {
		return err
	}
	geom := d.Geometry()
	batch := make([]device.Request, g.Streams)
	for i, st := range pop.Streams {
		block := (st.Title.StartLB + int64(st.Offset/geom.BlockSize)) % geom.Blocks
		batch[i] = device.Request{Op: device.Read, Block: min(block, geom.Blocks-g.DiskBlocks), Blocks: g.DiskBlocks, Stream: i}
	}
	sorted := append([]device.Request(nil), batch...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Block < sorted[j].Block })

	var firstErr error
	now := time.Duration(0)
	p["disk.service_ns"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			c, err := d.Service(now, sorted[i%len(sorted)])
			if err != nil && firstErr == nil {
				firstErr = err
			}
			now = c.Finish
		}
	})
	sched := disk.NewScheduler(d, disk.CLook)
	p["disk.clook_ns"] = timeOp(minDur, func(n int) {
		for b := 0; b < n; b++ {
			for _, r := range batch {
				sched.Enqueue(r)
			}
			for sched.Len() > 0 {
				c, _, err := sched.Dispatch(now)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				now = c.Finish
			}
		}
	}) / float64(len(batch))
	return firstErr
}

// tierProbes times the middle tier and the bank on the request sequence
// the buffered pipeline issues: every MEMS cycle each stream's staging
// ring is visited once, in stream order.
func tierProbes(p probes, g probeGeometry, minDur time.Duration) error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	requests := func(name string) ([]tier.Device, *bank.BufferBank, [][]device.Request, error) {
		devs, err := bank.New(g.K, tier.MustLookup(name))
		if err != nil {
			return nil, nil, nil, err
		}
		bb, err := bank.NewBufferBank(devs, g.SlotSize)
		if err != nil {
			return nil, nil, nil, err
		}
		perDev := make([][]device.Request, g.K)
		for i := 0; i < g.Streams; i++ {
			if _, err := bb.Attach(i); err != nil {
				return nil, nil, nil, err
			}
			r, dev, err := bb.DrainRequest(i, 1, g.DrainBytes)
			if err != nil {
				return nil, nil, nil, err
			}
			perDev[dev] = append(perDev[dev], r)
		}
		return devs, bb, perDev, nil
	}
	service := func(name string) (float64, error) {
		devs, _, perDev, err := requests(name)
		if err != nil {
			return 0, err
		}
		now := time.Duration(0)
		return timeOp(minDur, func(n int) {
			reqs := perDev[0]
			for i := 0; i < n; i++ {
				c, err := devs[0].Service(now, reqs[i%len(reqs)])
				note(err)
				now = c.Finish
			}
		}), nil
	}
	var err error
	if p["mems.service_ns"], err = service(paperTier); err != nil {
		return err
	}
	if p["tier.flat_service_ns"], err = service(flatTier); err != nil {
		return err
	}

	devs, bb, perDev, err := requests(paperTier)
	if err != nil {
		return err
	}
	p["bank.stage_ns"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i += 2 {
			s := (i / 2) % g.Streams
			_, _, err := bb.StageRequest(s, int64(i), g.SlotSize)
			note(err)
			_, _, err = bb.DrainRequest(s, int64(i), g.DrainBytes)
			note(err)
		}
	})

	// The sled-aware scheduler at a queue depth of 64, each dispatch
	// including the Service call it makes.
	const depth = 64
	sched := tier.NewScheduler(devs[0], tier.SPTF)
	now := time.Duration(0)
	p["tier.sched_ns"] = timeOp(minDur, func(n int) {
		reqs := perDev[0]
		for b := 0; b < n; b++ {
			for j := 0; j < depth; j++ {
				sched.Enqueue(reqs[(b*depth+j)%len(reqs)])
			}
			for sched.Len() > 0 {
				c, _, err := sched.Dispatch(now)
				note(err)
				now = c.Finish
			}
		}
	}) / depth

	// The two cache-bank policies, one stream-sized read per call.
	blk := devs[0].Geometry().BlockSize
	blocks := blocksFor(g.DrainBytes, blk) * int64(g.K)
	span := devs[0].Geometry().Blocks - blocks
	striped, err := bank.NewStripedBank(devs)
	if err != nil {
		return err
	}
	replicated, err := bank.NewReplicatedBank(devs)
	if err != nil {
		return err
	}
	for i := 0; i < g.Streams; i++ {
		note(striped.Assign(i))
		note(replicated.Assign(i))
	}
	read := func(b bank.CacheBank) float64 {
		return timeOp(minDur, func(n int) {
			for i := 0; i < n; i++ {
				s := i % g.Streams
				c, err := b.Read(now, s, int64(s)*blocks%span, blocks)
				note(err)
				now = c.Finish
			}
		})
	}
	p["bank.striped_read_ns"] = read(striped)
	p["bank.replicated_read_ns"] = read(replicated)
	return firstErr
}

// planProbes times what a run does once, before its first event: the
// catalog, the population draw, the analytic plans and the time-cycle
// table. Names ending _us are in microseconds.
func planProbes(p probes, s simSpec, d *disk.Device, cat *workload.Catalog, seed uint64, minDur time.Duration) error {
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	blk := d.Geometry().BlockSize
	p["workload.catalog_us"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			_, err := s.catalog(blk)
			note(err)
		}
	}) / 1e3
	gen := workload.NewGenerator(cat, seed)
	p["workload.draw_ns"] = timeOp(minDur, func(n int) {
		for b := 0; b < n; b++ {
			_, err := gen.DrawRange(b*s.PerPart, s.PerPart)
			note(err)
		}
	}) / float64(s.PerPart)

	load := model.StreamLoad{N: s.PerPart, BitRate: s.Rate}
	dspec := diskSpecOf(d)
	var direct model.DirectPlan
	p["model.direct_plan_ns"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			plan, err := model.DiskDirect(load, dspec)
			note(err)
			direct = plan
		}
	})
	p["schedule.timecycle_build_us"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			_, err := schedule.NewTimeCycle(4096, direct)
			note(err)
		}
	}) / 1e3
	if !s.Buffered {
		return firstErr // the direct mode plans no middle tier
	}

	t := tier.MustLookup(paperTier)
	p["cache.plan_us"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			_, err := cache.Plan(cat, t.Capacity.Mul(float64(s.K)))
			note(err)
		}
	}) / 1e3
	bcfg := bufferConfigOf(s, d)
	p["model.buffer_plan_us"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			_, err := model.BufferPlan(bcfg)
			note(err)
		}
	}) / 1e3
	ccfg := model.CacheConfig{
		Load: load, Disk: dspec, Tier: bcfg.Tier, K: s.K,
		SizePerDevice: t.Capacity, ContentSize: cat.TotalSize(), X: s.X, Y: s.Y,
	}
	p["model.cache_plan_us"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			_, err := model.CachePlan(ccfg)
			note(err)
		}
	}) / 1e3
	return firstErr
}

// plotProbe times rendering one 30-row, 6-column table, the size of the
// suite's larger tables.
func plotProbe(p probes, minDur time.Duration) {
	t := plot.Table{Title: "bench", Headers: []string{"a", "b", "c", "d", "e", "f"}}
	for i := 0; i < 30; i++ {
		t.AddRow("row", "1234.5", "0.6789", "10KB/s", "mems-g3", "ok")
	}
	p["plot.table_render_us"] = timeOp(minDur, func(n int) {
		for i := 0; i < n; i++ {
			_ = t.Render()
		}
	}) / 1e3
}
