// Package shard scales the single-threaded simulation kernel to multiple
// cores by partitioning a large run into independent sub-simulations.
//
// The unit of determinism is the partition: a scenario fixes how many
// partitions it has and what each one simulates, every partition gets its
// own sim.Engine (inside its own server rig) and a seed that is a pure
// function of (rootSeed, partition index) — sim.KeyedSeed, the derivation
// the experiment suite keys by experiment ID. Run executes the partitions
// on sim.FanOut, the suite's worker pool: workers take the next partition
// from a shared queue, each with its own server.Arena. There is no core
// gate, so with more workers than cores a partition's wall includes the
// time it shares a core.
//
// Because partition results depend only on (rootSeed, partition) and the
// merge folds them in partition order, the merged Result — and any
// artifact rendered from it — is byte-identical at every worker count; the
// count only chooses how much hardware the run uses. CI enforces this by
// diffing memsim -scale summaries at -shards 1 and 8, the same way it pins
// the experiment suite's worker-count independence.
package shard

import (
	"fmt"
	"strconv"
	"time"

	"memstream/internal/server"
	"memstream/internal/sim"
	"memstream/internal/units"
)

// Plan describes a sharded run: a fixed number of independent partitions
// and a builder that yields each partition's server configuration.
type Plan struct {
	Name string

	// Partitions is the number of independent sub-simulations. It is part
	// of the scenario — changing it changes the system being simulated —
	// and is deliberately decoupled from the worker count, which only
	// changes how the work is executed.
	Partitions int

	// Build returns partition part's server configuration. The runner
	// overwrites Config.Seed with the partition seed it passes in, so a
	// builder can derive auxiliary parameters from seed but cannot
	// accidentally correlate partitions.
	Build func(part int, seed uint64) (server.Config, error)
}

// SeedFor derives partition part's seed from the root seed: the
// sim.KeyedSeed of the key "shard/<part>", a pure function of
// (rootSeed, part).
func SeedFor(rootSeed uint64, part int) uint64 {
	return sim.KeyedSeed(rootSeed, "shard/"+strconv.Itoa(part))
}

// PartReport is one partition's run record.
type PartReport struct {
	Part int
	Seed uint64
	Wall time.Duration // wall clock of the partition's server.Run
	Err  string

	// Result is the partition's simulation outcome; zero when Err is set.
	Result server.Result
}

// Result is the deterministic merge of every partition's server.Result.
// Counters sum; SimulatedTime is the longest partition horizon (the
// partitions run concurrently in the modeled system); DRAMHighWater sums
// because the partitions' footprints coexist; MeanDiskUtil averages the
// per-partition disk utilizations; WorstMarginP5 is the smallest
// 5th-percentile delivery margin any partition saw. The fold visits
// partitions in index order, so the merge is independent of completion
// order and worker count.
type Result struct {
	Partitions int
	Streams    int
	Events     uint64
	Cycles     int64

	Underflows     int
	UnderflowBytes units.Bytes

	DiskIOs uint64
	MEMSIOs uint64

	SimulatedTime time.Duration
	DRAMHighWater units.Bytes
	DiskBusy      time.Duration
	MeanDiskUtil  float64
	WorstMarginP5 time.Duration
}

// Render produces the merged artifact text. It contains no wall-clock or
// worker-count dependent values: two runs of the same plan and seed render
// identically at any worker count — the property the CI summary diff pins.
func (r Result) Render() string {
	return fmt.Sprintf(
		"partitions=%d streams=%d\n"+
			"events=%d cycles=%d disk_ios=%d mems_ios=%d\n"+
			"underflows=%d underflow_bytes=%v\n"+
			"simulated=%v dram_high_water=%v disk_busy=%v mean_disk_util=%.4f\n"+
			"worst_margin_p5=%v\n",
		r.Partitions, r.Streams,
		r.Events, r.Cycles, r.DiskIOs, r.MEMSIOs,
		r.Underflows, r.UnderflowBytes,
		r.SimulatedTime, r.DRAMHighWater, r.DiskBusy, r.MeanDiskUtil,
		r.WorstMarginP5)
}

// Report is one sharded run: the merged result plus per-partition
// execution records.
type Report struct {
	Plan       string
	Partitions int
	Shards     int // the worker count sim.FanOut used
	RootSeed   uint64
	Wall       time.Duration // end-to-end wall clock of the whole run

	Merged Result
	Parts  []PartReport
}

// WallEventsPerSec is the end-to-end simulation rate: merged events over
// the run's total wall clock. With fewer cores than workers the workers
// timeshare and this number stays near the single-core rate.
func (r Report) WallEventsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Merged.Events) / r.Wall.Seconds()
}

// Run executes the plan's partitions on sim.FanOut with the given worker
// count (<= 0 means GOMAXPROCS; clamped to the partition count) and
// deterministically merges their results. A partition failure does not
// abort the other partitions; Run returns the lowest-indexed failure
// alongside the full report.
func Run(plan Plan, rootSeed uint64, workers int) (Report, error) {
	if plan.Partitions <= 0 {
		return Report{}, fmt.Errorf("shard: plan %q needs at least one partition", plan.Name)
	}
	if plan.Build == nil {
		return Report{}, fmt.Errorf("shard: plan %q has no Build function", plan.Name)
	}
	rep := Report{
		Plan:       plan.Name,
		Partitions: plan.Partitions,
		RootSeed:   rootSeed,
		Parts:      make([]PartReport, plan.Partitions),
	}

	start := time.Now()
	rep.Shards = sim.FanOut(plan.Partitions, workers, func() func(int) {
		// One arena per worker: a partition runs in the storage the
		// worker's previous partition grew, so the steady-state loop stops
		// allocating per partition. Arena reuse is pinned byte-identical
		// to arena-free runs by the goldens and the 1-vs-8 worker gate.
		arena := server.NewArena()
		return func(p int) {
			seed := SeedFor(rootSeed, p)
			pr := PartReport{Part: p, Seed: seed}
			cfg, err := plan.Build(p, seed)
			if err == nil {
				cfg.Seed = seed
				cfg.Arena = arena
				runStart := time.Now()
				pr.Result, err = server.Run(cfg)
				pr.Wall = time.Since(runStart)
			}
			if err != nil {
				pr.Err = err.Error()
			}
			rep.Parts[p] = pr
		}
	})
	rep.Wall = time.Since(start)

	// Deterministic merge: fold partitions in index order. Completion
	// order and worker count cannot influence any merged value.
	var firstErr error
	var utilSum float64
	worstMargin := time.Duration(1<<63 - 1)
	m := &rep.Merged
	m.Partitions = plan.Partitions
	for p := range rep.Parts {
		pr := &rep.Parts[p]
		if pr.Err != "" {
			if firstErr == nil {
				firstErr = fmt.Errorf("shard: partition %d: %s", p, pr.Err)
			}
			continue
		}
		m.Streams += pr.Result.Streams
		m.Events += pr.Result.Events
		m.Cycles += pr.Result.Cycles
		m.Underflows += pr.Result.Underflows
		m.UnderflowBytes += pr.Result.UnderflowBytes
		m.DiskIOs += pr.Result.DiskIOs
		m.MEMSIOs += pr.Result.MEMSIOs
		m.DRAMHighWater += pr.Result.DRAMHighWater
		m.DiskBusy += pr.Result.DiskBusy
		utilSum += pr.Result.DiskUtil
		if pr.Result.SimulatedTime > m.SimulatedTime {
			m.SimulatedTime = pr.Result.SimulatedTime
		}
		if pr.Result.MarginP5 < worstMargin {
			worstMargin = pr.Result.MarginP5
		}
	}
	if firstErr != nil {
		return rep, firstErr
	}
	m.MeanDiskUtil = utilSum / float64(plan.Partitions)
	m.WorstMarginP5 = worstMargin
	return rep, nil
}
