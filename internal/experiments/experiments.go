// Package experiments regenerates every table and figure in the paper's
// evaluation (its Section 5) plus a model-vs-simulation validation run.
// Each experiment produces a rendered text artifact and, where meaningful,
// structured series for CSV export. The experiment IDs match DESIGN.md's
// per-experiment index.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"memstream/internal/disk"
	"memstream/internal/model"
	"memstream/internal/plot"
	"memstream/internal/server"
	"memstream/internal/tier"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// Metrics is one run's observability record: what the run cost and what
// the simulations inside it did. Analytic (closed-form) experiments leave
// the simulation counters at zero.
type Metrics struct {
	Seed       uint64        `json:"seed"`
	Wall       time.Duration `json:"wall_ns"` // filled by the suite runner
	Events     uint64        `json:"events"`  // simulation-kernel events fired
	Streams    int           `json:"streams"` // streams served across embedded sims
	Cycles     int64         `json:"cycles"`  // scheduling cycles driven across embedded sims
	Underflows int           `json:"underflows"`
}

// addRun folds one server simulation's counters into the metrics.
func (m *Metrics) addRun(sr server.Result) {
	m.Events += sr.Events
	m.Streams += sr.Streams
	m.Cycles += sr.Cycles
	m.Underflows += sr.Underflows
}

// Result is one regenerated artifact.
type Result struct {
	ID      string
	Title   string
	Output  string        // rendered table/chart text
	Series  []plot.Series // structured data, when the artifact is a plot
	Metrics Metrics
}

// runner produces one artifact. Every run derives its randomness from the
// seed argument alone, so a (id, seed) pair is a pure function — the
// property the parallel suite runner depends on.
type runner struct {
	title string
	run   func(seed uint64) (Result, error)
}

// registry maps experiment IDs to runners; populated by the per-figure
// files' init functions.
var registry = map[string]runner{}

func register(id, title string, run func(seed uint64) (Result, error)) {
	registry[id] = runner{title: title, run: run}
}

// DefaultSeed seeds single-experiment runs that don't care about the
// seed (tests, the -run CLI path without an explicit -seed).
const DefaultSeed uint64 = 1

// IDs returns all experiment IDs in stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns an experiment's display title.
func Title(id string) (string, bool) {
	r, ok := registry[id]
	return r.title, ok
}

// Run executes one experiment by ID with DefaultSeed.
func Run(id string) (Result, error) { return RunSeeded(id, DefaultSeed) }

// RunSeeded executes one experiment by ID with an explicit seed.
func RunSeeded(id string, seed uint64) (Result, error) {
	r, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	res, err := r.run(seed)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = id
	res.Title = r.title
	res.Metrics.Seed = seed
	return res, nil
}

// --- Shared paper-default parameters ---

// paperDisk is the FutureDisk spec under the paper's convention
// (scheduler-informed average access: average seek + rotation).
func paperDisk() model.DeviceSpec {
	p := disk.FutureDisk()
	return model.DeviceSpec{Rate: p.OuterRate, Latency: p.AvgAccess()}
}

// curTier is the middle-tier parameter set the tier-aware experiments
// run with — wired from the CLIs' -tier flag. The default is the paper's
// G3 MEMS device, under which every artifact is byte-identical to the
// pre-tier goldens (the pinned sha256 suite enforces this). Experiments
// that study MEMS specifics (generation sweeps, Table 1–3, sled layout)
// pin their own specs and ignore the override. Set it before starting a
// suite; it is read concurrently by suite workers.
var curTier = tier.MustLookup(tier.Default)

// SetTier selects the middle-tier parameter set by registry name. Call
// before RunSuite; unknown names error with the available sets.
func SetTier(name string) error {
	s, err := tier.Lookup(name)
	if err != nil {
		return err
	}
	curTier = s
	return nil
}

// paperTier is the configured middle tier under the paper's convention
// (maximum positioning latency). With the default tier this is exactly
// the old G3 MEMS spec.
func paperTier() model.DeviceSpec {
	return model.DeviceSpec{Rate: curTier.Rate, Latency: curTier.MaxLatency}
}

// tierAtRatio returns a middle-tier spec whose latency realizes the
// given disk/tier latency ratio (the sensitivity knob of §5.1).
func tierAtRatio(ratio float64) model.DeviceSpec {
	d := paperDisk()
	m := paperTier()
	m.Latency = units.Seconds(d.Latency.Seconds() / ratio)
	return m
}

// rateClass is one media class swept in Figures 6–8, labelled with its
// name and whole-unit rate ("DVD 1MB/s").
type rateClass struct {
	name string
	rate units.ByteRate
}

// bitRates are the paper's four media classes (Table 1).
var bitRates = func() []rateClass {
	var out []rateClass
	for _, c := range workload.Classes() {
		label := strings.Replace(c.BitRate.String(), ".00", "", 1)
		out = append(out, rateClass{c.Name + " " + label, c.BitRate})
	}
	return out
}()

const (
	contentSize = 1000 * units.GB // Size_disk: one FutureDisk of content
)

// tierCapacity is Size_tier of the configured middle tier (10GB for the
// default G3 MEMS).
func tierCapacity() units.Bytes { return curTier.Capacity }

var paperCosts = model.Table3Costs()
