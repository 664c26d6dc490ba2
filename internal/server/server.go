// Package server is a discrete-event simulation of the full streaming
// media server: the paper's three architectures (direct disk→DRAM,
// disk→MEMS-buffer→DRAM, disk+MEMS-cache→DRAM) plus the §7 hybrid split
// and the EDF scheduling baseline. It wires the device simulators, the
// time-cycle schedules derived from the analytical model, the MEMS bank
// managers and the DRAM pool together, and measures what the model only
// predicts: underflows, delivery margins, device utilization and actual
// DRAM occupancy. Extensions: write streams, VBR playback with cushions,
// interactive pause/resume, and best-effort traffic in spare bandwidth.
//
// Every architecture runs on a shared run-core (see rig.go): the rig owns
// the engine, DRAM pool, RNG, catalog, player construction, playback
// shaping and Result assembly. newCycleRun (modes.go) builds every
// time-cycle mode as an optional cache side plus one disk side and lists
// its per-cycle scheduling stages; newEDFRun builds the EDF baseline. An
// optional per-cycle observability probe (probe.go, Config.Trace) records
// the run's dynamics as Result.Trace without perturbing it.
package server

import (
	"fmt"
	"time"

	"memstream/internal/disk"
	"memstream/internal/model"
	"memstream/internal/tier"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// Mode selects the server architecture.
type Mode uint8

// Architectures.
const (
	// Direct streams straight from disk to DRAM (the baseline).
	Direct Mode = iota
	// Buffered stages every disk IO through a k-device MEMS buffer.
	Buffered
	// Cached serves popular titles from a k-device MEMS cache and the
	// rest from disk.
	Cached
	// Hybrid splits the bank: CacheDevices pin popular titles, the rest
	// buffer the misses' disk IOs (the paper's §7 future-work split).
	Hybrid
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Direct:
		return "direct"
	case Buffered:
		return "mems-buffer"
	case Cached:
		return "mems-cache"
	case Hybrid:
		return "mems-hybrid"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Config describes one simulation run.
type Config struct {
	Mode Mode

	Disk disk.Params
	Tier tier.Spec // middle-tier parameter set (the paper's MEMS)
	K    int       // middle-tier devices (Buffered/Cached/Hybrid)
	// CacheDevices is the cache share of the bank in Hybrid mode
	// (0 < CacheDevices < K).
	CacheDevices int

	// CachePolicy spreads the cache side's pinned titles over its devices
	// (Cached and Hybrid; Replicated elsewhere is refused).
	CachePolicy model.CachePolicy

	N       int            // concurrent streams
	Writers int            // of N, how many are recorders (Buffered mode only)
	BitRate units.ByteRate // CBR bit-rate for every stream
	Titles  int            // catalog size
	X, Y    float64        // popularity distribution (Cached draws titles by it)

	// FirstStreamID offsets the IDs of the drawn stream population. A
	// sharded run (internal/shard) gives every partition a disjoint ID
	// range so the merged population has globally unique stream IDs; the
	// default 0 reproduces the historical single-run numbering.
	FirstStreamID int

	// UseEDF switches the Direct architecture from time-cycle scheduling
	// to earliest-deadline-first — the baseline scheduler class the
	// paper's related work contrasts (Daigle & Strosnider).
	UseEDF bool

	// VBRCoV, when positive, makes playback variable-bit-rate with this
	// coefficient of variation around BitRate (time-cycle Direct and
	// Buffered modes; Buffered recorders never play back). Per the
	// paper's footnote 1, VBR is handled as CBR plus a memory cushion:
	// the simulator prefetches each stream's cushion before playback.
	// NoCushion suppresses the prefetch, demonstrating why footnote 1
	// needs it.
	VBRCoV    float64
	NoCushion bool

	// PausedFraction, when positive (time-cycle Direct mode), makes playback
	// interactive: each stream alternates exponentially distributed play
	// and pause phases so that this fraction of stream-time is paused.
	// The scheduler skips IOs for streams whose buffers are full — the
	// bandwidth reclamation interactive servers (paper §6, [21]) perform.
	PausedFraction float64

	// BestEffort, when true (Buffered mode), keeps a standing queue of
	// non-real-time MEMS reads that soak up the bank's spare bandwidth
	// (§3.1.2: "Spare bandwidth, if available, can be used for
	// non-real-time traffic"). Result.BestEffortBytes reports how much
	// they moved; real-time traffic keeps strict priority.
	BestEffort bool

	// Trace attaches the per-cycle observability probe: the run records
	// one Sample per scheduling cycle (DRAM occupancy, device queue
	// depth and busy deltas, underflow and cache-hit deltas) surfaced as
	// Result.Trace. Attachment is guaranteed not to change any other
	// Result field — sampling rides the existing cycle events. The EDF
	// baseline has no cycles and records an empty trace.
	Trace bool

	// Duration is the simulated run length. 0 selects the mode's default
	// horizon (modes.go): 10 disk cycles direct (and EDF), 4 buffered, 3
	// hybrid, 10 cycles of the slower side cached. Direct, buffered and
	// hybrid runs are whole disk cycles, at least 2, 3 and 3 of them.
	Duration time.Duration
	Seed     uint64

	// Arena, when non-nil, supplies the reusable simulation state (event
	// engine, player arrays, consumption tables, chain and scheduler
	// pools) this run executes in. A caller running many configurations
	// back to back — the shard partition loop above all — creates one
	// Arena per goroutine and threads it through every run so steady
	// state stops allocating. An Arena must not be shared by concurrent
	// runs; reuse never changes a Result (the pinned-golden gates hold
	// arena and arena-free runs byte-identical). Nil means the run builds
	// a private arena.
	Arena *Arena
}

// Result summarizes a run.
type Result struct {
	Mode    Mode
	Streams int

	SimulatedTime time.Duration
	// Cycles counts the scheduling rounds of the run's dominant cycle
	// loop (disk cycles where the disk leads; the busier side in Cached
	// mode; planning cycles for EDF, which schedules per-request).
	Cycles int64
	// Events is how many simulation-kernel events fired during the run
	// (Engine.Executed) — the per-run cost metric the experiment harness
	// exports.
	Events uint64

	// Real-time delivery.
	Underflows     int
	UnderflowBytes units.Bytes

	// Resources.
	DRAMHighWater units.Bytes
	PlannedDRAM   units.Bytes // the model's N·S prediction
	DiskBusy      time.Duration
	MEMSBusy      time.Duration
	DiskUtil      float64
	MEMSUtil      float64

	// IO accounting.
	DiskIOs uint64
	MEMSIOs uint64

	// Cached mode split.
	FromCache int
	FromDisk  int

	// Write-stream accounting (Buffered mode with Writers > 0): the peak
	// DRAM a recorder accumulated while waiting for its data to be staged
	// to MEMS. Bounded occupancy means the reverse pipeline keeps up.
	WriterPeakDRAM units.Bytes

	// BestEffortBytes is the non-real-time data the bank moved in its
	// spare bandwidth (Buffered mode with BestEffort).
	BestEffortBytes units.Bytes

	// MarginP5 is the 5th-percentile delivery margin: how many seconds of
	// playback remained buffered at drain instants. Positive margins mean
	// deadlines were met with room; values near zero flag a schedule
	// running on the edge.
	MarginP5 time.Duration

	// Trace is the per-cycle time series recorded when Config.Trace is
	// set; nil otherwise.
	Trace *Trace
}

// Run executes one simulation.
func Run(cfg Config) (Result, error) {
	if err := validate(&cfg); err != nil {
		return Result{}, err
	}
	if cfg.UseEDF {
		return runEDF(cfg)
	}
	m, err := newCycleRun(cfg)
	if err != nil {
		return Result{}, err
	}
	return m.run(), nil
}

func validate(cfg *Config) error {
	if cfg.N <= 0 {
		return fmt.Errorf("server: need at least one stream")
	}
	if cfg.BitRate <= 0 {
		return fmt.Errorf("server: non-positive bit-rate")
	}
	if cfg.Titles <= 0 {
		cfg.Titles = 100
	}
	if cfg.X == 0 && cfg.Y == 0 {
		cfg.X, cfg.Y = 10, 90
	}
	if cfg.Mode > Hybrid {
		return fmt.Errorf("server: unknown mode %v", cfg.Mode)
	}
	if cfg.Mode != Direct && cfg.K <= 0 {
		return fmt.Errorf("server: mode %v needs K ≥ 1", cfg.Mode)
	}
	if cfg.Writers < 0 || cfg.Writers > cfg.N {
		return fmt.Errorf("server: writers %d outside [0, N=%d]", cfg.Writers, cfg.N)
	}
	if cfg.Writers > 0 && cfg.Mode != Buffered {
		return fmt.Errorf("server: write streams are supported in the buffered pipeline only")
	}
	// A field the selected mode would ignore is refused, not dropped.
	timeCycleDirect := cfg.Mode == Direct && !cfg.UseEDF
	for _, f := range []struct {
		name       string
		set, honor bool
	}{
		{"PausedFraction", cfg.PausedFraction != 0, timeCycleDirect},
		{"VBRCoV", cfg.VBRCoV != 0, timeCycleDirect || cfg.Mode == Buffered},
		{"NoCushion", cfg.NoCushion, timeCycleDirect || cfg.Mode == Buffered},
		{"BestEffort", cfg.BestEffort, cfg.Mode == Buffered},
		{"UseEDF", cfg.UseEDF, cfg.Mode == Direct},
		{"CacheDevices", cfg.CacheDevices != 0, cfg.Mode == Hybrid},
		{"CachePolicy", cfg.CachePolicy != model.Striped, cfg.Mode == Cached || cfg.Mode == Hybrid},
	} {
		if f.set && !f.honor {
			return fmt.Errorf("server: %s has no effect in mode %v (UseEDF %v)", f.name, cfg.Mode, cfg.UseEDF)
		}
	}
	if cfg.Mode == Hybrid && (cfg.CacheDevices <= 0 || cfg.CacheDevices >= cfg.K) {
		return fmt.Errorf("server: hybrid needs 0 < CacheDevices=%d < K=%d", cfg.CacheDevices, cfg.K)
	}
	if cfg.FirstStreamID < 0 {
		return fmt.Errorf("server: negative first stream ID %d", cfg.FirstStreamID)
	}
	return nil
}

// diskSpec derives the model-facing spec from an instantiated drive. The
// rate is the block-weighted effective zone rate, not the outer-zone
// maximum: simulated content spans the whole surface, so planning against
// the maximum would overcommit the inner zones.
func diskSpec(d *disk.Device) model.DeviceSpec {
	return model.DeviceSpec{Rate: d.EffectiveRate(), Latency: d.Params().AvgAccess()}
}

// tierSpec derives the model-facing spec; the paper always charges the
// middle tier the maximum positioning latency (its §5).
func tierSpec(s tier.Spec) model.DeviceSpec {
	return model.DeviceSpec{Rate: s.Rate, Latency: s.MaxLatency}
}

// mediaClass builds a media class for the configured bit-rate. Feature-
// length titles keep the catalog comfortably larger than a small MEMS
// bank, so cache-capacity effects are visible in simulation.
func mediaClass(br units.ByteRate) workload.MediaClass {
	return workload.MediaClass{Name: "sim", BitRate: br, Duration: 100 * time.Minute}
}

// catalogKey is everything a run's catalog depends on. newCatalog takes
// nothing else, so an Arena that remembers a catalog by its key can never
// hand back a stale one.
type catalogKey struct {
	titles    int
	x, y      float64
	class     workload.MediaClass
	blockSize units.Bytes
}

func catalogKeyFor(cfg Config, blockSize units.Bytes) catalogKey {
	return catalogKey{
		titles: cfg.Titles, x: cfg.X, y: cfg.Y,
		class: mediaClass(cfg.BitRate), blockSize: blockSize,
	}
}

// newCatalog lays the configured catalog out on the disk image.
func newCatalog(k catalogKey) (*workload.Catalog, error) {
	d := workload.XYDistribution{X: k.x, Y: k.y}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return workload.NewCatalog(k.titles, k.class, d.Weights(k.titles), k.blockSize)
}

func blocksFor(b units.Bytes, blockSize units.Bytes) int64 {
	n := int64(b / blockSize)
	if units.Bytes(n)*blockSize < b {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}
