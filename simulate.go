package memstream

import (
	"time"

	"memstream/internal/disk"
	"memstream/internal/experiments"
	"memstream/internal/server"
	"memstream/internal/tier"
	"memstream/internal/units"
)

// Architecture selects the simulated server organization; its String
// names it ("direct", "mems-buffer", "mems-cache", "mems-hybrid").
type Architecture = server.Mode

// Architectures.
const (
	// DirectServer streams straight from disk to DRAM.
	DirectServer = server.Direct
	// BufferedServer stages every disk IO through a MEMS bank.
	BufferedServer = server.Buffered
	// CachedServer serves popular titles from a MEMS cache.
	CachedServer = server.Cached
	// HybridServer splits the bank between caching and buffering (the
	// paper's §7 future-work configuration).
	HybridServer = server.Hybrid
)

// SimConfig describes one discrete-event simulation run. Devices are
// selected by name from the built-in catalogs to keep the simulation
// entry point self-contained; zero values select the paper's 2007
// defaults (FutureDisk, G3 MEMS, k=2, 10:90 popularity over 100 titles).
type SimConfig struct {
	Architecture Architecture
	Streams      int
	BitRate      float64 // bytes per second
	MEMSDevices  int
	// Tier selects the middle-tier parameter set by registry name
	// ("mems-g1".."mems-g3", "nvm-optane", "ssd-sata", "disk-future");
	// empty selects the paper's G3 MEMS.
	Tier string
	// CacheDevices is the cache share of the bank for HybridServer
	// (defaults to MEMSDevices/2).
	CacheDevices int
	// CachePolicy spreads the cached titles over the cache devices
	// (CachedServer and HybridServer; Replicated is refused elsewhere).
	CachePolicy CachePolicy
	Titles      int
	PopularityX float64
	PopularityY float64

	// Writers marks that many of the streams as recorders (BufferedServer
	// only) — the write-stream extension of §3.1.
	Writers int
	// UseEDF runs the DirectServer under earliest-deadline-first instead
	// of time-cycle scheduling.
	UseEDF bool
	// VBRCoV makes DirectServer playback variable-bit-rate with this
	// coefficient of variation, handled as CBR + cushion (footnote 1).
	VBRCoV float64
	// BestEffort adds low-priority background reads that soak up the
	// MEMS bank's spare bandwidth (BufferedServer, §3.1.2).
	BestEffort bool
	// PausedFraction makes DirectServer playback interactive: this
	// fraction of stream-time is spent paused, with the scheduler
	// reclaiming the skipped IOs' bandwidth.
	PausedFraction float64

	Duration time.Duration // 0 = a few IO cycles
	Seed     uint64
}

// SimResult reports a run's measured behaviour.
type SimResult struct {
	Architecture  Architecture
	Streams       int
	SimulatedTime time.Duration

	// Underflows counts playback intervals that found an empty buffer;
	// UnderflowBytes is the total missed data.
	Underflows     int
	UnderflowBytes float64

	// PlannedDRAMBytes is the model's N·S; PeakDRAMBytes is the measured
	// high-water occupancy.
	PlannedDRAMBytes float64
	PeakDRAMBytes    float64

	// Utilization of the devices over the run.
	DiskUtilization float64
	MEMSUtilization float64

	// IO counts.
	DiskIOs uint64
	MEMSIOs uint64

	// FromCache/FromDisk split the population in CachedServer runs.
	FromCache, FromDisk int

	// WriterPeakDRAMBytes is the largest backlog a recorder held while
	// its data was being staged (runs with Writers > 0).
	WriterPeakDRAMBytes float64

	// BestEffortBytes is the non-real-time data moved in spare bank
	// bandwidth (runs with BestEffort).
	BestEffortBytes float64
}

// Simulate executes one run of the full server simulator.
func Simulate(cfg SimConfig) (SimResult, error) {
	scfg, err := cfg.serverConfig()
	if err != nil {
		return SimResult{}, err
	}
	res, err := server.Run(scfg)
	if err != nil {
		return SimResult{}, err
	}
	return simResult(res), nil
}

// serverConfig maps the run onto the simulator's Config. The root
// package fixes the disk (FutureDisk) and leaves FirstStreamID,
// NoCushion, Trace and Arena at their zero values.
func (cfg SimConfig) serverConfig() (server.Config, error) {
	k := cfg.MEMSDevices
	if k == 0 {
		k = 2
	}
	tierName := cfg.Tier
	if tierName == "" {
		tierName = tier.Default
	}
	spec, err := tier.Lookup(tierName)
	if err != nil {
		return server.Config{}, err
	}
	cacheDevs := cfg.CacheDevices
	if cfg.Architecture == HybridServer && cacheDevs == 0 {
		cacheDevs = k / 2
	}
	return server.Config{
		Mode:           cfg.Architecture,
		Disk:           disk.FutureDisk(),
		Tier:           spec,
		K:              k,
		CacheDevices:   cacheDevs,
		CachePolicy:    cfg.CachePolicy,
		N:              cfg.Streams,
		Writers:        cfg.Writers,
		BitRate:        units.ByteRate(cfg.BitRate),
		Titles:         cfg.Titles,
		X:              cfg.PopularityX,
		Y:              cfg.PopularityY,
		UseEDF:         cfg.UseEDF,
		VBRCoV:         cfg.VBRCoV,
		BestEffort:     cfg.BestEffort,
		PausedFraction: cfg.PausedFraction,
		Duration:       cfg.Duration,
		Seed:           cfg.Seed,
	}, nil
}

// simResult reports a simulator Result in the root package's terms.
func simResult(res server.Result) SimResult {
	return SimResult{
		Architecture:        res.Mode,
		Streams:             res.Streams,
		SimulatedTime:       res.SimulatedTime,
		Underflows:          res.Underflows,
		UnderflowBytes:      float64(res.UnderflowBytes),
		PlannedDRAMBytes:    float64(res.PlannedDRAM),
		PeakDRAMBytes:       float64(res.DRAMHighWater),
		DiskUtilization:     res.DiskUtil,
		MEMSUtilization:     res.MEMSUtil,
		DiskIOs:             res.DiskIOs,
		MEMSIOs:             res.MEMSIOs,
		FromCache:           res.FromCache,
		FromDisk:            res.FromDisk,
		WriterPeakDRAMBytes: float64(res.WriterPeakDRAM),
		BestEffortBytes:     float64(res.BestEffortBytes),
	}
}

// Experiments lists the IDs of the paper artifacts this library can
// regenerate (tables, figures, and the validation run).
func Experiments() []string { return experiments.IDs() }

// ExperimentTitle returns an experiment's display title.
func ExperimentTitle(id string) (string, bool) { return experiments.Title(id) }

// RunExperiment regenerates one paper artifact and returns its rendered
// text output.
func RunExperiment(id string) (string, error) {
	res, err := experiments.Run(id)
	if err != nil {
		return "", err
	}
	return res.Output, nil
}
