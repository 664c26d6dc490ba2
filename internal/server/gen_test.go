package server

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"memstream/internal/disk"
	"memstream/internal/model"
	"memstream/internal/sim"
	"memstream/internal/tier"
	"memstream/internal/units"
)

// genTiers and genRates are the middle tiers and stream rates genConfig
// draws from: the paper's sled, an older and a flat one; Table 1's four
// media rates and one between DivX and DVD.
var (
	genTiers = []string{"mems-g3", "mems-g3", "mems-g1", "nvm-optane", "ssd-sata"}
	genRates = []units.ByteRate{16 * units.KBPS, 100 * units.KBPS, 300 * units.KBPS, 625 * units.KBPS, 2500 * units.KBPS}
)

// genConfig draws one Config from rng. Most draws set only what their
// mode honours; about one in five then breaks one rule validate enforces
// (refused reports that). A valid draw covers every mode, the EDF
// baseline, both cache policies, VBR with and without its cushion,
// pauses, recorders, best effort, N, K, CacheDevices, the tier, the
// stream rate and the horizon.
func genConfig(rng *sim.RNG) (cfg Config, refused bool) {
	cfg = Config{
		Mode:    Mode(rng.Intn(4)),
		Disk:    disk.FutureDisk(),
		Tier:    tier.MustLookup(genTiers[rng.Intn(len(genTiers))]),
		N:       1 + rng.Intn(48),
		BitRate: genRates[rng.Intn(len(genRates))],
		Titles:  10 + rng.Intn(60),
		Seed:    rng.Uint64(),
	}
	if rng.Intn(4) == 0 {
		cfg.Disk = disk.Atlas10K3()
	}
	if rng.Intn(3) == 0 {
		cfg.X = float64(1 + rng.Intn(49))
		cfg.Y = 100 - cfg.X
	}
	if rng.Intn(3) == 0 {
		cfg.Duration = time.Duration(1+rng.Intn(20)) * time.Second
	}
	cfg.FirstStreamID = rng.Intn(2) * rng.Intn(1000)
	switch cfg.Mode {
	case Direct:
		switch rng.Intn(4) {
		case 0:
			cfg.UseEDF = true
		case 1:
			cfg.PausedFraction = 0.1 + 0.6*rng.Float64()
		case 2:
			cfg.VBRCoV = 0.1 + 0.3*rng.Float64()
			cfg.NoCushion = rng.Intn(4) == 0
		}
	case Buffered:
		cfg.K = 1 + rng.Intn(4)
		if rng.Intn(3) == 0 {
			cfg.Writers = rng.Intn(cfg.N + 1)
		}
		cfg.BestEffort = rng.Intn(3) == 0
		if rng.Intn(3) == 0 {
			cfg.VBRCoV = 0.1 + 0.3*rng.Float64()
			cfg.NoCushion = rng.Intn(4) == 0
		}
	case Cached:
		cfg.K = 1 + rng.Intn(4)
		cfg.CachePolicy = model.CachePolicy(rng.Intn(2))
	case Hybrid:
		cfg.K = 2 + rng.Intn(3)
		cfg.CacheDevices = 1 + rng.Intn(cfg.K-1)
		cfg.CachePolicy = model.CachePolicy(rng.Intn(2))
	}
	if rng.Intn(5) != 0 {
		return cfg, false
	}
	switch rng.Intn(10) {
	case 0:
		cfg.Mode = Hybrid + 1 + Mode(rng.Intn(3))
	case 1:
		cfg.N = -rng.Intn(3)
	case 2:
		cfg.BitRate = -units.ByteRate(rng.Intn(2)) * units.KBPS
	case 3:
		cfg.FirstStreamID = -1 - rng.Intn(10)
	case 4:
		cfg.Writers = cfg.N + 1 + rng.Intn(3)
	case 5: // an option the mode ignores
		if cfg.Mode == Buffered {
			cfg.PausedFraction = 0.5
		} else {
			cfg.BestEffort = true
		}
	case 6:
		if cfg.Mode == Direct {
			cfg.CacheDevices = 1
		} else {
			cfg.K = -rng.Intn(2)
		}
	case 7:
		if cfg.Mode == Cached || cfg.Mode == Hybrid {
			cfg.VBRCoV = 0.2
		} else {
			cfg.CachePolicy = model.Replicated
		}
	case 8:
		if cfg.Mode == Hybrid {
			cfg.CacheDevices = cfg.K + rng.Intn(2)
		} else {
			cfg.Writers = 1 + rng.Intn(cfg.N)
			cfg.Mode = Cached
		}
	default:
		if cfg.Mode == Direct {
			cfg.UseEDF, cfg.PausedFraction = true, 0.3
		} else {
			cfg.UseEDF = true
		}
	}
	return cfg, true
}

// errPanicked marks the error genRun makes of a panic.
var errPanicked = errors.New("panicked")

// genRun runs cfg as Run does — time-cycle modes through newCycleRun and
// run, so the rig's pool is still there to read at the end — and turns a
// panic into an errPanicked error. pool is the pool's running total minus the sum of
// the streams' levels at run end: 0 when the pool accounts every byte.
func genRun(cfg Config) (res Result, pool units.Bytes, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", errPanicked, p)
		}
	}()
	if err = validate(&cfg); err != nil {
		return res, 0, err
	}
	if cfg.UseEDF {
		res, err = runEDF(cfg)
		return res, 0, err
	}
	m, err := newCycleRun(cfg)
	if err != nil {
		return res, 0, err
	}
	res = m.run()
	ps := &m.r.ar.ps
	pool = ps.used
	for _, l := range ps.level {
		pool -= l
	}
	return res, pool, nil
}

// genExempt names the known defects the generator's invariants would
// otherwise report, each keyed to the one check it excuses and deleted by
// the change that fixes it.
var genExempt = map[string]struct {
	check string
	holds func(cfg Config, res Result) bool
}{
	// F13: a device books a whole IO when it dispatches it, so an EDF
	// run's disk is busy past the horizon and DiskUtil passes 1.
	"F13": {"DiskUtil in [0, 1]", func(cfg Config, res Result) bool { return cfg.UseEDF && res.DiskUtil > 1 }},
}

// TestGeneratedConfigsHoldInvariants runs a few hundred seeded configs
// from genConfig. Every refused draw must return an error; no draw may
// panic. Every run that completes must report utilizations in [0, 1],
// no negative count, underflow bytes exactly when there are underflows,
// FromCache + FromDisk = N in the time-cycle modes, and a DRAM pool
// whose running total is the sum of the streams' levels.
func TestGeneratedConfigsHoldInvariants(t *testing.T) {
	const draws = 400
	rng := sim.NewRNG(26)
	arena := NewArena()
	var accepted, infeasible [Hybrid + 1]int
	noMisses := 0
	exempted := map[string]int{}
	for i := 0; i < draws; i++ {
		cfg, refused := genConfig(rng)
		cfg.Arena = arena
		res, pool, err := genRun(cfg)
		desc := fmt.Sprintf("draw %d (%v EDF=%v on %s/%s, N=%d K=%d cache=%d %v, writers=%d BE=%v VBR=%.2f/%v paused=%.2f, %v, horizon %v, X:Y %v:%v)",
			i, cfg.Mode, cfg.UseEDF, cfg.Disk.Name, cfg.Tier.Name, cfg.N, cfg.K, cfg.CacheDevices, cfg.CachePolicy,
			cfg.Writers, cfg.BestEffort, cfg.VBRCoV, cfg.NoCushion, cfg.PausedFraction, cfg.BitRate, cfg.Duration, cfg.X, cfg.Y)
		if err != nil {
			switch verr := validate(&cfg); {
			case errors.Is(err, errPanicked):
				t.Errorf("%s: %v", desc, err)
			case refused && verr == nil:
				t.Errorf("%s: validate accepted a config it must refuse (the run then failed: %v)", desc, err)
			case refused:
			case verr != nil:
				t.Errorf("%s: validate refused a config drawn valid: %v", desc, verr)
			case errors.Is(err, model.ErrInfeasible):
				infeasible[cfg.Mode]++
			case errors.Is(err, errNoMisses):
				noMisses++
			default:
				t.Errorf("%s: a config drawn valid failed: %v", desc, err)
			}
			continue
		}
		if refused {
			t.Errorf("%s: validate accepted a config it must refuse", desc)
			continue
		}
		accepted[cfg.Mode]++
		for _, c := range []struct {
			name string
			ok   bool
		}{
			{"DiskUtil in [0, 1]", res.DiskUtil >= 0 && res.DiskUtil <= 1},
			{"MEMSUtil in [0, 1]", res.MEMSUtil >= 0 && res.MEMSUtil <= 1},
			{"no negative count", res.Streams == cfg.N && res.Cycles >= 0 && res.Underflows >= 0 &&
				res.UnderflowBytes >= 0 && res.DRAMHighWater >= 0 && res.PlannedDRAM >= 0 &&
				res.DiskBusy >= 0 && res.MEMSBusy >= 0 && res.FromCache >= 0 && res.FromDisk >= 0 &&
				res.WriterPeakDRAM >= 0 && res.BestEffortBytes >= 0},
			{"Underflows == 0 ⇔ UnderflowBytes == 0", (res.Underflows == 0) == (res.UnderflowBytes == 0)},
			{"FromCache + FromDisk == N", cfg.UseEDF || res.FromCache+res.FromDisk == cfg.N},
			// Bytes are float64s and the pool total is a running sum, so
			// it and Σ level round apart; a fill or drain booked on one
			// side only moves them a block or a drain's worth apart.
			{"pool total == Σ level", math.Abs(float64(pool)) < 1},
		} {
			if c.ok {
				continue
			}
			known := ""
			for name, e := range genExempt {
				if e.check == c.name && e.holds(cfg, res) {
					known = name
				}
			}
			if known == "" {
				t.Errorf("%s fails in %s: DiskUtil %.4f MEMSUtil %.4f underflows %d (%v) from cache/disk %d/%d, pool − Σ level = %g B",
					c.name, desc, res.DiskUtil, res.MEMSUtil, res.Underflows, res.UnderflowBytes, res.FromCache, res.FromDisk, pool)
			}
			exempted[known]++
		}
	}
	for mode, n := range accepted {
		if n < draws/20 {
			t.Errorf("only %d accepted %v runs of %d draws: the sweep has gone thin", n, Mode(mode), draws)
		}
	}
	t.Logf("accepted runs by mode %v; valid draws the model finds infeasible by mode %v; hybrid draws the cache pins whole %d; exempted failures %v",
		accepted, infeasible, noMisses, exempted)
}
