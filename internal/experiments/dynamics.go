package experiments

import (
	"fmt"
	"time"

	"memstream/internal/model"
	"memstream/internal/plot"
	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

func init() {
	register("dynamics",
		"Session dynamics: admission blocking at equal cost (our addition)", runDynamics)
}

// runDynamics extends the paper's steady-state evaluation with the
// teletraffic view: Poisson session arrivals with exponential holding
// times are offered to three equal-budget servers (direct, MEMS-buffered,
// MEMS-cached), each admitting sessions up to the capacity its plan
// supports. The MEMS configurations' larger capacity regions translate
// into lower blocking at equal offered load.
func runDynamics(seed uint64) (Result, error) {
	const budget = units.Dollars(100)
	bitRate := 100 * units.KBPS

	// Capacity regions at equal cost.
	direct := model.MaxStreamsDirect(bitRate, paperDisk(), paperCosts.DRAMFor(budget))
	bufCfg := model.BufferConfig{
		Load: model.StreamLoad{BitRate: bitRate},
		Disk: paperDisk(), Tier: paperTier(), K: 2, SizePerDevice: tierCapacity(),
	}
	buffered := model.MaxStreamsBuffered(bufCfg, paperCosts.DRAMFor(budget-paperCosts.BankCost(2)))
	cacheCfg := model.CacheConfig{
		Load: model.StreamLoad{N: 1, BitRate: bitRate},
		Disk: paperDisk(), Tier: paperTier(), K: 2, Policy: model.Striped,
		SizePerDevice: tierCapacity(), ContentSize: contentSize, X: 5, Y: 95,
	}
	cached := model.MaxStreamsCached(cacheCfg, paperCosts.DRAMFor(budget-paperCosts.BankCost(2)))

	t := &plot.Table{
		Title: fmt.Sprintf("Blocking probability, $%0.f budget, %v sessions (5:95 popularity for the cache)",
			float64(budget), bitRate),
		Headers: []string{"offered erlangs",
			fmt.Sprintf("direct (cap %d)", direct),
			fmt.Sprintf("buffered (cap %d)", buffered),
			fmt.Sprintf("cached (cap %d)", cached)},
	}
	const horizon = 6 * time.Hour
	loads := []float64{0.5, 1.0, 1.5, 2.0}
	process := func(offered float64) workload.SessionProcess {
		return workload.SessionProcess{
			ArrivalRate: offered * float64(direct) / 600, // hold = 600s
			MeanHold:    10 * time.Minute,
			BitRate:     bitRate,
		}
	}
	// One pass per offered load offers the same arrivals to all three
	// configurations; the pass and its stats are reused by every row.
	caps := []int{direct, buffered, cached}
	stats := make([]workload.AdmissionStats, len(caps))
	var pass workload.AdmissionPass
	for _, offered := range loads {
		if err := pass.Run(process(offered), sim.NewRNG(seed), horizon, caps, stats); err != nil {
			return Result{}, err
		}
		row := []string{fmt.Sprintf("%.1fx direct cap", offered)}
		for _, s := range stats {
			row = append(row, fmt.Sprintf("%.3f (avg %d busy)", s.BlockProb, int(s.AvgBusy)))
		}
		t.AddRow(row...)
	}
	out := t.Render() +
		"\nAt loads that saturate the direct server, the MEMS configurations'\n" +
		"larger capacity regions keep blocking near zero — the admission-control\n" +
		"consequence of the paper's throughput results.\n"
	return Result{Output: out}, nil
}
