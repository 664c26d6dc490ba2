package experiments

import (
	"fmt"
	"time"

	"memstream/internal/disk"
	"memstream/internal/model"
	"memstream/internal/plot"
	"memstream/internal/server"
	"memstream/internal/tier"
	"memstream/internal/units"
)

func init() {
	register("tiercompare",
		"MEMS-as-published vs NVM/SSD middle tiers (our addition)", runTierCompare)
}

// runTierCompare asks the question the tier abstraction exists to answer:
// does the paper's buffered-hierarchy argument survive swapping the MEMS
// middle tier for hardware that actually shipped? For each built-in
// parameter set we size the smallest feasible bank for the paper's DVD
// operating point (Theorem 2), price the hierarchy against direct
// disk→DRAM service (Eq 1/2/9), and then run the discrete-event buffered
// server with that bank to confirm the plan holds (no underflows).
func runTierCompare(seed uint64) (Result, error) {
	const n = 150
	bitRate := 1 * units.MBPS
	d := paperDisk()
	load := model.StreamLoad{N: n, BitRate: bitRate}
	direct, err := model.DiskDirect(load, d)
	if err != nil {
		return Result{}, err
	}
	directCost := paperCosts.DRAMCost(direct.TotalDRAM)

	t := &plot.Table{
		Title: fmt.Sprintf(
			"%d DVD streams, buffered hierarchy per middle tier (direct DRAM: %v, %v)",
			n, direct.TotalDRAM, directCost),
		Headers: []string{"tier", "R", "Lmax", "k", "DRAM", "cost", "$/stream",
			"max N (1GB)", "underflows", "tier util"},
	}
	var met Metrics
	arena := server.NewArena() // one per sweep: points reuse its storage, and the catalog while their key repeats
	for _, name := range []string{"mems-g3", "nvm-optane", "ssd-sata", "disk-future"} {
		p := tier.MustLookup(name)
		spec := model.DeviceSpec{Rate: p.Rate, Latency: p.MaxLatency}
		costs := model.NewCostModel(20, p.CostPerGB, p.Capacity)

		cfg := model.BufferConfig{Load: load, Disk: d, Tier: spec, SizePerDevice: p.Capacity}
		k, plan, err := model.MinFeasibleK(cfg, 2, 64)
		if err != nil {
			t.AddRow(name, p.Rate.String(), p.MaxLatency.String(),
				"-", "-", "infeasible", "-", "-", "-", "-")
			continue
		}
		cfg.K = k
		maxN := model.MaxStreamsBuffered(cfg, 1*units.GB)
		total := units.Dollars(float64(costs.TierBankCost(0, k)) +
			float64(costs.DRAMCost(plan.TotalDRAM)))

		scfg := server.Config{
			Mode: server.Buffered, Disk: disk.FutureDisk(), Tier: p,
			K: k, N: n, BitRate: bitRate, Titles: 100,
			X: 10, Y: 90, Seed: seed,
			Duration: 10 * time.Second,
			Arena:    arena,
		}
		res, err := server.Run(scfg)
		if err != nil {
			return Result{}, fmt.Errorf("tiercompare %s: %w", name, err)
		}
		met.addRun(res)

		t.AddRow(name, p.Rate.String(),
			p.MaxLatency.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", k), plan.TotalDRAM.String(), total.String(),
			fmt.Sprintf("%.2f", float64(total)/n),
			fmt.Sprintf("%d", maxN),
			fmt.Sprintf("%d", res.Underflows),
			fmt.Sprintf("%.2f", res.MEMSUtil))
	}
	out := t.Render() +
		"\nThe hierarchy argument is about the parameter point, not the device:\n" +
		"any middle tier that is an order of magnitude cheaper than DRAM with\n" +
		"disk-class streaming bandwidth buys the same DRAM displacement the\n" +
		"paper claims for MEMS (footnote 2). Optane-class NVM lands near the\n" +
		"published G3 point; SATA-class flash is cheaper still but its lower\n" +
		"bandwidth forces a wider bank; a second disk as \"buffer\" needs no\n" +
		"new technology but burns its savings on mechanical latency DRAM.\n"
	return Result{Output: out, Metrics: met}, nil
}
