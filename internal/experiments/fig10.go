package experiments

import (
	"fmt"

	"memstream/internal/model"
	"memstream/internal/plot"
	"memstream/internal/units"
	"memstream/internal/workload"
)

func init() {
	register("fig10", "Figure 10: throughput improvement vs number of MEMS cache devices", runFig10)
}

// runFig10 reproduces Figure 10: percentage improvement in server
// throughput as the striped MEMS cache grows from k=1 to 8 devices, at a
// fixed $100 buffering budget and 100KB/s streams. Each device caches 1%
// of the content (10GB of 1TB); each device's $10 displaces 500MB of DRAM.
func runFig10(uint64) (Result, error) {
	const budget = units.Dollars(100)
	const bitRate = 100 * units.KBPS
	base := directThroughput(bitRate, budget)
	if base <= 0 {
		return Result{}, fmt.Errorf("baseline server infeasible")
	}

	dists := workload.PaperDistributions()
	var series []plot.Series
	t := &plot.Table{
		Title:   "Throughput improvement (%) over the cache-less $100 server",
		Headers: []string{"k", "DRAM left"},
	}
	for _, dist := range dists {
		t.Headers = append(t.Headers, dist.String())
	}
	cells := map[float64][]plot.Point{}
	for k := 1; k <= 8; k++ {
		dram := paperCosts.DRAMFor(budget - paperCosts.BankCost(k))
		row := []string{
			fmt.Sprintf("%d", k),
			dram.String(),
		}
		for _, dist := range dists {
			n := cacheThroughput(bitRate, dist.X, dist.Y, budget, k, model.Striped)
			imp := 100 * (float64(n) - float64(base)) / float64(base)
			row = append(row, fmt.Sprintf("%+.0f%%", imp))
			cells[dist.X] = append(cells[dist.X], plot.Point{X: float64(k), Y: imp})
		}
		t.AddRow(row...)
	}
	for _, dist := range dists {
		series = append(series, plot.Series{
			Name:   dist.String(),
			Points: cells[dist.X],
		})
	}
	c := &plot.Chart{
		Title:  "Varying the size of the MEMS cache (striped, $100, 100KB/s)",
		XLabel: "Number of MEMS devices (k)",
		YLabel: "Improvement in throughput (%)",
		Series: series,
	}
	out := t.Render() + "\n" + c.Render() +
		"\nPaper behaviour: uniform 50:50 popularity always degrades throughput;\n" +
		"skewed distributions improve it (up to ≈2.4x), each with an optimal k (§5.2.4).\n"
	return Result{Output: out, Series: series}, nil
}
