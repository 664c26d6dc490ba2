package experiments

import (
	"fmt"

	"memstream/internal/model"
	"memstream/internal/plot"
	"memstream/internal/units"
	"memstream/internal/workload"
)

func init() {
	register("fig9a", "Figure 9(a): MEMS cache performance, average bit-rate 10KB/s", runFig9a)
	register("fig9b", "Figure 9(b): MEMS cache performance, average bit-rate 1MB/s", runFig9b)
}

// budgets are the three total buffering budgets of Figure 9 with their
// bank sizes: each added $10 G3 device displaces 500MB of $20/GB DRAM.
var budgets = []struct {
	total units.Dollars
	k     int
}{
	{50, 1}, {100, 2}, {200, 4},
}

// cacheThroughput returns the maximum streams for one Figure 9 cell.
func cacheThroughput(bitRate units.ByteRate, x, y float64, budget units.Dollars,
	k int, policy model.CachePolicy) int {

	dram := paperCosts.DRAMFor(budget - paperCosts.BankCost(k))
	if dram <= 0 {
		return 0
	}
	cfg := model.CacheConfig{
		Load:          model.StreamLoad{N: 1, BitRate: bitRate},
		Disk:          paperDisk(),
		Tier:          paperTier(),
		K:             k,
		Policy:        policy,
		SizePerDevice: tierCapacity(),
		ContentSize:   contentSize,
		X:             x,
		Y:             y,
	}
	return model.MaxStreamsCached(cfg, dram)
}

// directThroughput is the no-cache column: all the budget buys DRAM.
func directThroughput(bitRate units.ByteRate, budget units.Dollars) int {
	return model.MaxStreamsDirect(bitRate, paperDisk(), paperCosts.DRAMFor(budget))
}

func runFig9(bitRate units.ByteRate, label string) (Result, error) {
	t := &plot.Table{
		Title: fmt.Sprintf("MEMS cache performance, average bit-rate %s", label),
		Headers: []string{"Popularity", "Budget", "k", "w/o MEMS cache",
			"Replicated", "Striped"},
	}
	var series []plot.Series
	var wo, repl, stri []plot.Point
	dists := workload.PaperDistributions()
	for _, dist := range dists {
		for _, b := range budgets {
			none := directThroughput(bitRate, b.total)
			re := cacheThroughput(bitRate, dist.X, dist.Y, b.total, b.k, model.Replicated)
			st := cacheThroughput(bitRate, dist.X, dist.Y, b.total, b.k, model.Striped)
			t.AddRow(
				dist.String(),
				b.total.String(),
				fmt.Sprintf("%d", b.k),
				fmt.Sprintf("%d", none),
				fmt.Sprintf("%d", re),
				fmt.Sprintf("%d", st),
			)
			if b.total == 200 {
				xv := dist.X
				wo = append(wo, plot.Point{X: xv, Y: float64(none)})
				repl = append(repl, plot.Point{X: xv, Y: float64(re)})
				stri = append(stri, plot.Point{X: xv, Y: float64(st)})
			}
		}
	}
	series = append(series,
		plot.Series{Name: "w/o MEMS cache ($200)", Points: wo},
		plot.Series{Name: "replicated ($200, k=4)", Points: repl},
		plot.Series{Name: "striped ($200, k=4)", Points: stri},
	)
	// Grouped bars for the $200 budget, matching the paper's figure form.
	bars := &plot.BarChart{
		Title:  "Server throughput at $200 (k=4)",
		Series: []string{"w/o MEMS cache", "replicated", "striped"},
		Width:  46,
	}
	for i, dist := range dists {
		bars.Groups = append(bars.Groups, plot.BarGroup{
			Label:  dist.String(),
			Values: []float64{wo[i].Y, repl[i].Y, stri[i].Y},
		})
	}
	out := t.Render() + "\n" + bars.Render()
	out += "\nReading the table: for skewed popularity (1:99 … 10:90) both cache\n" +
		"policies beat the cache-less server; toward uniform (50:50) the cache\n" +
		"cannot pay for itself (§5.2.1). Replication wins at 1:99 via its lower\n" +
		"effective latency; striping catches up as more distinct content must\n" +
		"be cached.\n"
	return Result{Output: out, Series: series}, nil
}

func runFig9a(uint64) (Result, error) { return runFig9(10*units.KBPS, "10KB/s") }

func runFig9b(uint64) (Result, error) { return runFig9(1*units.MBPS, "1MB/s") }
