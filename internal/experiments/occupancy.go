package experiments

import (
	"fmt"

	"memstream/internal/disk"
	"memstream/internal/model"
	"memstream/internal/plot"
	"memstream/internal/server"
	"memstream/internal/units"
)

func init() {
	register("occupancy",
		"Per-cycle dynamics: DRAM occupancy and device queues from the run-core probe (our addition)", runOccupancy)
}

// runOccupancy exercises the run-core's observability probe: the direct
// and MEMS-cached servers run with tracing on, and the per-cycle samples
// become occupancy and queue-depth series. The steady-state experiments
// report end-of-run scalars; this one shows the transient — buffers
// priming over the first cycle, occupancy flattening once supply and
// consumption balance, and the per-cycle IO batches draining inside each
// cycle (the cycle-level behaviour Figures 2 and 3 argue from).
func runOccupancy(seed uint64) (Result, error) {
	var met Metrics
	var out string
	var series []plot.Series

	runs := []struct {
		label string
		cfg   server.Config
	}{
		{"direct 50x1MB/s", server.Config{
			Mode: server.Direct, Disk: disk.FutureDisk(),
			N: 50, BitRate: 1 * units.MBPS,
			Titles: 50, X: 10, Y: 90, Seed: seed, Trace: true,
		}},
		{"mems-cache 400x100KB/s", server.Config{
			Mode: server.Cached, Disk: disk.FutureDisk(), Tier: curTier,
			K: 2, CachePolicy: model.Striped,
			N: 400, BitRate: 100 * units.KBPS,
			Titles: 200, X: 10, Y: 90, Seed: seed, Trace: true,
		}},
	}
	arena := server.NewArena() // one per sweep: points reuse its storage, and the catalog while their key repeats
	for _, rc := range runs {
		rc.cfg.Arena = arena
		res, err := server.Run(rc.cfg)
		if err != nil {
			return Result{}, fmt.Errorf("%s: %w", rc.label, err)
		}
		met.addRun(res)

		occ := plot.Series{Name: rc.label + " DRAM MB"}
		queue := plot.Series{Name: rc.label + " max queue"}
		var hits uint64
		for _, s := range res.Trace.Samples {
			at := s.At.Seconds()
			occ.Points = append(occ.Points, plot.Point{X: at, Y: float64(s.DRAMInUse) / 1e6})
			maxQ := 0
			for _, d := range s.Devices {
				if d.Queue > maxQ {
					maxQ = d.Queue
				}
			}
			queue.Points = append(queue.Points, plot.Point{X: at, Y: float64(maxQ)})
			hits += s.CacheFillsDelta
		}
		series = append(series, occ, queue)

		c := &plot.Chart{
			Title:  fmt.Sprintf("%s: DRAM occupancy over %d cycle samples", rc.label, len(res.Trace.Samples)),
			XLabel: "simulated seconds",
			YLabel: "DRAM in use (MB)",
		}
		c.Add("occupancy", occ.Points)
		out += c.Render() + "\n"
		out += fmt.Sprintf("%-24s samples=%d high-water=%v underflows=%d cache-fills=%d\n\n",
			rc.label, len(res.Trace.Samples), res.DRAMHighWater, res.Underflows, hits)
	}
	out += "The probe samples inside each scheduling cycle: occupancy climbs while\n" +
		"the cycle's IO batch fills buffers faster than playback drains them, then\n" +
		"decays until the next cycle — the sawtooth Theorem 1 provisions for.\n"
	res := Result{Output: out, Series: series}
	res.Metrics = met
	return res, nil
}
