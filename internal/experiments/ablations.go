package experiments

import (
	"fmt"
	"time"

	"memstream/internal/device"
	"memstream/internal/disk"
	"memstream/internal/model"
	"memstream/internal/plot"
	"memstream/internal/server"
	"memstream/internal/tier"
	"memstream/internal/units"
)

func init() {
	register("ablation-gss",
		"Ablation: GSS scheduler trade-off vs time-cycle vs MEMS buffer", runAblationGSS)
	register("ablation-edf",
		"Ablation: EDF vs time-cycle scheduling (simulated)", runAblationEDF)
	register("ablation-layout",
		"Ablation: MEMS data placement (contiguous vs interleaved)", runAblationLayout)
}

// runAblationGSS quantifies the paper's framing: scheduler-level resource
// trade-offs (GSS, citation [25]) cannot close the gap that MEMS hardware
// does. For a sweep of loads we compare total DRAM under time-cycle
// scheduling (Theorem 1), the DRAM-optimal GSS, and a 2-device MEMS
// buffer.
func runAblationGSS(uint64) (Result, error) {
	d := paperDisk()
	m := paperTier()
	minLat := units.Milliseconds(0.3 + 1.5) // track switch + avg rotation

	t := &plot.Table{
		Title: "Total DRAM: time-cycle vs optimal GSS vs 2xG3 MEMS buffer",
		Headers: []string{"load", "time-cycle", "GSS (best g)", "MEMS buffer",
			"GSS gain", "MEMS gain"},
	}
	loads := []model.StreamLoad{
		{N: 500, BitRate: 100 * units.KBPS},
		{N: 1000, BitRate: 100 * units.KBPS},
		{N: 2000, BitRate: 100 * units.KBPS},
		{N: 100, BitRate: 1 * units.MBPS},
		{N: 200, BitRate: 1 * units.MBPS},
	}
	for _, load := range loads {
		direct, err := model.DiskDirect(load, d)
		if err != nil {
			return Result{}, err
		}
		gss, err := model.OptimalGSS(load, d, minLat)
		if err != nil {
			return Result{}, err
		}
		cfg := model.BufferConfig{Load: load, Disk: d, Tier: m, K: 2, SizePerDevice: tierCapacity()}
		buffered, err := model.BufferPlan(cfg)
		if err != nil {
			return Result{}, err
		}
		t.AddRow(
			fmt.Sprintf("N=%d @ %v", load.N, load.BitRate),
			direct.TotalDRAM.String(),
			fmt.Sprintf("%v (g=%d)", gss.TotalDRAM, gss.Groups),
			buffered.TotalDRAM.String(),
			fmt.Sprintf("%.1fx", float64(direct.TotalDRAM)/float64(gss.TotalDRAM)),
			fmt.Sprintf("%.1fx", float64(direct.TotalDRAM)/float64(buffered.TotalDRAM)),
		)
	}
	out := t.Render() +
		"\nGSS trims DRAM by amortizing seeks inside sweep groups, but its gain\n" +
		"is bounded by the disk's own latency; the MEMS buffer replaces that\n" +
		"latency wholesale, which is the paper's point.\n"
	return Result{Output: out}, nil
}

// runAblationEDF contrasts the two real-time scheduler classes of the
// related work in simulation: same load, same IO sizes, different order.
func runAblationEDF(seed uint64) (Result, error) {
	var met Metrics
	arena := server.NewArena() // one per sweep: points reuse its storage, and the catalog while their key repeats
	t := &plot.Table{
		Title: "Time-cycle (C-LOOK order) vs EDF (deadline order), simulated",
		Headers: []string{"load", "scheduler", "underflows", "disk busy/IO",
			"disk util"},
	}
	for _, n := range []int{50, 100, 150} {
		for _, edf := range []bool{false, true} {
			cfg := server.Config{
				Mode: server.Direct, Disk: disk.FutureDisk(), Tier: curTier,
				K: 2, N: n, BitRate: 1 * units.MBPS, Titles: 100,
				X: 10, Y: 90, Seed: seed, UseEDF: edf,
				Duration: 10 * time.Second,
				Arena:    arena,
			}
			res, err := server.Run(cfg)
			if err != nil {
				return Result{}, err
			}
			met.addRun(res)
			name := "time-cycle"
			if edf {
				name = "EDF"
			}
			perIO := time.Duration(0)
			if res.DiskIOs > 0 {
				perIO = res.DiskBusy / time.Duration(res.DiskIOs)
			}
			t.AddRow(
				fmt.Sprintf("N=%d @ 1MB/s", n),
				name,
				fmt.Sprintf("%d", res.Underflows),
				perIO.Round(10*time.Microsecond).String(),
				fmt.Sprintf("%.2f", res.DiskUtil),
			)
		}
	}
	out := t.Render() +
		"\nBoth schedulers meet deadlines at feasible loads, but EDF's deadline\n" +
		"order forfeits the elevator's seek amortization — its per-IO busy time\n" +
		"is consistently higher, which is why the paper builds on the\n" +
		"time-cycle model (§3, §6).\n"
	return Result{Output: out, Metrics: met}, nil
}

// runAblationLayout measures the §7 placement policy on the MEMS device:
// positioning time for lock-step round-robin streaming under contiguous
// vs progress-interleaved layouts.
func runAblationLayout(uint64) (Result, error) {
	const n = 32
	const ioBytes = 1 * units.MB
	run := func(mk func(d tier.LayoutCapable) (tier.Layout, error)) (time.Duration, error) {
		d, err := tier.New(tier.MustLookup("mems-g3"))
		if err != nil {
			return 0, err
		}
		l, err := mk(d.(tier.LayoutCapable))
		if err != nil {
			return 0, err
		}
		chunk := int64(ioBytes / d.Geometry().BlockSize)
		var now, pos time.Duration
		for cycle := int64(0); cycle < 20; cycle++ {
			for s := 0; s < n; s++ {
				lbn, err := l.Map(s, cycle*chunk)
				if err != nil {
					return 0, err
				}
				if lbn+chunk > d.Geometry().Blocks {
					lbn = d.Geometry().Blocks - chunk
				}
				c, err := d.Service(now, device.Request{
					Op: device.Read, Block: lbn, Blocks: chunk, Stream: s,
				})
				if err != nil {
					return 0, err
				}
				pos += c.Position
				now = c.Finish
			}
		}
		return pos, nil
	}
	contig, err := run(func(d tier.LayoutCapable) (tier.Layout, error) { return d.ContiguousLayout(n) })
	if err != nil {
		return Result{}, err
	}
	inter, err := run(func(d tier.LayoutCapable) (tier.Layout, error) { return d.InterleavedLayout(n, ioBytes) })
	if err != nil {
		return Result{}, err
	}
	out := fmt.Sprintf(
		"MEMS data placement for %d lock-step streams, 1MB IOs, 20 cycles\n\n"+
			"  contiguous extents:     total positioning %v\n"+
			"  progress-interleaved:   total positioning %v  (%.1fx less)\n\n"+
			"Interleaving the j-th chunk of every stream into one stripe keeps the\n"+
			"sled's X excursions tiny under time-cycle service — the \"intelligent\n"+
			"placement\" direction of the paper's future work (§7).\n",
		n, contig.Round(time.Microsecond), inter.Round(time.Microsecond),
		float64(contig)/float64(inter))
	return Result{Output: out}, nil
}
