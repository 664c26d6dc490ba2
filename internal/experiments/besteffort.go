package experiments

import (
	"fmt"
	"time"

	"memstream/internal/device"
	"memstream/internal/disk"
	"memstream/internal/plot"
	"memstream/internal/sim"
	"memstream/internal/tier"
	"memstream/internal/units"
)

func init() {
	register("besteffort",
		"Best-effort response time: MEMS vs disk (related work, §6)", runBestEffort)
}

// runBestEffort reproduces the claim the paper cites from Schlosser et
// al. ([16], discussed in its §6): serving best-effort data from MEMS
// instead of disk improves IO response time several-fold. We replay
// identical random small-IO batches against both device simulators under
// their respective seek-optimizing schedulers and compare response times
// (queue delay + service). Both devices replay the batch generated from
// the same seed, so the comparison is paired.
func runBestEffort(seed uint64) (Result, error) {
	sizes := []units.Bytes{4 * units.KB, 16 * units.KB, 64 * units.KB, 256 * units.KB}
	const batch = 64 // queued requests per run

	t := &plot.Table{
		Title: "Best-effort response time, 64-deep random batches",
		Headers: []string{"IO size", "disk mean", "disk p95", "MEMS mean",
			"MEMS p95", "mean speedup"},
	}
	for _, size := range sizes {
		diskMean, diskP95, err := responseDisk(size, batch, seed)
		if err != nil {
			return Result{}, err
		}
		memsMean, memsP95, err := responseMEMS(size, batch, seed)
		if err != nil {
			return Result{}, err
		}
		t.AddRow(
			size.String(),
			diskMean.Round(10*time.Microsecond).String(),
			diskP95.Round(10*time.Microsecond).String(),
			memsMean.Round(10*time.Microsecond).String(),
			memsP95.Round(10*time.Microsecond).String(),
			fmt.Sprintf("%.1fx", float64(diskMean)/float64(memsMean)),
		)
	}
	out := t.Render() +
		"\n[16] reports up to 3.5x IO response-time improvement from a MEMS cache\n" +
		"for best-effort data; the device simulators reproduce a several-fold\n" +
		"speedup from the order-of-magnitude positioning advantage.\n"
	return Result{Output: out}, nil
}

func responseDisk(size units.Bytes, batch int, seed uint64) (time.Duration, time.Duration, error) {
	d, err := disk.New(disk.FutureDisk())
	if err != nil {
		return 0, 0, err
	}
	s := disk.NewScheduler(d, disk.CLook)
	rng := sim.NewRNG(seed)
	blocks := int64(size / d.Geometry().BlockSize)
	if blocks < 1 {
		blocks = 1
	}
	for i := 0; i < batch; i++ {
		lbn := int64(rng.Float64() * float64(d.Geometry().Blocks-blocks))
		s.Enqueue(device.Request{Op: device.Read, Block: lbn, Blocks: blocks, Stream: i})
	}
	cs, err := s.DrainAll(0)
	if err != nil {
		return 0, 0, err
	}
	m, p := responseStats(cs)
	return m, p, nil
}

func responseMEMS(size units.Bytes, batch int, seed uint64) (time.Duration, time.Duration, error) {
	d, err := tier.New(curTier)
	if err != nil {
		return 0, 0, err
	}
	s := tier.NewScheduler(d, tier.SPTF)
	rng := sim.NewRNG(seed)
	blocks := int64(size / d.Geometry().BlockSize)
	if blocks < 1 {
		blocks = 1
	}
	for i := 0; i < batch; i++ {
		lbn := int64(rng.Float64() * float64(d.Geometry().Blocks-blocks))
		s.Enqueue(device.Request{Op: device.Read, Block: lbn, Blocks: blocks, Stream: i})
	}
	cs, err := s.DrainAll(0)
	if err != nil {
		return 0, 0, err
	}
	m, p := responseStats(cs)
	return m, p, nil
}

// responseStats returns the mean and p95 response time of a batch that
// was enqueued whole and drained from time 0: each request's response
// time is its completion's Finish.
func responseStats(cs []device.Completion) (time.Duration, time.Duration) {
	if len(cs) == 0 {
		return 0, 0
	}
	var total time.Duration
	res := sim.NewReservoir(4096, 1)
	for _, c := range cs {
		total += c.Finish
		res.Observe(c.Finish.Seconds())
	}
	p95, _ := res.Quantile(0.95) // cs is non-empty here
	return total / time.Duration(len(cs)), units.Seconds(p95)
}
