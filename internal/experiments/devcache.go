package experiments

import (
	"fmt"
	"time"

	"memstream/internal/device"
	"memstream/internal/plot"
	"memstream/internal/sim"
	"memstream/internal/tier"
	"memstream/internal/units"
)

func init() {
	register("ablation-devcache",
		"Ablation: on-device caches help best-effort, not streaming (§3, §6)", runAblationDevCache)
}

// runAblationDevCache demonstrates the distinction the paper draws between
// workload classes (§6): best-effort data has temporal locality that
// traditional caches exploit, streaming data does not. We run two access
// patterns against a G3 device with and without its on-device cache:
//
//   - a best-effort pattern with an 80/20 re-reference mix, where the
//     cache absorbs re-reads;
//   - a streaming pattern (sequential per-stream, round-robin), where
//     every access is new data and the cache never hits.
func runAblationDevCache(seed uint64) (Result, error) {
	const accesses = 2000
	t := &plot.Table{
		Title:   "G3 MEMS with a 16MB on-device cache: per-access mean service time",
		Headers: []string{"workload", "no cache", "with cache", "hit ratio", "speedup"},
	}

	bePlain, _, err := runPattern(false, false, accesses, seed)
	if err != nil {
		return Result{}, err
	}
	beCached, beHits, err := runPattern(false, true, accesses, seed)
	if err != nil {
		return Result{}, err
	}
	t.AddRow("best-effort (80/20 re-reads)",
		bePlain.Round(time.Microsecond).String(),
		beCached.Round(time.Microsecond).String(),
		fmt.Sprintf("%.2f", beHits),
		fmt.Sprintf("%.1fx", float64(bePlain)/float64(beCached)))

	stPlain, _, err := runPattern(true, false, accesses, seed)
	if err != nil {
		return Result{}, err
	}
	stCached, stHits, err := runPattern(true, true, accesses, seed)
	if err != nil {
		return Result{}, err
	}
	t.AddRow("streaming (sequential, no re-reads)",
		stPlain.Round(time.Microsecond).String(),
		stCached.Round(time.Microsecond).String(),
		fmt.Sprintf("%.2f", stHits),
		fmt.Sprintf("%.2fx", float64(stPlain)/float64(stCached)))

	out := t.Render() +
		"\nThe on-device cache (assumed by §3) pays off only where accesses\n" +
		"repeat; streaming consumes each byte once, which is why the paper\n" +
		"positions MEMS as a *buffer/cache layer sized for whole streams*\n" +
		"rather than relying on traditional block caching (§6, [18]).\n"
	return Result{Output: out}, nil
}

// runPattern measures mean service time and cache hit ratio for one
// workload shape.
func runPattern(streaming, cached bool, accesses int, seed uint64) (time.Duration, float64, error) {
	dev, err := tier.New(curTier)
	if err != nil {
		return 0, 0, err
	}
	d, ok := dev.(interface {
		tier.Device
		tier.Cacheable
	})
	if !ok {
		return 0, 0, fmt.Errorf("tier %s has no on-device cache support", curTier.Name)
	}
	if cached {
		if err := d.EnableCache(16*units.MB, 1*units.GBPS); err != nil {
			return 0, 0, err
		}
	}
	rng := sim.NewRNG(seed)
	const blocks = 128 // 64KB accesses
	g := d.Geometry()

	// Hot set for the best-effort pattern: 64 extents re-read 80% of the
	// time (classic 80/20).
	hot := make([]int64, 64)
	for i := range hot {
		hot[i] = int64(rng.Float64() * float64(g.Blocks-blocks))
	}
	// Streaming pattern state: 16 sequential streams served round-robin.
	streams := make([]int64, 16)
	for i := range streams {
		streams[i] = int64(rng.Float64() * float64(g.Blocks-blocks*int64(accesses)))
		if streams[i] < 0 {
			streams[i] = 0
		}
	}

	var now time.Duration
	for i := 0; i < accesses; i++ {
		var lbn int64
		if streaming {
			s := i % len(streams)
			lbn = streams[s]
			streams[s] += blocks
			if streams[s]+blocks > g.Blocks {
				streams[s] = 0
			}
		} else if rng.Float64() < 0.8 {
			lbn = hot[rng.Intn(len(hot))]
		} else {
			lbn = int64(rng.Float64() * float64(g.Blocks-blocks))
		}
		c, err := d.Service(now, device.Request{Op: device.Read, Block: lbn, Blocks: blocks})
		if err != nil {
			return 0, 0, err
		}
		now = c.Finish
	}
	hitRatio := 0.0
	if d.Cache() != nil {
		hitRatio = d.Cache().HitRatio()
	}
	return d.BusyTime() / time.Duration(accesses), hitRatio, nil
}
