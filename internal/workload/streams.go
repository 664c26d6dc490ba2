package workload

import (
	"fmt"
	"time"

	"memstream/internal/sim"
	"memstream/internal/units"
)

// Stream is one active playback session.
type Stream struct {
	ID      int
	Title   *Title
	BitRate units.ByteRate // CBR drain rate (peak rate for VBR)
	Start   time.Duration  // session start (simulated)
	Offset  units.Bytes    // starting byte offset within the title
}

// Set is a population of concurrent streams.
type Set struct {
	Streams []Stream
}

// Generator draws stream populations from a catalog.
type Generator struct {
	Catalog *Catalog
	RNG     *sim.RNG
}

// NewGenerator returns a generator over cat seeded deterministically.
func NewGenerator(cat *Catalog, seed uint64) *Generator {
	return &Generator{Catalog: cat, RNG: sim.NewRNG(seed)}
}

// Draw produces n concurrent streams whose titles follow the catalog's
// popularity weights. Offsets are uniformly random within each title so a
// simulated steady state does not start with every stream at block 0.
func (g *Generator) Draw(n int) (*Set, error) { return g.DrawRange(0, n) }

// DrawRange is the partition-aware variant of Draw: it produces n streams
// whose IDs run firstID..firstID+n-1, so a sharded run can hand each
// partition its own generator (seeded independently) while keeping stream
// IDs globally unique across the merged population. DrawRange(0, n) is
// exactly Draw(n) — same RNG consumption, same titles and offsets.
func (g *Generator) DrawRange(firstID, n int) (*Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need a positive stream count")
	}
	if firstID < 0 {
		return nil, fmt.Errorf("workload: negative first stream ID %d", firstID)
	}
	set := &Set{Streams: make([]Stream, n)}
	for i := 0; i < n; i++ {
		t := g.Catalog.Pick(g.RNG)
		off := units.Bytes(g.RNG.Float64() * float64(t.Size))
		set.Streams[i] = Stream{
			ID:      firstID + i,
			Title:   t,
			BitRate: t.Class.BitRate,
			Offset:  off,
		}
	}
	return set, nil
}

// VBRTrace synthesizes a variable-bit-rate consumption trace around a mean
// rate: per-interval rates follow a truncated normal with the given
// coefficient of variation. The paper models VBR as CBR plus a memory
// cushion (its footnote 1); this trace generator quantifies that cushion
// in the VBR example and tests.
func VBRTrace(rng *sim.RNG, mean units.ByteRate, cv float64, intervals int) []units.ByteRate {
	out := make([]units.ByteRate, intervals)
	for i := range out {
		r := rng.Norm(float64(mean), cv*float64(mean))
		if r < 0.1*float64(mean) {
			r = 0.1 * float64(mean)
		}
		out[i] = units.ByteRate(r)
	}
	return out
}

// CushionFor returns the extra buffering needed to serve trace as if it
// were CBR at its mean: the maximum running excess of consumption over the
// mean-rate supply across the trace, with dt the interval length.
func CushionFor(trace []units.ByteRate, dt time.Duration) units.Bytes {
	var mean float64
	for _, r := range trace {
		mean += float64(r)
	}
	if len(trace) == 0 {
		return 0
	}
	mean /= float64(len(trace))
	var excess, maxExcess float64
	for _, r := range trace {
		excess += (float64(r) - mean) * dt.Seconds()
		if excess < 0 {
			excess = 0
		}
		if excess > maxExcess {
			maxExcess = excess
		}
	}
	return units.Bytes(maxExcess)
}
