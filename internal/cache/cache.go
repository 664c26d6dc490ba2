// Package cache plans the contents of a MEMS multimedia cache: which
// titles to pin (popularity-ranked prefix placement, refreshed offline
// during service downtime — paper §3.2) and how a bank splits between
// buffering and caching. The tests compare the placement against an LRU
// baseline (traditional caching suits best-effort data, not streaming).
package cache

import (
	"fmt"
	"sort"

	"memstream/internal/model"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// Placement is a planned cache image: the set of pinned titles.
type Placement struct {
	Titles   []int // title IDs, most popular first
	Used     units.Bytes
	Capacity units.Bytes
	Fraction float64 // p: fraction of the catalog held
}

// Plan chooses the most popular prefix of the catalog that fits in
// capacity. Titles must be popularity-ranked (workload.NewCatalog output);
// Plan re-sorts defensively by Rank.
func Plan(cat *workload.Catalog, capacity units.Bytes) (*Placement, error) {
	if cat == nil || len(cat.Titles) == 0 {
		return nil, fmt.Errorf("cache: empty catalog")
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: non-positive capacity %v", capacity)
	}
	ranked := make([]workload.Title, len(cat.Titles))
	copy(ranked, cat.Titles)
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].Rank < ranked[j].Rank })

	p := &Placement{Capacity: capacity}
	for _, t := range ranked {
		if p.Used+t.Size > capacity {
			break
		}
		p.Titles = append(p.Titles, t.ID)
		p.Used += t.Size
	}
	total := cat.TotalSize()
	if total > 0 {
		p.Fraction = float64(p.Used) / float64(total)
	}
	return p, nil
}

// Contains reports whether a title is pinned.
func (p *Placement) Contains(titleID int) bool {
	for _, id := range p.Titles {
		if id == titleID {
			return true
		}
	}
	return false
}

// HybridSplit is the paper's future-work configuration (§7): part of the
// MEMS bank buffers disk IOs, the rest caches popular titles.
type HybridSplit struct {
	BufferBytes units.Bytes
	CacheBytes  units.Bytes
	Streams     int // total streams sustained at this split
}

// PlanHybrid searches the buffer/cache split of a k-device bank (in
// per-device-capacity steps) that maximizes sustained streams for the
// given DRAM budget, popularity and catalog. Devices are whole units: j
// devices cache (striped), k−j devices buffer.
func PlanHybrid(k int, perDevice units.Bytes, disk, memsSpec model.DeviceSpec,
	bitRate units.ByteRate, contentSize units.Bytes, x, y float64,
	dram units.Bytes) (HybridSplit, error) {

	if k <= 0 || perDevice <= 0 {
		return HybridSplit{}, fmt.Errorf("cache: bad bank (k=%d, per-device %v)", k, perDevice)
	}
	best := HybridSplit{}
	for j := 0; j <= k; j++ { // j devices cache, k-j buffer
		n := hybridStreams(j, k-j, perDevice, disk, memsSpec, bitRate, contentSize, x, y, dram)
		if n > best.Streams {
			best = HybridSplit{
				BufferBytes: perDevice.Mul(float64(k - j)),
				CacheBytes:  perDevice.Mul(float64(j)),
				Streams:     n,
			}
		}
	}
	if best.Streams == 0 {
		return best, fmt.Errorf("%w: no split of %d devices sustains any stream",
			model.ErrInfeasible, k)
	}
	return best, nil
}

// hybridStreams returns the max streams for a fixed split: cache absorbs
// hits; the disk side (optionally MEMS-buffered) carries the misses.
func hybridStreams(cacheK, bufK int, perDevice units.Bytes, disk, memsSpec model.DeviceSpec,
	bitRate units.ByteRate, contentSize units.Bytes, x, y float64, dram units.Bytes) int {

	p := 0.0
	if contentSize > 0 {
		p = float64(perDevice.Mul(float64(cacheK))) / float64(contentSize)
	}
	h := 0.0
	if cacheK > 0 {
		var err error
		h, err = model.HitRatio(x, y, p)
		if err != nil {
			return 0
		}
	}
	feasible := func(n int) bool {
		nc := int(h * float64(n))
		nd := n - nc
		var used units.Bytes
		if nc > 0 {
			cp, err := model.StripedCache(nc, cacheK, bitRate, memsSpec)
			if err != nil {
				return false
			}
			used += cp.TotalDRAM
		}
		if nd > 0 {
			if bufK > 0 {
				bp, err := model.BufferPlan(model.BufferConfig{
					Load: model.StreamLoad{N: nd, BitRate: bitRate},
					Disk: disk, Tier: memsSpec, K: bufK, SizePerDevice: perDevice,
				})
				if err != nil {
					return false
				}
				used += bp.TotalDRAM
			} else {
				dp, err := model.DiskDirect(model.StreamLoad{N: nd, BitRate: bitRate}, disk)
				if err != nil {
					return false
				}
				used += dp.TotalDRAM
			}
		}
		return used <= dram
	}
	return model.MaxFeasible(feasible)
}
