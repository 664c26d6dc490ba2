package tier

import (
	"memstream/internal/mems"
	"memstream/internal/units"
)

// memsParams aliases the sled parameter struct so Spec can carry it by
// pointer. Being an alias (not a new type), consumers read fields like
// spec.MEMS.FullStrokeSeekX without importing internal/mems.
type memsParams = mems.Params

// FromMEMS builds a Spec from a sled parameter set, registered under the
// given name. The derived latency bounds are the same pure functions of
// the parameters the pre-tier stack used (MaxLatency/AvgLatency), so a
// MEMS-backed spec plans and simulates byte-for-byte like the direct
// mems.Params path did.
func FromMEMS(name string, p mems.Params) Spec {
	return Spec{
		Name:       name,
		Kind:       "mems",
		Year:       p.Year,
		Capacity:   p.Capacity,
		BlockBytes: p.SectorBytes,
		Rate:       p.Rate,
		AvgLatency: p.AvgLatency(),
		MaxLatency: p.MaxLatency(),
		CostPerGB:  p.CostPerGB,
		CostPerDev: p.CostPerDev,
		MEMS:       &p,
	}
}

// memsDevice adapts the position-dependent MEMS simulator to the Device
// interface. The embedded *mems.Device serves every request directly —
// method promotion, not delegation — so the float64 operations (and
// therefore the pinned Result bytes) are exactly those of the pre-tier
// stack.
type memsDevice struct {
	*mems.Device
}

// ContiguousLayout allocates n equal per-stream extents on the sled.
func (d *memsDevice) ContiguousLayout(n int) (Layout, error) {
	return mems.NewContiguous(d.Device, n)
}

// InterleavedLayout builds the streaming-aware sled interleaving for n
// streams issuing IOs of ioSize bytes.
func (d *memsDevice) InterleavedLayout(n int, ioSize units.Bytes) (Layout, error) {
	return mems.NewInterleaved(d.Device, n, ioSize)
}

var (
	_ Device        = (*memsDevice)(nil)
	_ Cacheable     = (*memsDevice)(nil)
	_ LayoutCapable = (*memsDevice)(nil)
)

// newMEMSDevice constructs the sled simulator behind the interface.
func newMEMSDevice(s Spec) (Device, error) {
	d, err := mems.New(*s.MEMS)
	if err != nil {
		return nil, err
	}
	return &memsDevice{Device: d}, nil
}
