package tier

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"memstream/internal/disk"
	"memstream/internal/mems"
	"memstream/internal/units"
)

// Default is the registry name the stack uses when no tier is selected:
// the paper's G3 MEMS device (its Table 3). Running with the default
// reproduces the pre-tier pinned goldens byte-for-byte.
const Default = "mems-g3"

// builtin is every registered parameter set, built once, on first use:
// a MEMS spec's AvgLatency integrates over a grid. Lookup hands out
// copies, so callers can mutate what they get freely.
var builtin = sync.OnceValue(func() map[string]Spec {
	return map[string]Spec{
		"mems-g1":     FromMEMS("mems-g1", mems.G1()),
		"mems-g2":     FromMEMS("mems-g2", mems.G2()),
		"mems-g3":     FromMEMS("mems-g3", mems.G3()),
		"nvm-optane":  nvmOptane(),
		"ssd-sata":    ssdSATA(),
		"disk-future": diskFuture(),
	}
})

// aliases maps the short generation names the CLIs accepted before the
// tier registry existed.
var aliases = map[string]string{
	"g1": "mems-g1",
	"g2": "mems-g2",
	"g3": "mems-g3",
}

// Names lists the registered parameter sets in sorted order.
func Names() []string {
	out := make([]string, 0, len(builtin()))
	for name := range builtin() {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the named parameter set. Unknown names error with the
// list of available sets so a mistyped -tier flag is self-correcting.
func Lookup(name string) (Spec, error) {
	if canonical, ok := aliases[name]; ok {
		name = canonical
	}
	s, ok := builtin()[name]
	if !ok {
		return Spec{}, fmt.Errorf("tier: unknown parameter set %q (available: %s)",
			name, strings.Join(Names(), ", "))
	}
	if s.MEMS != nil { // the copy gets its own sled parameters too
		p := *s.MEMS
		s.MEMS = &p
	}
	return s, nil
}

// MustLookup is Lookup for built-in names known at compile time.
func MustLookup(name string) Spec {
	s, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return s
}

// New constructs a simulated device from a parameter set: the
// position-dependent sled simulator when the spec carries MEMS
// parameters, the uniform-latency model otherwise.
func New(s Spec) (Device, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.MEMS != nil {
		return newMEMSDevice(s)
	}
	return newFlatDevice(s)
}

// nvmOptane is an Intel Optane SSD DC P4800X-class device (2017): 375 GB
// of 3D XPoint behind NVMe at ~2.4 GB/s, ~10 µs typical read latency
// (Intel's data sheet; ~30 µs at QoS tail), around $4/GB at launch
// street pricing. The first shipping hardware occupying the
// DRAM-to-flash gap the paper projected MEMS into.
func nvmOptane() Spec {
	return Spec{
		Name:       "nvm-optane",
		Kind:       "nvm",
		Year:       2017,
		Capacity:   375 * units.GB,
		BlockBytes: 512,
		Rate:       2400 * units.MBPS,
		AvgLatency: 10 * time.Microsecond,
		MaxLatency: 30 * time.Microsecond,
		CostPerGB:  4,
		CostPerDev: 1500,
	}
}

// ssdSATA is a datacenter SATA flash SSD (c. 2018, Samsung 860/Intel
// S4510 class): 480 GB, interface-bound at ~550 MB/s, ~60 µs typical
// read latency with ~250 µs under queueing, ~$0.12/GB.
func ssdSATA() Spec {
	return Spec{
		Name:       "ssd-sata",
		Kind:       "ssd",
		Year:       2018,
		Capacity:   480 * units.GB,
		BlockBytes: 512,
		Rate:       550 * units.MBPS,
		AvgLatency: 60 * time.Microsecond,
		MaxLatency: 250 * time.Microsecond,
		CostPerGB:  0.12,
		CostPerDev: 58,
	}
}

// diskFuture reuses the paper's FutureDisk (Table 3) as a middle tier —
// the degenerate hierarchy where the buffer is just more disk, useful as
// the baseline the MEMS/NVM tiers must beat on latency.
func diskFuture() Spec {
	p := disk.FutureDisk()
	return Spec{
		Name:       "disk-future",
		Kind:       "disk",
		Year:       p.Year,
		Capacity:   p.Capacity,
		BlockBytes: p.SectorBytes,
		Rate:       p.OuterRate,
		AvgLatency: p.AvgAccess(),
		MaxLatency: p.MaxAccess(),
		CostPerGB:  p.CostPerGB,
		CostPerDev: p.CostPerDev,
	}
}
