// Package tier abstracts the middle tier of the paper's three-level
// hierarchy (DRAM / buffer device / disk) behind a device interface and a
// registry of named parameter sets. The paper's argument — Eq 1–2 and 9
// show a middle tier is cost-effective for streaming — is not specific to
// MEMS sleds; this package lets the same planners, banks, and simulation
// drivers run against any hardware generation (MEMS G1–G3 as published,
// or NVM/SSD devices that actually shipped) by swapping one parameter
// set. Only this package and internal/mems know about sled mechanics;
// everything above speaks Spec and Device.
package tier

import (
	"fmt"
	"time"

	"memstream/internal/device"
	"memstream/internal/mems"
	"memstream/internal/ring"
	"memstream/internal/units"
)

// Spec is the parameter set for one middle-tier device generation: the
// capacity/bandwidth/latency triple the analytical framework needs plus
// the cost numbers for the paper's Eq 1–2/9 price model. MEMS-backed
// specs additionally carry the full sled parameter set in MEMS; consumers
// that need sled-specific fields (e.g. the paper's Table 3 rendering)
// read them through that pointer without importing internal/mems.
type Spec struct {
	Name string // registry name, e.g. "mems-g3"
	Kind string // device family: "mems", "nvm", "ssd", "disk"
	Year int    // generation year the parameters are sourced from

	Capacity   units.Bytes
	BlockBytes units.Bytes // logical block size

	// Rate is the sustained media/interface transfer rate R; AvgLatency
	// and MaxLatency bound the per-IO positioning overhead L̄. The
	// paper's evaluation charges the middle tier MaxLatency (its §5).
	Rate       units.ByteRate
	AvgLatency time.Duration
	MaxLatency time.Duration

	CostPerGB  units.Dollars
	CostPerDev units.Dollars // per-device entry cost (paper Eq 2 price model)

	// MEMS, when non-nil, holds the sled parameter set and selects the
	// position-dependent MEMS simulator in New; flat-latency devices
	// (NVM, SSD, disk used as a buffer) leave it nil.
	MEMS *memsParams
}

// Validate checks the parameter set for internal consistency. Every
// registered set must pass; new generations added to the registry
// inherit the same checks.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("tier: spec has no name")
	case s.Capacity <= 0:
		return fmt.Errorf("tier: %s: non-positive capacity", s.Name)
	case s.BlockBytes <= 0:
		return fmt.Errorf("tier: %s: non-positive block size", s.Name)
	case s.Rate <= 0:
		return fmt.Errorf("tier: %s: non-positive rate", s.Name)
	case s.AvgLatency < 0 || s.MaxLatency < 0:
		return fmt.Errorf("tier: %s: negative latency", s.Name)
	case s.MaxLatency < s.AvgLatency:
		return fmt.Errorf("tier: %s: max latency below average", s.Name)
	case s.CostPerGB <= 0 || s.CostPerDev <= 0:
		return fmt.Errorf("tier: %s: non-positive cost", s.Name)
	}
	return nil
}

// Device is one simulated middle-tier device. It is the contract the
// banks and the simulation rig program against: service a request at a
// simulated clock and report emergent statistics. Implementations are
// not safe for concurrent use; in a simulation a device belongs to a
// single Engine goroutine.
type Device interface {
	// Geometry returns the logical block geometry.
	Geometry() device.Geometry
	// Service performs one request starting at simulated time now,
	// updates device state, and returns the completion record.
	Service(now time.Duration, r device.Request) (device.Completion, error)
	// Served reports the number of completed requests.
	Served() uint64
	// BusyTime reports cumulative service time.
	BusyTime() time.Duration
	// TotalSeekTime reports cumulative positioning time.
	TotalSeekTime() time.Duration
}

// ServeInStep serves r at now on every device of devs, as a striped
// bank's lock-step read does, when they are sled devices all in step:
// built from one parameter set, in the same sled state and without a read
// cache, so that each would serve r exactly as devs[0] does. It then runs
// the sled model once, on devs[0], books the same service on the others
// and returns the one completion. It reports false, having served
// nothing, for any other bank, for instance after a caller drove one of
// its devices on its own.
func ServeInStep(devs []Device, now time.Duration, r device.Request) (device.Completion, bool, error) {
	lead, ok := devs[0].(*memsDevice)
	if !ok {
		return device.Completion{}, false, nil
	}
	for _, d := range devs[1:] {
		if o, ok := d.(*memsDevice); !ok || !lead.InStep(o.Device) {
			return device.Completion{}, false, nil
		}
	}
	c, err := lead.Service(now, r)
	if err == nil {
		for _, d := range devs[1:] {
			d.(*memsDevice).Echo(lead.Device)
		}
	}
	return c, true, err
}

// Cacheable is implemented by devices that can attach an on-device read
// cache (paper §3 assumes the buffer devices carry one, like disk-drive
// caches).
type Cacheable interface {
	// EnableCache attaches a read cache of the given byte capacity
	// served at ifaceRate; hits skip positioning and media transfer.
	EnableCache(capacity units.Bytes, ifaceRate units.ByteRate) error
	// Cache returns the attached read cache, or nil.
	Cache() *device.ReadCache
}

// Layout maps stream-relative block addresses onto device LBNs — the
// placement-policy contract from the paper's §7 future work.
type Layout interface {
	// Map translates (stream, stream-relative block) to a device LBN.
	Map(stream int, block int64) (int64, error)
}

// LayoutCapable is implemented by devices whose positioning cost depends
// on data placement, making layout policies meaningful.
type LayoutCapable interface {
	// ContiguousLayout allocates n equal per-stream extents.
	ContiguousLayout(n int) (Layout, error)
	// InterleavedLayout groups the j-th chunk of every stream into the
	// j-th stripe so lock-step streams access neighboring positions.
	InterleavedLayout(n int, ioSize units.Bytes) (Layout, error)
}

// Policy names the order a Scheduler services requests in. There is one,
// SPTF; the Policy argument of NewScheduler stays only until the
// benchmark's own change drops it (ROADMAP item 1(a)).
type Policy uint8

// SPTF services the request with the shortest positioning time from the
// current device position.
const SPTF Policy = 0

// Scheduler orders pending requests for a Device, shortest positioning
// time first, and services them one at a time; the caller owns simulated
// time. On a sled device it takes the queued request with the shortest
// SeekTime from the sled's current position, the earliest arrival winning
// ties. A flat device positions every request alike, so there the
// earliest arrival always wins: arrival order. The pending queue is a ring,
// so an arrival-order dispatch is O(1).
type Scheduler struct {
	dev   Device
	sled  *mems.Device // dev's sled, nil on a flat device
	queue ring.Ring[device.Request]
}

// NewScheduler wraps dev in an SPTF scheduler.
func NewScheduler(dev Device, _ Policy) *Scheduler {
	s := &Scheduler{dev: dev}
	if md, ok := dev.(*memsDevice); ok {
		s.sled = md.Device
	}
	return s
}

// Enqueue adds a request to the pending queue.
func (s *Scheduler) Enqueue(r device.Request) { s.queue.PushBack(r) }

// Len reports the number of pending requests.
func (s *Scheduler) Len() int { return s.queue.Len() }

// pick returns the queue index of the next request to service.
func (s *Scheduler) pick() int {
	if s.sled == nil {
		return 0
	}
	best, bestT := 0, time.Duration(1<<62)
	for i, n := 0, s.queue.Len(); i < n; i++ {
		if t := s.sled.SeekTime(s.queue.At(i).Block); t < bestT {
			best, bestT = i, t
		}
	}
	return best
}

// Dispatch services the next request, starting at simulated time now. It
// reports false when the queue is empty.
func (s *Scheduler) Dispatch(now time.Duration) (device.Completion, bool, error) {
	if s.queue.Len() == 0 {
		return device.Completion{}, false, nil
	}
	c, err := s.dev.Service(now, s.queue.RemoveAt(s.pick()))
	if err != nil {
		return device.Completion{}, false, err
	}
	return c, true, nil
}

// DrainAll services every queued request back-to-back starting at now and
// returns the completions in service order.
func (s *Scheduler) DrainAll(now time.Duration) ([]device.Completion, error) {
	out := make([]device.Completion, 0, s.queue.Len())
	t := now
	for s.queue.Len() > 0 {
		c, ok, err := s.Dispatch(t)
		if err != nil {
			return out, err
		}
		if !ok {
			break
		}
		out = append(out, c)
		t = c.Finish
	}
	return out, nil
}
