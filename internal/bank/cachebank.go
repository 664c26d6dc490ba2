package bank

import (
	"fmt"
	"time"

	"memstream/internal/device"
	"memstream/internal/tier"
	"memstream/internal/units"
)

// CacheBank is a k-device content cache under one of the paper's two
// management policies (§3.2).
type CacheBank interface {
	// Capacity returns the distinct content the bank can hold.
	Capacity() units.Bytes
	// Assign binds a stream to the bank and returns an opaque handle the
	// caller passes to Read.
	Assign(stream int) error
	// Read services one cached IO for the stream at time now and returns
	// when the data is fully available. Block addresses are relative to
	// the cached content image.
	Read(now time.Duration, stream int, block, blocks int64) (device.Completion, error)
}

// StripedBank stripes every title bit/byte-wise across all k devices,
// accessed in lock-step: every device performs the same relative access
// for every IO. Effective rate k·R, latency unchanged, capacity k·Size.
type StripedBank struct {
	devs    []tier.Device
	streams map[int]bool
}

// NewStripedBank wraps devs in lock-step striping.
func NewStripedBank(devs []tier.Device) (*StripedBank, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("bank: empty device list")
	}
	return &StripedBank{devs: devs, streams: make(map[int]bool)}, nil
}

// Capacity pools all devices.
func (s *StripedBank) Capacity() units.Bytes {
	return s.devs[0].Geometry().Capacity().Mul(float64(len(s.devs)))
}

// Assign registers a stream; striping needs no placement decision.
func (s *StripedBank) Assign(stream int) error {
	if s.streams[stream] {
		return fmt.Errorf("bank: stream %d already assigned", stream)
	}
	s.streams[stream] = true
	return nil
}

// Read performs the lock-step access: every device reads ⌊blocks/k⌋
// blocks (at least one) at the same relative location, and the IO
// completes when the slowest device finishes. The bank therefore moves
// k·⌊blocks/k⌋ blocks, not blocks: the remainder is dropped (ROADMAP
// finding F7). Devices that start aligned stay aligned, so the read is
// served once and booked on every device (tier.ServeInStep); devices a
// caller has driven apart are served one by one.
func (s *StripedBank) Read(now time.Duration, stream int, block, blocks int64) (device.Completion, error) {
	per := blocks / int64(len(s.devs))
	if per < 1 {
		per = 1
	}
	rel := block / int64(len(s.devs))
	g := s.devs[0].Geometry()
	if rel+per > g.Blocks {
		rel = g.Blocks - per
	}
	r := device.Request{Op: device.Read, Block: rel, Blocks: per, Stream: stream}
	if c, ok, err := tier.ServeInStep(s.devs, now, r); ok {
		if err != nil {
			return device.Completion{}, fmt.Errorf("bank: striped read on device 0: %w", err)
		}
		return c, nil
	}
	last := r.Done(0)
	for i, d := range s.devs {
		c, err := d.Service(now, r)
		if err != nil {
			return device.Completion{}, fmt.Errorf("bank: striped read on device %d: %w", i, err)
		}
		if i == 0 || c.Finish > last.Finish {
			last.Finish = c.Finish
		}
	}
	return last, nil
}

// ReplicatedBank stores the full cached image on every device; each stream
// is pinned to one device, chosen least-loaded, and ⌈n/k⌉ streams share a
// device. Effective rate k·R, effective latency L̄/k, capacity Size.
type ReplicatedBank struct {
	devs   []tier.Device
	assign []int32 // stream -> device index, -1 when not assigned
	counts []int
}

// NewReplicatedBank wraps devs in full replication.
func NewReplicatedBank(devs []tier.Device) (*ReplicatedBank, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("bank: empty device list")
	}
	return &ReplicatedBank{
		devs:   devs,
		counts: make([]int, len(devs)),
	}, nil
}

// Capacity is a single copy's worth.
func (r *ReplicatedBank) Capacity() units.Bytes {
	return r.devs[0].Geometry().Capacity()
}

// Assign pins the stream to the least-loaded device.
func (r *ReplicatedBank) Assign(stream int) error {
	if stream < 0 {
		return fmt.Errorf("bank: negative stream id %d", stream)
	}
	if _, dup := r.DeviceOf(stream); dup {
		return fmt.Errorf("bank: stream %d already assigned", stream)
	}
	best := 0
	for i, c := range r.counts {
		if c < r.counts[best] {
			best = i
		}
	}
	for len(r.assign) <= stream {
		r.assign = append(r.assign, -1)
	}
	r.assign[stream] = int32(best)
	r.counts[best]++
	return nil
}

// DeviceOf returns the device a stream reads from.
func (r *ReplicatedBank) DeviceOf(stream int) (int, bool) {
	if stream < 0 || stream >= len(r.assign) || r.assign[stream] < 0 {
		return 0, false
	}
	return int(r.assign[stream]), true
}

// Read services the IO on the stream's pinned replica.
func (r *ReplicatedBank) Read(now time.Duration, stream int, block, blocks int64) (device.Completion, error) {
	dev, ok := r.DeviceOf(stream)
	if !ok {
		return device.Completion{}, fmt.Errorf("bank: stream %d not assigned", stream)
	}
	g := r.devs[dev].Geometry()
	if block+blocks > g.Blocks {
		block = g.Blocks - blocks
		if block < 0 {
			return device.Completion{}, fmt.Errorf("bank: request larger than replica")
		}
	}
	return r.devs[dev].Service(now, device.Request{
		Op: device.Read, Block: block, Blocks: blocks, Stream: stream,
	})
}

var (
	_ CacheBank = (*StripedBank)(nil)
	_ CacheBank = (*ReplicatedBank)(nil)
)
