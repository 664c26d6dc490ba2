// Package bank manages a bank of k middle-tier devices in the two roles
// the paper defines (its §3.1.2 and §3.2): a disk buffer with
// stream-granularity round-robin routing, and a content cache under
// striped or replicated management. The bank is tier-agnostic: it
// programs against tier.Device, so the same routing runs over MEMS
// sleds, NVM, or SSD parameter sets.
package bank

import (
	"fmt"
	"time"

	"memstream/internal/device"
	"memstream/internal/tier"
	"memstream/internal/units"
)

// New builds k identical middle-tier devices from the parameter set.
func New(k int, s tier.Spec) ([]tier.Device, error) {
	if k <= 0 {
		return nil, fmt.Errorf("bank: need at least one device, got %d", k)
	}
	devs := make([]tier.Device, k)
	for i := range devs {
		d, err := tier.New(s)
		if err != nil {
			return nil, fmt.Errorf("bank: device %d: %w", i, err)
		}
		devs[i] = d
	}
	return devs, nil
}

// BufferBank is a k-device disk buffer. Stream data is never striped:
// every disk IO lands wholly on one device, with streams assigned
// round-robin so every k-th disk IO hits the same device (paper §3.1.2 —
// striping would shrink disk-side IOs by k and hurt buffer throughput).
//
// Each stream owns a two-slot staging ring on its device: the disk writes
// one slot while the DRAM side drains the other, realizing the
// double-buffering the capacity bound (Eq 7) accounts for.
//
// Stream ids index dense tables, so callers number their streams from
// zero; the bank's devices share one geometry, resolved once at
// construction.
type BufferBank struct {
	devs       []tier.Device
	slotSize   units.Bytes
	blockSize  units.Bytes // the devices' logical block size
	slotBlocks int64       // blocks per staging slot
	perDev     int         // staging rings per device

	assign []int32 // stream -> device index, -1 when not attached
	ring   []int64 // stream -> first block of its 2-slot ring
	next   int     // round-robin cursor
	counts []int   // streams per device

	// Ring allocation per device: ring indices below high[dev] have been
	// handed out at some point, and the released ones wait in free[dev].
	high []int
	free [][]int32
}

// NewBufferBank prepares a buffer bank whose staging rings hold slotSize
// bytes per slot (the disk-side IO size, S_disk-mems).
func NewBufferBank(devs []tier.Device, slotSize units.Bytes) (*BufferBank, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("bank: empty device list")
	}
	if slotSize <= 0 {
		return nil, fmt.Errorf("bank: non-positive slot size %v", slotSize)
	}
	g := devs[0].Geometry()
	for i, d := range devs[1:] {
		if d.Geometry() != g {
			return nil, fmt.Errorf("bank: device %d geometry %+v differs from device 0's %+v", i+1, d.Geometry(), g)
		}
	}
	slotBlocks := blocksFor(slotSize, g.BlockSize)
	perDev := int(g.Blocks / (2 * slotBlocks))
	if perDev < 1 {
		return nil, fmt.Errorf("bank: slot size %v too large for device capacity %v",
			slotSize, g.Capacity())
	}
	return &BufferBank{
		devs:       devs,
		slotSize:   slotSize,
		blockSize:  g.BlockSize,
		slotBlocks: slotBlocks,
		perDev:     perDev,
		counts:     make([]int, len(devs)),
		high:       make([]int, len(devs)),
		free:       make([][]int32, len(devs)),
	}, nil
}

func blocksFor(b units.Bytes, blockSize units.Bytes) int64 {
	n := int64(b / blockSize)
	if units.Bytes(n)*blockSize < b {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// K returns the bank size.
func (b *BufferBank) K() int { return len(b.devs) }

// SlotSize returns the staging slot size.
func (b *BufferBank) SlotSize() units.Bytes { return b.slotSize }

// SlotBlocks returns the staging slot size in device blocks.
func (b *BufferBank) SlotBlocks() int64 { return b.slotBlocks }

// Device returns device i.
func (b *BufferBank) Device(i int) tier.Device { return b.devs[i] }

// Attach assigns a stream to a device round-robin and reserves its staging
// ring. It returns the device index.
func (b *BufferBank) Attach(stream int) (int, error) {
	if stream < 0 {
		return 0, fmt.Errorf("bank: negative stream id %d", stream)
	}
	if _, dup := b.DeviceOf(stream); dup {
		return 0, fmt.Errorf("bank: stream %d already attached", stream)
	}
	dev := b.next % len(b.devs)
	if b.counts[dev] >= b.perDev {
		// Find any device with a free ring before giving up.
		found := false
		for i := range b.devs {
			if b.counts[i] < b.perDev {
				dev, found = i, true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("bank: staging capacity exhausted (%d rings/device)", b.perDev)
		}
	}
	// A released ring is reused before a fresh one is cut, so live rings
	// never overlap however attaches and detaches interleave.
	var idx int
	if f := b.free[dev]; len(f) > 0 {
		idx = int(f[len(f)-1])
		b.free[dev] = f[:len(f)-1]
	} else {
		idx = b.high[dev]
		b.high[dev]++
	}
	for len(b.assign) <= stream {
		b.assign = append(b.assign, -1)
		b.ring = append(b.ring, 0)
	}
	b.assign[stream] = int32(dev)
	b.ring[stream] = int64(idx) * 2 * b.slotBlocks
	b.counts[dev]++
	b.next++
	return dev, nil
}

// Detach releases a stream and returns its ring to the device's free
// list. Detaching a stream that is not attached is a no-op.
func (b *BufferBank) Detach(stream int) {
	dev, ok := b.DeviceOf(stream)
	if !ok {
		return
	}
	b.counts[dev]--
	b.free[dev] = append(b.free[dev], int32(b.ring[stream]/(2*b.slotBlocks)))
	b.assign[stream] = -1
}

// DeviceOf returns the device index a stream is attached to.
func (b *BufferBank) DeviceOf(stream int) (int, bool) {
	if stream < 0 || stream >= len(b.assign) || b.assign[stream] < 0 {
		return 0, false
	}
	return int(b.assign[stream]), true
}

// Ring returns the device a stream is attached to and the first block of
// its two-slot staging ring there: slot p (0 or 1) starts SlotBlocks()·p
// further on.
func (b *BufferBank) Ring(stream int) (dev int, base int64, ok bool) {
	dev, ok = b.DeviceOf(stream)
	if !ok {
		return 0, 0, false
	}
	return dev, b.ring[stream], true
}

// StageRequest builds the buffer-device write request that stages bytes arriving
// from the disk for a stream, alternating between the ring's two slots by
// cycle parity.
func (b *BufferBank) StageRequest(stream int, cycle int64, size units.Bytes) (device.Request, int, error) {
	dev, ok := b.DeviceOf(stream)
	if !ok {
		return device.Request{}, 0, fmt.Errorf("bank: stream %d not attached", stream)
	}
	base := b.ring[stream] + (cycle%2)*b.slotBlocks
	n := blocksFor(size, b.blockSize)
	if n > b.slotBlocks {
		n = b.slotBlocks
	}
	return device.Request{Op: device.Write, Block: base, Blocks: n, Stream: stream}, dev, nil
}

// DrainRequest builds the buffer-device read request that moves a stream's staged
// data toward DRAM, reading from the slot the disk filled in the previous
// cycle.
func (b *BufferBank) DrainRequest(stream int, cycle int64, size units.Bytes) (device.Request, int, error) {
	r, dev, err := b.StageRequest(stream, cycle+1, size) // opposite parity slot
	if err != nil {
		return device.Request{}, 0, err
	}
	r.Op = device.Read
	return r, dev, nil
}

// SpareStorage returns unreserved bytes across the bank — available for
// the non-real-time uses the paper lists (§3.1.2: persistent write buffer,
// prefetch buffer, or caching whole streams).
func (b *BufferBank) SpareStorage() units.Bytes {
	var spare units.Bytes
	for _, c := range b.counts {
		freeRings := b.perDev - c
		spare += units.Bytes(int64(freeRings)*2*b.slotBlocks) * b.blockSize
	}
	return spare
}

// SpareBandwidth estimates unused bank bandwidth given the attached
// streams' aggregate bit-rate: the bank moves each byte twice, so spare =
// k·R − 2·ΣB̄.
func (b *BufferBank) SpareBandwidth(aggregate units.ByteRate) units.ByteRate {
	total := float64(len(b.devs)) * float64(b.devs[0].Spec().Rate)
	spare := total - 2*float64(aggregate)
	if spare < 0 {
		spare = 0
	}
	return units.ByteRate(spare)
}

// Balance reports the min and max streams per device; round-robin keeps
// max−min ≤ 1.
func (b *BufferBank) Balance() (minStreams, maxStreams int) {
	if len(b.counts) == 0 {
		return 0, 0
	}
	minStreams, maxStreams = b.counts[0], b.counts[0]
	for _, c := range b.counts[1:] {
		if c < minStreams {
			minStreams = c
		}
		if c > maxStreams {
			maxStreams = c
		}
	}
	return minStreams, maxStreams
}

// ServiceOn runs one request on the bank device dev at time now.
func (b *BufferBank) ServiceOn(dev int, now time.Duration, r device.Request) (device.Completion, error) {
	if dev < 0 || dev >= len(b.devs) {
		return device.Completion{}, fmt.Errorf("bank: device %d out of range", dev)
	}
	return b.devs[dev].Service(now, r)
}
