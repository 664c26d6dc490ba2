package tier

import (
	"fmt"
	"time"

	"memstream/internal/device"
	"memstream/internal/units"
)

// flatDevice simulates a uniform-latency block device: every IO pays the
// spec's average positioning latency (controller/protocol overhead — for
// solid-state devices there is no mechanical position to track) plus
// media transfer at the spec rate. It backs the NVM/SSD parameter sets
// and disk-as-buffer, and mirrors the MEMS simulator's optional read
// cache semantics so cache experiments run on any tier.
type flatDevice struct {
	spec Spec
	geom device.Geometry

	cache     *device.ReadCache
	cacheRate units.ByteRate

	served   uint64
	busy     time.Duration
	seekTime time.Duration
	xferTime time.Duration
}

// newFlatDevice constructs the uniform-latency simulator.
func newFlatDevice(s Spec) (Device, error) {
	return &flatDevice{
		spec: s,
		geom: device.Geometry{
			BlockSize: s.BlockBytes,
			Blocks:    int64(s.Capacity / s.BlockBytes),
		},
	}, nil
}

// Spec returns the parameter set the device was built from.
func (d *flatDevice) Spec() Spec { return d.spec }

// Geometry returns the logical block geometry.
func (d *flatDevice) Geometry() device.Geometry { return d.geom }

// Model returns the static performance description used by the
// analytical framework.
func (d *flatDevice) Model() device.Model {
	return device.Model{
		Name:       d.spec.Name,
		Rate:       d.spec.Rate,
		AvgLatency: d.spec.AvgLatency,
		MaxLatency: d.spec.MaxLatency,
		Capacity:   d.geom.Capacity(),
		CostPerGB:  d.spec.CostPerGB,
		CostPerDev: d.spec.CostPerDev,
	}
}

// EnableCache attaches an on-device read cache of the given byte
// capacity served at ifaceRate. Cache hits skip positioning and media
// transfer, exactly as on the MEMS simulator.
func (d *flatDevice) EnableCache(capacity units.Bytes, ifaceRate units.ByteRate) error {
	if ifaceRate <= 0 {
		return fmt.Errorf("tier: %s: non-positive cache interface rate %v", d.spec.Name, ifaceRate)
	}
	c, err := device.NewReadCache(int64(capacity / d.geom.BlockSize))
	if err != nil {
		return err
	}
	d.cache = c
	d.cacheRate = ifaceRate
	return nil
}

// Cache returns the attached read cache, or nil.
func (d *flatDevice) Cache() *device.ReadCache { return d.cache }

// Service performs one request starting at simulated time now.
func (d *flatDevice) Service(now time.Duration, r device.Request) (c device.Completion, err error) {
	if err = d.geom.Validate(r); err != nil {
		return c, err
	}
	if d.cache != nil {
		if r.Op == device.Write {
			d.cache.Invalidate(r.Block, r.Blocks)
		} else if d.cache.Lookup(r.Block, r.Blocks) {
			bytes := units.Bytes(r.Blocks) * d.geom.BlockSize
			xfer := bytes.Duration(d.cacheRate)
			c = device.Completion{Request: r, Start: now, Finish: now + xfer, Transfer: xfer}
			d.served++
			d.busy += xfer
			d.xferTime += xfer
			return c, nil
		}
	}
	pos := d.spec.AvgLatency
	bytes := units.Bytes(r.Blocks) * d.geom.BlockSize
	xfer := bytes.Duration(d.spec.Rate)
	c.Request = r
	c.Start, c.Finish = now, now+pos+xfer
	c.Position, c.Transfer = pos, xfer
	d.served++
	d.busy += pos + xfer
	d.seekTime += pos
	d.xferTime += xfer
	if d.cache != nil && r.Op == device.Read {
		d.cache.Insert(r.Block, r.Blocks)
	}
	return c, nil
}

// Reset clears statistics.
func (d *flatDevice) Reset() {
	d.served, d.busy, d.seekTime, d.xferTime = 0, 0, 0, 0
}

// Served reports the number of completed requests.
func (d *flatDevice) Served() uint64 { return d.served }

// BusyTime reports cumulative service time.
func (d *flatDevice) BusyTime() time.Duration { return d.busy }

// TotalSeekTime reports cumulative positioning time.
func (d *flatDevice) TotalSeekTime() time.Duration { return d.seekTime }

// TotalTransferTime reports cumulative media transfer time.
func (d *flatDevice) TotalTransferTime() time.Duration { return d.xferTime }

var (
	_ Device    = (*flatDevice)(nil)
	_ Cacheable = (*flatDevice)(nil)
)

// fifoScheduler services requests in arrival order — on a uniform-latency
// device every ordering has the same cost, so FCFS is optimal.
type fifoScheduler struct {
	dev   Device
	queue []device.Request
}

// Enqueue adds a request to the pending queue.
func (s *fifoScheduler) Enqueue(r device.Request) { s.queue = append(s.queue, r) }

// Len reports the number of pending requests.
func (s *fifoScheduler) Len() int { return len(s.queue) }

// Dispatch services the oldest request; false when the queue is empty.
func (s *fifoScheduler) Dispatch(now time.Duration) (device.Completion, bool, error) {
	if len(s.queue) == 0 {
		return device.Completion{}, false, nil
	}
	r := s.queue[0]
	s.queue = s.queue[1:]
	c, err := s.dev.Service(now, r)
	if err != nil {
		return device.Completion{}, false, err
	}
	c.QueueDelay = now - r.Issued
	return c, true, nil
}

// DrainAll services every queued request back-to-back starting at now.
func (s *fifoScheduler) DrainAll(now time.Duration) ([]device.Completion, error) {
	var out []device.Completion
	t := now
	for len(s.queue) > 0 {
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
