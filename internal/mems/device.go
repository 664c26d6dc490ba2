package mems

import (
	"fmt"
	"math"
	"time"

	"memstream/internal/device"
	"memstream/internal/units"
)

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Device is a simulated MEMS storage device. It tracks the sled position
// between requests so that service times reflect actual displacement, the
// way the CMU simulator does, rather than charging a constant.
//
// Device is not safe for concurrent use; in a simulation it belongs to a
// single Engine goroutine.
type Device struct {
	p    Params
	geom device.Geometry

	blocksPerTrack int64 // sectors a single Y sweep yields across all active tips
	tracksPerCyl   int64 // always 1 in this layout; kept for clarity

	// Sled state.
	cyl  int     // current X position (cylinder)
	ypos float64 // current Y position, fraction of full stroke
	ydir int     // +1 or -1, direction of last sweep

	// Optional on-device read cache (paper §3 assumes MEMS devices carry
	// one, like disk-drive caches). Nil when disabled.
	cache     *device.ReadCache
	cacheRate units.ByteRate

	// failedTips counts tips marked failed via FailTips.
	failedTips int

	// Statistics.
	served   uint64
	busy     time.Duration
	seekTime time.Duration
	xferTime time.Duration
}

// FailTips marks n of the device's tips as failed. The CMU designs carry
// spare tips (about 10% of the array); failures up to the spare pool are
// remapped with no performance effect, and failures beyond it derate the
// aggregate transfer rate proportionally — fewer tips stream the sled's
// data, so every transfer takes longer. Capacity is preserved (data moves
// to the regions served by surviving tips).
func (d *Device) FailTips(n int) error {
	if n < 0 || n > d.p.ActiveTips {
		return fmt.Errorf("mems: cannot fail %d of %d tips", n, d.p.ActiveTips)
	}
	d.failedTips = n
	return nil
}

// FailedTips reports how many tips have been failed.
func (d *Device) FailedTips() int { return d.failedTips }

// spareTips is the reserve fraction of the tip array (CMU designs carry
// roughly 10% spares).
func (d *Device) spareTips() int { return d.p.ActiveTips / 10 }

// effectiveRate is the media rate after tip failures: full until the
// spares are exhausted, then proportional to surviving active tips.
func (d *Device) effectiveRate() units.ByteRate {
	if d.failedTips <= d.spareTips() {
		return d.p.Rate
	}
	surviving := d.p.ActiveTips - (d.failedTips - d.spareTips())
	return units.ByteRate(float64(d.p.Rate) * float64(surviving) / float64(d.p.ActiveTips))
}

// EnableCache attaches an on-device read cache of the given byte capacity
// served at ifaceRate (the device interface speed, typically several times
// the media rate). Cache hits skip positioning and media transfer.
func (d *Device) EnableCache(capacity units.Bytes, ifaceRate units.ByteRate) error {
	if ifaceRate <= 0 {
		return fmt.Errorf("mems: non-positive cache interface rate %v", ifaceRate)
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
func (d *Device) Cache() *device.ReadCache { return d.cache }

// New constructs a Device from params.
func New(p Params) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	blocks := int64(p.Capacity / p.SectorBytes)
	bpt := blocks / int64(p.Cylinders)
	if bpt <= 0 {
		return nil, fmt.Errorf("mems: %s: capacity too small for %d cylinders", p.Name, p.Cylinders)
	}
	return &Device{
		p:              p,
		geom:           device.Geometry{BlockSize: p.SectorBytes, Blocks: bpt * int64(p.Cylinders)},
		blocksPerTrack: bpt,
		tracksPerCyl:   1,
		ydir:           1,
	}, nil
}

// Params returns the device's parameter set.
func (d *Device) Params() Params { return d.p }

// Geometry returns the logical block geometry.
func (d *Device) Geometry() device.Geometry { return d.geom }

// Model returns the static performance description used by the analytical
// framework.
func (d *Device) Model() device.Model {
	return device.Model{
		Name:       d.p.Name,
		Rate:       d.effectiveRate(),
		AvgLatency: d.p.AvgLatency(),
		MaxLatency: d.p.MaxLatency(),
		Capacity:   d.geom.Capacity(),
		CostPerGB:  d.p.CostPerGB,
		CostPerDev: d.p.CostPerDev,
	}
}

// Cylinder returns the cylinder holding logical block lbn.
func (d *Device) Cylinder(lbn int64) int {
	return int(lbn / d.blocksPerTrack)
}

// locate resolves lbn to its sled address: the cylinder (X position) and
// the block offset within that cylinder's Y sweep. One divide; the offset
// over blocksPerTrack is the Y fraction.
func (d *Device) locate(lbn int64) (cyl int, off int64) {
	q := lbn / d.blocksPerTrack
	return int(q), lbn - q*d.blocksPerTrack
}

// SeekTime returns the positioning time to move the sled from its current
// position to block lbn, without performing the move: the maximum of the X
// seek (plus settle when the cylinder changes) and the Y reposition (plus
// turnaround when the sweep direction must reverse).
func (d *Device) SeekTime(lbn int64) time.Duration {
	return d.seekTo(d.locate(lbn))
}

// seekTo is SeekTime for an already-resolved sled address.
func (d *Device) seekTo(targetCyl int, off int64) time.Duration {
	targetY := float64(off) / float64(d.blocksPerTrack)

	var tx time.Duration
	if targetCyl != d.cyl {
		frac := math.Abs(float64(targetCyl-d.cyl)) / float64(d.p.Cylinders)
		tx = time.Duration(float64(d.p.FullStrokeSeekX)*sqrtf(frac)) + d.p.SettleX
	}

	dy := targetY - d.ypos
	ty := time.Duration(float64(d.p.FullStrokeSeekY) * sqrtf(math.Abs(dy)))
	// Reading proceeds in +Y; if the sled ended its last sweep moving away
	// from the target start we pay a turnaround.
	if (dy < 0 && d.ydir > 0) || (dy > 0 && d.ydir < 0) {
		ty += d.p.Turnaround
	}

	if tx > ty {
		return tx
	}
	return ty
}

// Service performs one request: it seeks, transfers, updates sled state and
// returns the completion record. now is the simulation time at which the
// device starts the request.
func (d *Device) Service(now time.Duration, r device.Request) (c device.Completion, err error) {
	if err = d.geom.Validate(r); err != nil {
		return c, err
	}
	if d.cache != nil {
		if r.Op == device.Write {
			d.cache.Invalidate(r.Block, r.Blocks)
		} else if d.cache.Lookup(r.Block, r.Blocks) {
			// Cache hit: served from on-device buffer at interface speed;
			// the sled does not move.
			bytes := units.Bytes(r.Blocks) * d.geom.BlockSize
			xfer := bytes.Duration(d.cacheRate)
			c = device.Completion{Request: r, Start: now, Finish: now + xfer, Transfer: xfer}
			d.served++
			d.busy += xfer
			d.xferTime += xfer
			return c, nil
		}
	}
	// A sled request is fully described by (cylinder, Y offset): resolve
	// the start once, and the end only when the transfer leaves the
	// start's cylinder.
	firstCyl, off := d.locate(r.Block)
	seek := d.seekTo(firstCyl, off)

	// Transfer: blocks stream at the aggregate tip rate; each cylinder
	// boundary crossed mid-transfer costs one settle (the sled nudges to
	// the next X position and resumes the sweep).
	bytes := units.Bytes(r.Blocks) * d.geom.BlockSize
	xfer := bytes.Duration(d.effectiveRate())
	lastCyl, endOff := firstCyl, off+r.Blocks-1
	if endOff >= d.blocksPerTrack {
		lastCyl, endOff = d.locate(r.Block + r.Blocks - 1)
		xfer += time.Duration(lastCyl-firstCyl) * d.p.SettleX
	}

	// Update sled state to the end of the transfer.
	d.cyl = lastCyl
	d.ypos = float64(endOff) / float64(d.blocksPerTrack)
	d.ydir = 1

	c.Request = r
	c.Start, c.Finish = now, now+seek+xfer
	c.Position, c.Transfer = seek, xfer
	d.served++
	d.busy += seek + xfer
	d.seekTime += seek
	d.xferTime += xfer
	if d.cache != nil && r.Op == device.Read {
		d.cache.Insert(r.Block, r.Blocks)
	}
	return c, nil
}

// Reset returns the sled to cylinder 0, Y=0 and clears statistics.
func (d *Device) Reset() {
	d.cyl, d.ypos, d.ydir = 0, 0, 1
	d.served, d.busy, d.seekTime, d.xferTime = 0, 0, 0, 0
}

// Served reports the number of completed requests.
func (d *Device) Served() uint64 { return d.served }

// BusyTime reports cumulative service time.
func (d *Device) BusyTime() time.Duration { return d.busy }

// TotalSeekTime reports cumulative positioning time.
func (d *Device) TotalSeekTime() time.Duration { return d.seekTime }

// TotalTransferTime reports cumulative media transfer time.
func (d *Device) TotalTransferTime() time.Duration { return d.xferTime }
