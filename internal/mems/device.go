package mems

import (
	"fmt"
	"math"
	"sync"
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
	tab  *sledTables // shared with every device of the same parameter set

	blocksPerTrack int64 // sectors a single Y sweep yields across all active tips

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

	// xferBlocks and xferDur memoise the media transfer time of the last
	// transfer size: a run's IOs come in one or two sizes.
	xferBlocks int64
	xferDur    time.Duration

	// lastSeek and lastXfer are the last service's split, which Echo books
	// on a device moving in lock-step with this one.
	lastSeek, lastXfer time.Duration

	// Statistics.
	served   uint64
	busy     time.Duration
	seekTime time.Duration
}

// sledTables tabulates the sled arithmetic that depends on one operand:
// the X seek plus settle by cylinder distance, and the Y fraction by block
// offset within a cylinder. Each entry is the exact expression Service
// evaluated per request before, so a lookup is bit-equal to it. Tables are
// built once per parameter set and shared, read-only, by every device
// built from it (sledTablesFor), so two devices hold the same tables
// exactly when their parameters are equal.
type sledTables struct {
	seekX []time.Duration // distance → FullStrokeSeekX·√(distance/Cylinders) + SettleX; [0] = 0
	yFrac []float64       // offset → offset/blocksPerTrack
}

// tables memoises sledTables per parameter set, process-wide: devices are
// built concurrently under sim.FanOut, and once built a table is only
// read.
var tables struct {
	sync.Mutex
	m map[Params]*sledTables
}

// sledTablesFor returns the shared tables for p, whose cylinders hold bpt
// blocks each, building them on first use.
func sledTablesFor(p Params, bpt int64) *sledTables {
	tables.Lock()
	defer tables.Unlock()
	if t := tables.m[p]; t != nil {
		return t
	}
	t := &sledTables{
		seekX: make([]time.Duration, p.Cylinders),
		yFrac: make([]float64, bpt),
	}
	for dist := 1; dist < len(t.seekX); dist++ {
		frac := float64(dist) / float64(p.Cylinders)
		t.seekX[dist] = time.Duration(float64(p.FullStrokeSeekX)*sqrtf(frac)) + p.SettleX
	}
	for off := range t.yFrac {
		t.yFrac[off] = float64(off) / float64(bpt)
	}
	if tables.m == nil {
		tables.m = make(map[Params]*sledTables)
	}
	tables.m[p] = t
	return t
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
	d.xferBlocks = 0 // the rate changed
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
		tab:            sledTablesFor(p, bpt),
		blocksPerTrack: bpt,
		ydir:           1,
	}, nil
}

// Geometry returns the logical block geometry.
func (d *Device) Geometry() device.Geometry { return d.geom }

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
// turnaround when the sweep direction must reverse). A block off the
// device, which Service rejects, costs the seek to the nearest block on it.
func (d *Device) SeekTime(lbn int64) time.Duration {
	return d.seekTo(d.locate(min(max(lbn, 0), d.geom.Blocks-1)))
}

// seekTo is SeekTime for an already-resolved sled address.
func (d *Device) seekTo(targetCyl int, off int64) time.Duration {
	var tx time.Duration
	if dist := targetCyl - d.cyl; dist != 0 {
		tx = d.tab.seekX[max(dist, -dist)]
	}

	dy := d.tab.yFrac[off] - d.ypos
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
			d.book(0, xfer)
			return r.Done(now + xfer), nil
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
	if r.Blocks != d.xferBlocks {
		bytes := units.Bytes(r.Blocks) * d.geom.BlockSize
		d.xferBlocks, d.xferDur = r.Blocks, bytes.Duration(d.effectiveRate())
	}
	xfer := d.xferDur
	lastCyl, endOff := firstCyl, off+r.Blocks-1
	if endOff >= d.blocksPerTrack {
		lastCyl, endOff = d.locate(r.Block + r.Blocks - 1)
		xfer += time.Duration(lastCyl-firstCyl) * d.p.SettleX
	}

	// Update sled state to the end of the transfer.
	d.cyl = lastCyl
	d.ypos = d.tab.yFrac[endOff]
	d.ydir = 1

	d.book(seek, xfer)
	if d.cache != nil && r.Op == device.Read {
		d.cache.Insert(r.Block, r.Blocks)
	}
	return r.Done(now + seek + xfer), nil
}

// book counts one service of seek positioning and xfer transfer.
func (d *Device) book(seek, xfer time.Duration) {
	d.lastSeek, d.lastXfer = seek, xfer
	d.served++
	d.busy += seek + xfer
	d.seekTime += seek
}

// InStep reports whether o would serve any request exactly as d: another
// device of the same parameter set (so the same tables), its sled in the
// same state (cylinder, Y position and direction), the same tips failed,
// and no read cache on either. A striped bank's devices move in
// lock-step, so they normally are.
func (d *Device) InStep(o *Device) bool {
	return d != o && d.tab == o.tab && d.cyl == o.cyl && d.ypos == o.ypos && d.ydir == o.ydir &&
		d.failedTips == o.failedTips && d.cache == nil && o.cache == nil
}

// Echo books on d the service lead has just performed, for a d that was
// InStep with lead before it: d takes lead's sled state and counts lead's
// last service, exactly as serving the same request itself would have.
func (d *Device) Echo(lead *Device) {
	d.cyl, d.ypos, d.ydir = lead.cyl, lead.ypos, lead.ydir
	d.book(lead.lastSeek, lead.lastXfer)
}

// Served reports the number of completed requests.
func (d *Device) Served() uint64 { return d.served }

// BusyTime reports cumulative service time.
func (d *Device) BusyTime() time.Duration { return d.busy }

// TotalSeekTime reports cumulative positioning time.
func (d *Device) TotalSeekTime() time.Duration { return d.seekTime }
