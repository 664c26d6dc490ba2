package disk

import (
	"fmt"
	"math"
	"time"

	"memstream/internal/device"
	"memstream/internal/units"
)

// zone is one band of cylinders recorded at a common density.
type zone struct {
	firstCyl   int
	cyls       int
	sectors    int64 // sectors per track
	perCyl     int64 // sectors per cylinder: heads × sectors
	secTime    time.Duration
	rate       units.ByteRate
	firstBlock int64 // first LBN in the zone
	blocks     int64 // total LBNs in the zone
}

// Device is a simulated disk drive. Like the MEMS model it tracks head and
// rotational position between requests, so service times are a function of
// the request sequence, not constants.
type Device struct {
	p        Params
	exponent float64
	zones    []zone
	cyls     int
	geom     device.Geometry

	// Derived once in New so the service path reads two words instead of
	// copying Params through its by-value methods on every request.
	period   time.Duration // one revolution
	seekSpan float64       // full-stroke distance in cylinders, ≥ 1

	// Arm move time by cylinder distance for short moves; see seekTo.
	seekMemo [64]time.Duration

	// Head state.
	cyl      int
	head     int
	nowAngle float64 // angular position at lastTime, in [0,1)
	lastTime time.Duration

	// Statistics.
	served   uint64
	busy     time.Duration
	seekTime time.Duration
	rotTime  time.Duration
}

// New constructs a Device. The cylinder count is derived so that the zoned
// layout realizes Params.Capacity as closely as sector rounding allows.
func New(p Params) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	period := p.RotationPeriod().Seconds()

	// Sectors per track in each zone follow the zone's media rate.
	sectorsAt := func(rate units.ByteRate) int64 {
		return int64(float64(rate) * period / float64(p.SectorBytes))
	}
	// Average sectors per track across zones determines how many
	// cylinders realize the target capacity.
	var avgSectors float64
	rates := make([]units.ByteRate, p.Zones)
	for z := 0; z < p.Zones; z++ {
		f := 0.0
		if p.Zones > 1 {
			f = float64(z) / float64(p.Zones-1)
		}
		rates[z] = p.OuterRate - units.ByteRate(f*float64(p.OuterRate-p.InnerRate))
		avgSectors += float64(sectorsAt(rates[z]))
	}
	avgSectors /= float64(p.Zones)
	cyls := int(math.Round(float64(p.Capacity) / (float64(p.Heads) * avgSectors * float64(p.SectorBytes))))
	if cyls < p.Zones {
		return nil, fmt.Errorf("disk: %s: capacity too small for %d zones", p.Name, p.Zones)
	}

	d := &Device{
		p: p, exponent: p.seekExponent(), cyls: cyls,
		period: p.RotationPeriod(),
		// A one-cylinder drive has no stroke to normalize by; a span of
		// one keeps the curve finite there instead of dividing by zero.
		seekSpan: float64(max(cyls-1, 1)),
	}
	perZone := cyls / p.Zones
	var lbn int64
	for z := 0; z < p.Zones; z++ {
		zc := perZone
		if z == p.Zones-1 {
			zc = cyls - perZone*(p.Zones-1) // remainder to the last zone
		}
		sec := sectorsAt(rates[z])
		zn := zone{
			firstCyl:   z * perZone,
			cyls:       zc,
			sectors:    sec,
			perCyl:     int64(p.Heads) * sec,
			secTime:    d.period / time.Duration(sec),
			rate:       rates[z],
			firstBlock: lbn,
			blocks:     int64(zc) * int64(p.Heads) * sec,
		}
		lbn += zn.blocks
		d.zones = append(d.zones, zn)
	}
	d.geom = device.Geometry{BlockSize: p.SectorBytes, Blocks: lbn}
	return d, nil
}

// Params returns the drive's parameter set.
func (d *Device) Params() Params { return d.p }

// Geometry returns the logical block geometry.
func (d *Device) Geometry() device.Geometry { return d.geom }

// zoneOf locates the zone containing lbn by linear scan (zones are few).
func (d *Device) zoneOf(lbn int64) *zone {
	for i := range d.zones {
		z := &d.zones[i]
		if lbn < z.firstBlock+z.blocks {
			return z
		}
	}
	return &d.zones[len(d.zones)-1]
}

// locate maps an LBN inside the zone to (cylinder, head, sector).
func (z *zone) locate(lbn int64) (cyl, head int, sector int64) {
	off := lbn - z.firstBlock
	cyl = z.firstCyl + int(off/z.perCyl)
	rem := off % z.perCyl
	head = int(rem / z.sectors)
	sector = rem % z.sectors
	return cyl, head, sector
}

// Cylinder returns the cylinder holding lbn; schedulers sort on it.
func (d *Device) Cylinder(lbn int64) int {
	z := d.zoneOf(lbn)
	return z.firstCyl + int((lbn-z.firstBlock)/z.perCyl)
}

// seekTo is the arm move time from the current cylinder to target. Moves
// shorter than len(seekMemo) cylinders — nearly every move an elevator
// sweep makes — are evaluated once and then read back. The memo fills
// lazily, so New costs nothing more, and lives in the Device, so devices
// with different Params (or in concurrent runs) share nothing. A zero slot
// means "not computed yet"; with SingleTrackSeek > 0 no nonzero move costs
// zero, and otherwise a zero slot is merely recomputed.
func (d *Device) seekTo(target int) time.Duration {
	dist := max(target-d.cyl, d.cyl-target)
	if dist == 0 {
		return 0
	}
	if dist < len(d.seekMemo) {
		if d.seekMemo[dist] == 0 {
			d.seekMemo[dist] = d.p.seekTimeNorm(float64(dist)/d.seekSpan, d.exponent)
		}
		return d.seekMemo[dist]
	}
	return d.p.seekTimeNorm(float64(dist)/d.seekSpan, d.exponent)
}

// Service performs one request starting at simulated time now. Positioning
// is seek plus the rotational wait for the target sector given the
// platter's tracked angle; transfers stream at the zone rate with head and
// track switches charged as they occur.
//
// The request's geometry is resolved once, with integer identities: one
// division splits the zone offset into (track, sector), a second the track
// into (cylinder, head). The end position follows from the start: a
// transfer that stays on its start track needs no division, one that
// crosses tracks a single one, and only a transfer that runs past its
// zone's last block locates its end afresh — charging each zone's part at
// that zone's sector time and taking the end angle from the end zone.
func (d *Device) Service(now time.Duration, r device.Request) (c device.Completion, err error) {
	if err = d.geom.Validate(r); err != nil {
		return c, err
	}
	z := d.zoneOf(r.Block)
	heads := int64(d.p.Heads)
	off := r.Block - z.firstBlock
	track, sector := off/z.sectors, off%z.sectors
	cyl, head := z.firstCyl+int(track/heads), int(track%heads)

	seek := d.seekTo(cyl)
	if head != d.head && seek < d.p.HeadSwitch {
		seek = d.p.HeadSwitch // head switch not hidden under the seek
	}

	// Rotational wait for the first sector after the seek completes. The
	// platter turned (arrive − lastTime) mod period since the last service;
	// that difference is almost always already in [0, period).
	turned := now + seek - d.lastTime
	if turned < 0 || turned >= d.period {
		turned %= d.period
	}
	angle := d.nowAngle + float64(turned)/float64(d.period)
	angle -= math.Floor(angle)
	wait := float64(sector)/float64(z.sectors) - angle
	if wait < 0 {
		wait++
	}
	rot := time.Duration(wait * float64(d.period))

	// Transfer: per-sector time in each zone, plus a head switch per track
	// boundary and a single-track seek per cylinder boundary crossed.
	xfer := time.Duration(r.Blocks) * z.secTime
	ez, endCyl, endHead, endSector := z, cyl, head, sector+r.Blocks-1
	if endSector >= z.sectors {
		if last := r.Block + r.Blocks - 1; last < z.firstBlock+z.blocks {
			endTrack := track + endSector/z.sectors
			endCyl, endHead, endSector = z.firstCyl+int(endTrack/heads), int(endTrack%heads), endSector%z.sectors
		} else { // ran past the zone: each zone's part at its own sector time
			ez = d.zoneOf(last)
			endCyl, endHead, endSector = ez.locate(last)
			xfer = 0
			for _, pz := range d.zones {
				if n := min(last+1, pz.firstBlock+pz.blocks) - max(r.Block, pz.firstBlock); n > 0 {
					xfer += time.Duration(n) * pz.secTime
				}
			}
		}
		xfer += time.Duration((endCyl-cyl)*d.p.Heads+endHead-head) * d.p.HeadSwitch
		xfer += time.Duration(endCyl-cyl) * d.p.SingleTrackSeek
	}

	finish := now + seek + rot + xfer
	d.cyl, d.head = endCyl, endHead
	d.lastTime = finish
	d.nowAngle = float64(endSector+1) / float64(ez.sectors)
	d.nowAngle -= math.Floor(d.nowAngle)

	c = r.Done(finish)
	d.served++
	d.busy += finish - now
	d.seekTime += seek
	d.rotTime += rot
	return c, nil
}

// Served reports completed requests.
func (d *Device) Served() uint64 { return d.served }

// BusyTime reports cumulative service time.
func (d *Device) BusyTime() time.Duration { return d.busy }

// TotalSeekTime reports cumulative arm-move time.
func (d *Device) TotalSeekTime() time.Duration { return d.seekTime }

// EffectiveRate returns the block-weighted mean media rate across zones —
// the sustainable transfer rate for content spread over the whole surface.
// Planning against the outer-zone maximum is optimistic for whole-disk
// layouts; the server simulator plans against this value instead.
func (d *Device) EffectiveRate() units.ByteRate {
	var sum float64
	for _, z := range d.zones {
		sum += float64(z.rate) * float64(z.blocks)
	}
	return units.ByteRate(sum / float64(d.geom.Blocks))
}
