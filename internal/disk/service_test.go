package disk

import (
	"fmt"
	"testing"
	"time"

	"memstream/internal/device"
	"memstream/internal/sim"
	"memstream/internal/units"
)

// smallParams is a drive small enough that multi-track, multi-cylinder and
// zone-crossing transfers are common: 6000 RPM (a 10 ms revolution), two
// heads, ten cylinders in two zones of five — 100 sectors a track in the
// outer zone, 50 in the inner — and 1500 blocks in all.
func smallParams() Params {
	return Params{
		Name:            "small",
		RPM:             6000,
		Capacity:        10 * 2 * 75 * 512,
		SectorBytes:     512,
		Heads:           2,
		Zones:           2,
		OuterRate:       512 * 100.5 / 0.01, // 100 sectors a track
		InnerRate:       512 * 50.5 / 0.01,  // 50 sectors a track
		SingleTrackSeek: units.Milliseconds(1),
		AvgSeek:         units.Milliseconds(4),
		FullStrokeSeek:  units.Milliseconds(8),
		HeadSwitch:      units.Milliseconds(0.5),
	}
}

// zonedParams is a mid-sized drive: eight zones of a few dozen cylinders,
// so a random sweep crosses zones without the transfers being mostly
// crossings, as they are on smallParams.
func zonedParams() Params {
	p := smallParams()
	p.Name, p.Heads, p.Zones, p.Capacity = "zoned", 4, 8, 300*4*75*512
	return p
}

func mustNew(t testing.TB, p Params) *Device {
	t.Helper()
	d, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSmallParamsGeometry(t *testing.T) {
	d := mustNew(t, smallParams())
	if d.cyls != 10 || len(d.zones) != 2 || d.geom.Blocks != 1500 {
		t.Fatalf("%d cylinders, %d zones, %d blocks; want 10, 2, 1500", d.cyls, len(d.zones), d.geom.Blocks)
	}
	for i, want := range []zone{
		{firstCyl: 0, cyls: 5, sectors: 100, perCyl: 200, secTime: 100 * time.Microsecond, firstBlock: 0, blocks: 1000},
		{firstCyl: 5, cyls: 5, sectors: 50, perCyl: 100, secTime: 200 * time.Microsecond, firstBlock: 1000, blocks: 500},
	} {
		got := d.zones[i]
		got.rate = 0
		if got != want {
			t.Errorf("zone %d = %+v, want %+v", i, got, want)
		}
	}
}

// TestServiceSplitsZoneCrossing checks hand-computed transfers that run
// past the outer zone's last block (999) into the inner zone: each part
// streams at its own zone's 100 µs or 200 µs a sector, stepping from
// cylinder 4 head 1 onto cylinder 5 head 0 is one head switch and one
// single-track seek, and the end angle is measured on the inner zone's
// 50-sector track.
func TestServiceSplitsZoneCrossing(t *testing.T) {
	const hs, sts = 500 * time.Microsecond, time.Millisecond
	for _, tc := range []struct {
		r                device.Request
		xfer             time.Duration
		endCyl, endHead  int
		endAngle         float64
		startCyl, startH int
	}{
		// 50 blocks at 100 µs, 50 at 200 µs; ends on sector 49 of
		// cylinder 5 head 0, the last of its track.
		{device.Request{Block: 950, Blocks: 100}, 50*100*time.Microsecond + 50*200*time.Microsecond + hs + sts, 5, 0, 0, 4, 1},
		// 10 blocks at 100 µs, 150 at 200 µs: three tracks onward in
		// the inner zone (global track 9 → 12), two cylinders (4 → 6);
		// ends on sector 49 of cylinder 6 head 0.
		{device.Request{Block: 990, Blocks: 160}, 10*100*time.Microsecond + 150*200*time.Microsecond + 3*hs + 2*sts, 6, 0, 0, 4, 1},
		// Ends mid-track: sector 24 of cylinder 5 head 0, angle 25/50.
		{device.Request{Block: 999, Blocks: 26}, 100*time.Microsecond + 25*200*time.Microsecond + hs + sts, 5, 0, 0.5, 4, 1},
	} {
		t.Run(fmt.Sprintf("%d+%d", tc.r.Block, tc.r.Blocks), func(t *testing.T) {
			d := mustNew(t, smallParams())
			if c, h, _ := locate(d, tc.r.Block); c != tc.startCyl || h != tc.startH {
				t.Fatalf("start at cylinder %d head %d, want %d, %d", c, h, tc.startCyl, tc.startH)
			}
			if _, err := d.Service(0, tc.r); err != nil {
				t.Fatal(err)
			}
			if got := transfer(d); got != tc.xfer {
				t.Errorf("transfer %v, want %v", got, tc.xfer)
			}
			if d.cyl != tc.endCyl || d.head != tc.endHead || d.nowAngle != tc.endAngle {
				t.Errorf("ended at cylinder %d head %d angle %v, want %d, %d, %v",
					d.cyl, d.head, d.nowAngle, tc.endCyl, tc.endHead, tc.endAngle)
			}
		})
	}
}

// lbnAt is the LBN at (cyl, head, sector), the inverse of locate.
func lbnAt(d *Device, cyl, head int, sector int64) int64 {
	for i := range d.zones {
		z := &d.zones[i]
		if cyl < z.firstCyl+z.cyls {
			return z.firstBlock + (int64(cyl-z.firstCyl)*int64(d.p.Heads)+int64(head))*z.sectors + sector%z.sectors
		}
	}
	panic("cylinder past the last zone")
}

// serviceProgram draws a random request and its start time. It mixes
// single-track, multi-track, multi-cylinder and zone-crossing transfers,
// re-reads of recent extents (cache hits when a cache is attached) and
// writes, and times them before the head's last service, exactly one or
// more revolutions after it with no seek in between, and after it.
type serviceProgram struct {
	rng    *sim.RNG
	recent []device.Request
}

func (g *serviceProgram) next(d *Device) (device.Request, time.Duration) {
	rng, blocks := g.rng, d.geom.Blocks
	z0 := d.zones[0]
	var r device.Request
	switch k := rng.Intn(10); {
	case k == 0 && len(g.recent) > 0:
		r = g.recent[rng.Intn(len(g.recent))]
	case k == 1: // the head's own track: no seek, no head switch
		r.Block = lbnAt(d, d.cyl, d.head, int64(rng.Intn(1<<20)))
		r.Blocks = 1 + int64(rng.Intn(8))
	case k == 2: // across a zone boundary
		edge := d.zones[1+rng.Intn(len(d.zones)-1)].firstBlock
		r.Block = edge - 1 - int64(rng.Intn(int(2*z0.perCyl)))
		r.Blocks = edge - r.Block + 1 + int64(rng.Intn(int(2*z0.perCyl)))
	case k < 6: // within one track
		r.Block = int64(rng.Uint64n(uint64(blocks)))
		r.Blocks = 1 + int64(rng.Intn(int(z0.sectors)))
	default: // tracks and cylinders onward
		r.Block = int64(rng.Uint64n(uint64(blocks)))
		r.Blocks = 1 + int64(rng.Intn(int(4*z0.perCyl)))
	}
	r.Block = max(min(r.Block, blocks-1), 0)
	r.Blocks = min(r.Blocks, blocks-r.Block)
	r.Op = device.Read
	if rng.Intn(6) == 0 {
		r.Op = device.Write
	}
	if len(g.recent) < 16 {
		g.recent = append(g.recent, r)
	} else {
		g.recent[rng.Intn(16)] = r
	}

	now := d.lastTime + time.Duration(rng.Intn(int(d.period)))
	switch rng.Intn(8) {
	case 0: // before the last service ended
		now = d.lastTime - time.Duration(rng.Intn(int(3*d.period)))
	case 1, 2: // exactly whole revolutions later; on the head's track arrive − lastTime is then a multiple of the period
		now = d.lastTime + time.Duration(1+rng.Intn(3))*d.period
	case 3: // more than a revolution later
		now = d.lastTime + d.period + time.Duration(rng.Intn(int(5*d.period)))
	}
	return r, now
}

// TestServiceMatchesRefService drives random request programs through
// Service and through refService on twin drives. After every request the
// completion, the head's cylinder, head, angle and time, and all five
// counters must be equal.
func TestServiceMatchesRefService(t *testing.T) {
	for _, p := range []Params{FutureDisk(), Atlas10K3(), smallParams(), zonedParams()} {
		for _, cached := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cache=%v", p.Name, cached), func(t *testing.T) {
				got, want := mustNew(t, p), mustNew(t, p)
				if cached {
					capacity := units.Bytes(min(got.geom.Blocks/4, 1<<18)) * p.SectorBytes
					for _, d := range []*Device{got, want} {
						if err := d.EnableCache(capacity, 600*units.MBPS); err != nil {
							t.Fatal(err)
						}
					}
				}
				g := &serviceProgram{rng: sim.NewRNG(uint64(len(p.Name)) + 7)}
				var before, onePeriod, beyond int // arrive − lastTime < 0, = period, > period
				for i := 0; i < 20000; i++ {
					r, now := g.next(want)
					seek0, last0 := want.seekTime, want.lastTime
					c, err := got.Service(now, r)
					w, werr := refService(want, now, r)
					if err != nil || werr != nil {
						t.Fatalf("request %d %+v: err=%v ref err=%v", i, r, err, werr)
					}
					if c != w {
						t.Fatalf("request %d at %v:\n got %+v\nwant %+v", i, now, c, w)
					}
					sameHead(t, got, want)
					if got.served != want.served || got.busy != want.busy || got.seekTime != want.seekTime ||
						got.rotTime != want.rotTime {
						t.Fatalf("request %d %+v: counters (%d %v %v %v), want (%d %v %v %v)", i, r,
							got.served, got.busy, got.seekTime, got.rotTime,
							want.served, want.busy, want.seekTime, want.rotTime)
					}
					if want.lastTime == w.Finish { // a cache hit leaves the platter clock alone
						switch turned := now + want.seekTime - seek0 - last0; {
						case turned < 0:
							before++
						case turned == want.period:
							onePeriod++
						case turned > want.period:
							beyond++
						}
					}
				}
				if cached && want.cache.Hits == 0 {
					t.Error("program never hit the cache")
				}
				if before == 0 || onePeriod == 0 || beyond == 0 {
					t.Errorf("program reached arrive − lastTime < 0 %d times, = period %d, > period %d; want each", before, onePeriod, beyond)
				}
			})
		}
	}
}

// TestSeekMemoMatchesCurve checks every memoised distance, and the first
// one past the memo, against the curve in both directions, read both
// when the slot is filled and when it is read back; and that a second
// drive's memo starts empty and fills with its own curve.
func TestSeekMemoMatchesCurve(t *testing.T) {
	fd, atlas := mustNew(t, FutureDisk()), mustNew(t, Atlas10K3())
	var empty [len(fd.seekMemo)]time.Duration
	for _, d := range []*Device{fd, atlas, mustNew(t, smallParams())} {
		for dist := 1; dist <= len(d.seekMemo); dist++ {
			want := d.p.seekTimeNorm(float64(dist)/d.seekSpan, d.exponent)
			for pass := 0; pass < 2; pass++ {
				d.cyl = 100
				if got := d.seekTo(100 + dist); got != want {
					t.Fatalf("%s: seek +%d pass %d = %v, want %v", d.p.Name, dist, pass, got, want)
				}
				if got := d.seekTo(100 - dist); got != want {
					t.Fatalf("%s: seek −%d pass %d = %v, want %v", d.p.Name, dist, pass, got, want)
				}
			}
			if dist < len(d.seekMemo) && d.seekMemo[dist] != want {
				t.Fatalf("%s: memo slot %d = %v, want %v", d.p.Name, dist, d.seekMemo[dist], want)
			}
		}
		if d == fd && atlas.seekMemo != empty {
			t.Fatal("filling FutureDisk's seek memo filled Atlas 10K III's")
		}
	}
	if fd.seekMemo[1] == atlas.seekMemo[1] {
		t.Fatalf("FutureDisk and Atlas 10K III share a one-cylinder seek time %v", fd.seekMemo[1])
	}
}

// TestCylinderMatchesZoneLocate checks Cylinder's one division against the
// zone's locate around every zone's first and last block.
func TestCylinderMatchesZoneLocate(t *testing.T) {
	for _, p := range []Params{FutureDisk(), Atlas10K3(), smallParams(), zonedParams()} {
		d := mustNew(t, p)
		for _, z := range d.zones {
			for _, edge := range []int64{z.firstBlock, z.firstBlock + z.blocks - 1} {
				for lbn := max(edge-1, 0); lbn <= min(edge+1, d.geom.Blocks-1); lbn++ {
					if want, _, _ := locate(d, lbn); d.Cylinder(lbn) != want {
						t.Errorf("%s: Cylinder(%d) = %d, zone locate says %d", p.Name, lbn, d.Cylinder(lbn), want)
					}
				}
			}
		}
	}
}
