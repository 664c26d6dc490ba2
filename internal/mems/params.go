// Package mems models a MEMS-based storage device after the CMU
// architecture of Schlosser, Griffin, Nagle and Ganger (ASPLOS 2000): a
// spring-mounted magnetic media sled suspended over a two-dimensional array
// of fixed read/write tips. The sled seeks in X (cross-track, requiring a
// settle phase) and streams in Y at constant velocity while thousands of
// tips transfer concurrently.
//
// The paper under reproduction uses the CMU "third generation" (G3) device
// predictions for 2007: 320 MB/s, 0.45 ms full-stroke seek, 0.14 ms X settle
// time, 10 GB per device, $1/GB and $10/device (its Table 3). This package
// reproduces those numbers as a full device simulator: logical blocks are
// mapped onto (cylinder, track, sector) coordinates, seeks follow the
// spring-mass square-root law, and per-request service times emerge from
// sled position rather than from a constant.
package mems

import (
	"fmt"
	"time"

	"memstream/internal/units"
)

// Params describes one MEMS device generation.
type Params struct {
	Name string
	Year int

	// Capacity and layout.
	Capacity    units.Bytes
	SectorBytes units.Bytes // logical block size
	Cylinders   int         // distinct X positions
	ActiveTips  int         // tips transferring concurrently

	// Sled dynamics. Seek time across a fraction f of the full stroke
	// follows the constant-acceleration law t = FullStrokeSeek * sqrt(f);
	// X repositioning additionally pays SettleX once.
	FullStrokeSeekX time.Duration
	FullStrokeSeekY time.Duration
	SettleX         time.Duration
	// Turnaround is the penalty for reversing Y direction between
	// back-to-back transfers (springs must decelerate and re-launch).
	Turnaround time.Duration

	// Media rate with all active tips streaming.
	Rate units.ByteRate

	// Cost model (paper Table 3 uses per-device entry cost, Eq 2).
	CostPerGB  units.Dollars
	CostPerDev units.Dollars
}

// G1 is a first-generation device (c. 2003). The CMU papers published full
// parameters only for their baseline and G3 designs; G1/G2 here follow the
// generation-over-generation scaling CMU described (density doubling,
// actuator improvements), anchored so G3 matches the paper's Table 3.
func G1() Params {
	return Params{
		Name:            "G1 MEMS",
		Year:            2003,
		Capacity:        3.46 * units.GB,
		SectorBytes:     512,
		Cylinders:       2500,
		ActiveTips:      1280,
		FullStrokeSeekX: units.Milliseconds(0.81),
		FullStrokeSeekY: units.Milliseconds(0.81),
		SettleX:         units.Milliseconds(0.22),
		Turnaround:      units.Milliseconds(0.06),
		Rate:            89.6 * units.MBPS,
		CostPerGB:       10,
		CostPerDev:      35,
	}
}

// G2 is a second-generation device (c. 2005), interpolated as for G1.
func G2() Params {
	return Params{
		Name:            "G2 MEMS",
		Year:            2005,
		Capacity:        6.92 * units.GB,
		SectorBytes:     512,
		Cylinders:       2500,
		ActiveTips:      2560,
		FullStrokeSeekX: units.Milliseconds(0.60),
		FullStrokeSeekY: units.Milliseconds(0.60),
		SettleX:         units.Milliseconds(0.18),
		Turnaround:      units.Milliseconds(0.05),
		Rate:            180 * units.MBPS,
		CostPerGB:       3,
		CostPerDev:      21,
	}
}

// G3 is the third-generation device the paper evaluates (its Table 3):
// 10 GB, 320 MB/s, 0.45 ms full-stroke seek, 0.14 ms X settle, $1/GB,
// $10/device.
func G3() Params {
	return Params{
		Name:            "G3 MEMS",
		Year:            2007,
		Capacity:        10 * units.GB,
		SectorBytes:     512,
		Cylinders:       2500,
		ActiveTips:      3200,
		FullStrokeSeekX: units.Milliseconds(0.45),
		FullStrokeSeekY: units.Milliseconds(0.45),
		SettleX:         units.Milliseconds(0.14),
		Turnaround:      units.Milliseconds(0.04),
		Rate:            320 * units.MBPS,
		CostPerGB:       1,
		CostPerDev:      10,
	}
}

// Validate checks the parameter set for internal consistency.
func (p Params) Validate() error {
	switch {
	case p.Capacity <= 0:
		return fmt.Errorf("mems: %s: non-positive capacity", p.Name)
	case p.SectorBytes <= 0:
		return fmt.Errorf("mems: %s: non-positive sector size", p.Name)
	case p.Cylinders <= 0:
		return fmt.Errorf("mems: %s: non-positive cylinder count", p.Name)
	case p.ActiveTips <= 0:
		return fmt.Errorf("mems: %s: non-positive tip count", p.Name)
	case p.Rate <= 0:
		return fmt.Errorf("mems: %s: non-positive rate", p.Name)
	case p.FullStrokeSeekX < 0 || p.FullStrokeSeekY < 0 || p.SettleX < 0 || p.Turnaround < 0:
		return fmt.Errorf("mems: %s: negative timing parameter", p.Name)
	}
	return nil
}

// MaxLatency is the worst-case positioning time: a full X stroke plus
// settle, with the (shorter or equal) Y reposition fully overlapped. The
// paper's evaluation always charges MEMS IOs this maximum (its §5).
func (p Params) MaxLatency() time.Duration {
	x := p.FullStrokeSeekX + p.SettleX
	y := p.FullStrokeSeekY + p.Turnaround
	if y > x {
		return y
	}
	return x
}

// AvgLatency is the expected positioning time for a uniformly random
// relocation: E[max(tX+settle, tY)] with both displacement fractions
// uniform on |a-b| for a,b ~ U[0,1]. Computed by fixed-grid numerical
// integration at construction time (no RNG involved). The weights and the
// per-axis times depend on one grid index each, so they are computed once
// per index, by the same expressions, outside the double loop.
func (p Params) AvgLatency() time.Duration {
	const grid = 200
	var w, tx, ty [grid]float64
	sx, settle := p.FullStrokeSeekX.Seconds(), p.SettleX.Seconds()
	sy, turn := p.FullStrokeSeekY.Seconds(), p.Turnaround.Seconds()
	for i := range w {
		// Displacement fraction u has density 2(1-u) on [0,1].
		u := (float64(i) + 0.5) / grid
		w[i] = 2 * (1 - u)
		tx[i] = sx*sqrtf(u) + settle
		ty[i] = sy*sqrtf(u) + turn
	}
	var sum, weight float64
	for i := range w {
		for j := range w {
			m := tx[i]
			if ty[j] > m {
				m = ty[j]
			}
			sum += w[i] * w[j] * m
			weight += w[i] * w[j]
		}
	}
	return units.Seconds(sum / weight)
}
