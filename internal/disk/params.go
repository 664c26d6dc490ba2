// Package disk models a magnetic disk drive: multi-zone recording, a
// calibrated seek curve, rotational position tracking, and elevator
// scheduling. The paper evaluates a projected 2007 drive ("FutureDisk",
// based on Maxtor roadmaps: 20,000 RPM, 300 MB/s, 2.8 ms average seek,
// 7.0 ms full stroke, 1 TB) against a 2002 Maxtor Atlas 10K III.
package disk

import (
	"fmt"
	"math"
	"time"

	"memstream/internal/units"
)

// Params describes a disk drive model. The cylinder count is not a
// parameter: the simulator derives it from capacity, zone transfer rates
// and sector size, so the stated capacity and bandwidth are always
// mutually consistent.
type Params struct {
	Name string
	Year int

	RPM         int
	Capacity    units.Bytes
	SectorBytes units.Bytes
	Heads       int // recording surfaces

	// Zoned recording: the outermost zone transfers at OuterRate, the
	// innermost at InnerRate, with Zones discrete steps in between.
	Zones     int
	OuterRate units.ByteRate
	InnerRate units.ByteRate

	// Seek curve anchors. The curve is t(u) = SingleTrackSeek +
	// (FullStrokeSeek-SingleTrackSeek) * u^p over normalized distance u,
	// with p calibrated so a uniformly random seek averages AvgSeek.
	SingleTrackSeek time.Duration
	AvgSeek         time.Duration
	FullStrokeSeek  time.Duration

	HeadSwitch time.Duration // head change within a cylinder

	CostPerGB  units.Dollars
	CostPerDev units.Dollars
}

// FutureDisk is the 2007 drive of the paper's Table 3.
func FutureDisk() Params {
	return Params{
		Name:            "FutureDisk",
		Year:            2007,
		RPM:             20000,
		Capacity:        1000 * units.GB,
		SectorBytes:     512,
		Heads:           8,
		Zones:           16,
		OuterRate:       300 * units.MBPS,
		InnerRate:       170 * units.MBPS,
		SingleTrackSeek: units.Milliseconds(0.3),
		AvgSeek:         units.Milliseconds(2.8),
		FullStrokeSeek:  units.Milliseconds(7.0),
		HeadSwitch:      units.Milliseconds(0.2),
		CostPerGB:       0.2,
		CostPerDev:      200,
	}
}

// Atlas10K3 approximates the 2002 Maxtor Atlas 10K III (paper Table 1's
// 2002 disk column: 1–11 ms access, 30–55 MB/s).
func Atlas10K3() Params {
	return Params{
		Name:            "Atlas 10K III",
		Year:            2002,
		RPM:             10000,
		Capacity:        73 * units.GB,
		SectorBytes:     512,
		Heads:           8,
		Zones:           16,
		OuterRate:       55 * units.MBPS,
		InnerRate:       30 * units.MBPS,
		SingleTrackSeek: units.Milliseconds(0.4),
		AvgSeek:         units.Milliseconds(4.5),
		FullStrokeSeek:  units.Milliseconds(10.5),
		HeadSwitch:      units.Milliseconds(0.5),
		CostPerGB:       2,
		CostPerDev:      150,
	}
}

// Validate checks the parameter set.
func (p Params) Validate() error {
	switch {
	case p.RPM <= 0:
		return fmt.Errorf("disk: %s: non-positive RPM", p.Name)
	case p.Capacity <= 0 || p.SectorBytes <= 0:
		return fmt.Errorf("disk: %s: non-positive capacity or sector size", p.Name)
	case p.Heads <= 0 || p.Zones <= 0:
		return fmt.Errorf("disk: %s: bad geometry", p.Name)
	case p.OuterRate < p.InnerRate || p.InnerRate <= 0:
		return fmt.Errorf("disk: %s: bad zone rates", p.Name)
	case p.SingleTrackSeek < 0 || p.AvgSeek <= p.SingleTrackSeek || p.FullStrokeSeek <= p.AvgSeek:
		return fmt.Errorf("disk: %s: seek anchors must satisfy single < avg < full", p.Name)
	}
	return nil
}

// RotationPeriod is one full revolution.
func (p Params) RotationPeriod() time.Duration {
	return time.Duration(60e9 / float64(p.RPM))
}

// AvgRotLatency is half a revolution, the expected wait for a random sector.
func (p Params) AvgRotLatency() time.Duration { return p.RotationPeriod() / 2 }

// AvgAccess is the paper's L̄_disk under random access: average seek plus
// average rotational latency.
func (p Params) AvgAccess() time.Duration { return p.AvgSeek + p.AvgRotLatency() }

// MaxAccess is the worst-case positioning: full stroke plus a missed
// revolution.
func (p Params) MaxAccess() time.Duration { return p.FullStrokeSeek + p.RotationPeriod() }

// seekExponent calibrates the curve exponent q so that a uniformly random
// seek distance (density 2(1-u) on the normalized distance u) averages
// AvgSeek. E[u^q] = 2/((q+1)(q+2)) for that density, so we solve
//
//	SingleTrack + (Full-Single) * 2/((q+1)(q+2)) = Avg
//
// for q by bisection.
func (p Params) seekExponent() float64 {
	target := float64(p.AvgSeek-p.SingleTrackSeek) / float64(p.FullStrokeSeek-p.SingleTrackSeek)
	lo, hi := 1e-3, 64.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		e := 2 / ((mid + 1) * (mid + 2))
		if e > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// seekTimeNorm returns the arm move time across the normalized distance
// u in [0,1], given the pre-calibrated exponent. Pointer receiver: it runs
// once per serviced request, and Params is too large to copy there.
func (p *Params) seekTimeNorm(u, exponent float64) time.Duration {
	if u <= 0 {
		return 0
	}
	if u > 1 {
		u = 1
	}
	frac := math.Pow(u, exponent)
	return p.SingleTrackSeek + time.Duration(frac*float64(p.FullStrokeSeek-p.SingleTrackSeek))
}
