// Package units defines the scalar quantities used throughout memstream:
// byte counts, data rates, durations and monetary cost.
//
// The analytical model in the paper mixes decimal storage units (a "10GB"
// MEMS device), data rates in bytes per second, latencies in milliseconds
// and costs in dollars per gigabyte. Keeping each quantity in its own named
// type prevents the classic unit mix-ups (MB vs MiB, $/GB vs $/B) that
// would silently distort every figure.
package units

import (
	"fmt"
	"math"
	"time"
)

// Bytes is a byte count. Storage sizes in the paper are decimal
// (1 GB = 1e9 bytes), matching how drive vendors quote capacity.
type Bytes float64

// Decimal byte units, as used by storage vendors and by the paper.
const (
	B  Bytes = 1
	KB Bytes = 1e3
	MB Bytes = 1e6
	GB Bytes = 1e9
	TB Bytes = 1e12
)

// ByteRate is a data transfer rate in bytes per second.
type ByteRate float64

// Common rates.
const (
	BPS  ByteRate = 1
	KBPS ByteRate = 1e3
	MBPS ByteRate = 1e6
	GBPS ByteRate = 1e9
)

// Dollars is a monetary amount in US dollars.
type Dollars float64

// PerByte is a unit cost in dollars per byte (the paper's C_dram, C_mems).
type PerByte float64

// PerGB converts a $/GB price (how the paper quotes costs) to PerByte.
func PerGB(d Dollars) PerByte { return PerByte(float64(d) / 1e9) }

// Cost returns the dollar cost of s bytes at unit price p.
func (p PerByte) Cost(s Bytes) Dollars { return Dollars(float64(p) * float64(s)) }

// Mul scales a byte count.
func (b Bytes) Mul(x float64) Bytes { return Bytes(float64(b) * x) }

// Seconds returns the time needed to move b bytes at rate r.
// It returns +Inf for non-positive rates.
func (b Bytes) Seconds(r ByteRate) float64 {
	if r <= 0 {
		return math.Inf(1)
	}
	return float64(b) / float64(r)
}

// Duration returns the transfer time of b bytes at rate r as a
// time.Duration, saturating at the maximum representable duration.
func (b Bytes) Duration(r ByteRate) time.Duration {
	s := b.Seconds(r)
	if math.IsInf(s, 1) || s > float64(math.MaxInt64)/1e9 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(s * float64(time.Second))
}

// BytesIn returns the number of bytes transferred at rate r over d.
func BytesIn(r ByteRate, d time.Duration) Bytes {
	return Bytes(float64(r) * d.Seconds())
}

// RateOf returns the rate that moves b bytes in d. It returns 0 for
// non-positive durations.
func RateOf(b Bytes, d time.Duration) ByteRate {
	if d <= 0 {
		return 0
	}
	return ByteRate(float64(b) / d.Seconds())
}

// String renders a byte count with a scaled decimal suffix ("1.50GB").
func (b Bytes) String() string {
	v, neg := float64(b), ""
	if v < 0 {
		v, neg = -v, "-"
	}
	switch {
	case v >= 1e12:
		return fmt.Sprintf("%s%.2fTB", neg, v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%s%.2fGB", neg, v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%s%.2fMB", neg, v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%s%.2fKB", neg, v/1e3)
	default:
		return fmt.Sprintf("%s%.0fB", neg, v)
	}
}

// String renders a rate with a scaled decimal suffix ("300.00MB/s").
func (r ByteRate) String() string {
	v, neg := float64(r), ""
	if v < 0 {
		v, neg = -v, "-"
	}
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%s%.2fGB/s", neg, v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%s%.2fMB/s", neg, v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%s%.2fKB/s", neg, v/1e3)
	default:
		return fmt.Sprintf("%s%.0fB/s", neg, v)
	}
}

// String renders dollars ("$12.34").
func (d Dollars) String() string {
	if d < 0 {
		return fmt.Sprintf("-$%.2f", -float64(d))
	}
	return fmt.Sprintf("$%.2f", float64(d))
}

// Milliseconds converts a millisecond count to a time.Duration.
func Milliseconds(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// Seconds converts a second count to a time.Duration.
func Seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
