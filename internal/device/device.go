// Package device defines the common vocabulary shared by the disk and MEMS
// models: IO requests, service-time statistics, and the effective-throughput
// relation (paper Figure 2) that motivates buffering in the first place.
package device

import (
	"fmt"
	"time"

	"memstream/internal/units"
)

// Op distinguishes reads from writes.
type Op uint8

// Request operations.
const (
	Read Op = iota
	Write
)

// String names the operation.
func (o Op) String() string {
	if o == Write {
		return "write"
	}
	return "read"
}

// Request is one IO against a block device. A device serves it at the
// now its caller passes in.
type Request struct {
	Op     Op
	Block  int64 // starting logical block
	Blocks int64 // length in logical blocks
	Stream int   // owning stream id, -1 for none
}

// Done reports r as served, with its service ending at finish.
func (r Request) Done(finish time.Duration) Completion {
	return Completion{Op: r.Op, Blocks: r.Blocks, Stream: r.Stream, Finish: finish}
}

// Completion reports how one request was serviced: what the callers of
// Service and Dispatch read of the request, and the simulated time its
// service ended. Service starts at the now the caller passed in. The
// serving device counts it in BusyTime and its positioning in
// TotalSeekTime (on a disk also a rotational-wait counter); transfer is
// busy − positioning. It does not carry the request's starting block: no
// caller reads it.
//
// Request and Completion are four fields and 32 bytes each, the largest
// struct the Go compiler keeps in SSA form (ssa.CanSSA: at most four
// pointer words and four fields per level), so they stay in registers
// through every Service, Dispatch and CacheBank.Read hop. A larger one
// is spilled to the stack after each call that returns it and copied
// back with 16-byte loads that straddle the spilled stores and stall;
// TestCompletionFitsResultRegisters keeps both types in range.
type Completion struct {
	Op     Op
	Blocks int64         // length in logical blocks
	Stream int           // owning stream id, -1 for none
	Finish time.Duration // service end (simulated)
}

// Geometry describes a block device's addressable space.
type Geometry struct {
	BlockSize units.Bytes // bytes per logical block
	Blocks    int64       // total logical blocks
}

// Capacity returns the device's total byte capacity.
func (g Geometry) Capacity() units.Bytes {
	return g.BlockSize * units.Bytes(g.Blocks)
}

// Validate checks a request against the geometry.
func (g Geometry) Validate(r Request) error {
	if r.Blocks <= 0 {
		return fmt.Errorf("device: request has %d blocks", r.Blocks)
	}
	// Compared against Blocks − r.Blocks, which cannot overflow once
	// r.Blocks > 0; the end r.Block + r.Blocks can.
	if r.Block < 0 || r.Block > g.Blocks-r.Blocks {
		return fmt.Errorf("device: request of %d blocks at %d outside device of %d blocks",
			r.Blocks, r.Block, g.Blocks)
	}
	return nil
}

// EffectiveThroughput returns the sustained throughput when the device is
// accessed in IOs of the given size, paying latency lat per IO:
//
//	T_eff(S) = S / (lat + S/R)
//
// This is the relation plotted in the paper's Figure 2.
func EffectiveThroughput(io units.Bytes, rate units.ByteRate, lat time.Duration) units.ByteRate {
	if io <= 0 {
		return 0
	}
	total := lat.Seconds() + io.Seconds(rate)
	if total <= 0 {
		return rate
	}
	return units.ByteRate(float64(io) / total)
}

// IOSizeFor inverts EffectiveThroughput: the IO size needed to sustain
// throughput target on a device with the given rate and per-IO latency.
// It returns 0 if the target is not achievable (target >= rate).
func IOSizeFor(target, rate units.ByteRate, lat time.Duration) units.Bytes {
	if target <= 0 || target >= rate {
		return 0
	}
	// S/(lat + S/R) = t  =>  S = t*lat / (1 - t/R)
	return units.Bytes(float64(target) * lat.Seconds() / (1 - float64(target)/float64(rate)))
}

// Utilization is the fraction of peak media rate delivered at IO size io.
func Utilization(io units.Bytes, rate units.ByteRate, lat time.Duration) float64 {
	if rate <= 0 {
		return 0
	}
	return float64(EffectiveThroughput(io, rate, lat)) / float64(rate)
}
