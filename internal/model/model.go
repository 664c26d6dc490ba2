// Package model implements the paper's analytical framework (its Section
// 4): closed-form minimum DRAM buffer sizes for real-time streaming under
// time-cycle scheduling, with and without a bank of k MEMS devices used as
// a disk buffer or as a content cache, plus the buffering-cost model.
//
// Conventions (paper §5): MEMS IOs are charged the device's maximum
// positioning latency; disk IOs are charged the scheduler-determined
// average. All streams are CBR at the average bit-rate B̄ (VBR adds a
// cushion, paper footnote 1; see workload.CushionFor).
package model

import (
	"errors"
	"fmt"
	"math"
	"time"

	"memstream/internal/units"
)

// ErrInfeasible reports that no IO schedule can satisfy the real-time
// requirement with the given parameters (e.g. the device lacks bandwidth
// for N streams).
var ErrInfeasible = errors.New("model: real-time requirement infeasible")

// StreamLoad describes the stream population the server must sustain.
type StreamLoad struct {
	N       int            // number of concurrent streams
	BitRate units.ByteRate // B̄, average stream bit-rate
}

// Validate checks the load.
func (l StreamLoad) Validate() error {
	if l.N <= 0 {
		return fmt.Errorf("model: need at least one stream, got %d", l.N)
	}
	if l.BitRate <= 0 {
		return fmt.Errorf("model: non-positive bit-rate %v", l.BitRate)
	}
	return nil
}

// DeviceSpec carries the two numbers the model needs per device: its media
// transfer rate R_d and its per-IO latency L̄_d under the chosen
// convention.
type DeviceSpec struct {
	Rate    units.ByteRate
	Latency time.Duration
}

// Validate checks the spec.
func (d DeviceSpec) Validate() error {
	if d.Rate <= 0 {
		return fmt.Errorf("model: non-positive device rate %v", d.Rate)
	}
	if d.Latency < 0 {
		return fmt.Errorf("model: negative device latency %v", d.Latency)
	}
	return nil
}

// cycleAndBuffer solves the basic time-cycle recurrence: in one cycle T the
// device performs one IO per stream, paying L̄ positioning plus S/R
// transfer per IO, with S = B̄·T to sustain playback:
//
//	N·(L̄ + B̄·T/R) ≤ T  ⇒  T ≥ N·L̄·R / (R − N·B̄)
//
// It returns the minimal cycle and the per-stream buffer S = B̄·T.
func cycleAndBuffer(n float64, bitRate units.ByteRate, dev DeviceSpec) (time.Duration, units.Bytes, error) {
	agg := n * float64(bitRate)
	if agg >= float64(dev.Rate) {
		return 0, 0, fmt.Errorf("%w: aggregate %v ≥ device rate %v",
			ErrInfeasible, units.ByteRate(agg), dev.Rate)
	}
	t := n * dev.Latency.Seconds() * float64(dev.Rate) / (float64(dev.Rate) - agg)
	s := units.Bytes(float64(bitRate) * t)
	return units.Seconds(t), s, nil
}

// DirectPlan is the result of Theorem 1 (disk→DRAM) or Corollary 1
// (MEMS→DRAM): a feasible minimal time-cycle schedule.
type DirectPlan struct {
	Cycle     time.Duration // IO cycle T
	PerStream units.Bytes   // per-stream DRAM buffer S (Eq 3/4)
	TotalDRAM units.Bytes   // N·S
	IOSize    units.Bytes   // device IO size per stream per cycle (= S)
}

// DiskDirect computes Theorem 1: the minimum per-stream DRAM buffer for a
// system streaming straight from the disk:
//
//	S_disk-dram = N·L̄_disk·R_disk·B̄ / (R_disk − N·B̄)   (Eq 3)
func DiskDirect(load StreamLoad, disk DeviceSpec) (DirectPlan, error) {
	if err := load.Validate(); err != nil {
		return DirectPlan{}, err
	}
	if err := disk.Validate(); err != nil {
		return DirectPlan{}, err
	}
	t, s, err := cycleAndBuffer(float64(load.N), load.BitRate, disk)
	if err != nil {
		return DirectPlan{}, err
	}
	return DirectPlan{
		Cycle:     t,
		PerStream: s,
		TotalDRAM: s.Mul(float64(load.N)),
		IOSize:    s,
	}, nil
}

// MEMSDirect computes Corollary 1: the minimum per-stream DRAM buffer when
// streaming straight from a single MEMS device (Eq 4).
func MEMSDirect(load StreamLoad, mems DeviceSpec) (DirectPlan, error) {
	return DiskDirect(load, mems) // identical algebra with R, L̄ of the MEMS device
}

// BufferConfig describes a k-device middle-tier bank (MEMS in the
// paper) used as a disk buffer.
type BufferConfig struct {
	Load          StreamLoad
	Disk          DeviceSpec
	Tier          DeviceSpec  // middle-tier device (the paper's MEMS)
	K             int         // devices in the bank
	SizePerDevice units.Bytes // Size_tier, capacity of one device
}

// Validate checks the configuration.
func (c BufferConfig) Validate() error {
	if err := c.Load.Validate(); err != nil {
		return err
	}
	if err := c.Disk.Validate(); err != nil {
		return err
	}
	if err := c.Tier.Validate(); err != nil {
		return err
	}
	if c.K <= 0 {
		return fmt.Errorf("model: need at least one MEMS device, got %d", c.K)
	}
	if c.SizePerDevice <= 0 {
		return fmt.Errorf("model: non-positive MEMS capacity %v", c.SizePerDevice)
	}
	return nil
}

// BufferedPlan is the result of Theorem 2: a feasible schedule for a
// system that stages every disk IO through a k-device MEMS buffer.
type BufferedPlan struct {
	DiskCycle    time.Duration // T_disk, maximized subject to Eq 6–8
	MEMSCycle    time.Duration // T_mems = (M/N)·T_disk
	M            int           // disk transfers per MEMS IO cycle (Eq 8)
	MinMEMSCycle time.Duration // C, the bandwidth-limited minimum MEMS cycle

	PerStreamDRAM units.Bytes // S_mems-dram (Eq 5)
	TotalDRAM     units.Bytes // N·S_mems-dram
	DiskIOSize    units.Bytes // S_disk-mems = B̄·T_disk per stream
	MEMSBufferUse units.Bytes // staged data across the bank (≤ k·Size_mems)
}

// BufferPlan computes Theorem 2. The per-stream DRAM buffer is
//
//	S_mems-dram = B̄·C·(1 + (2k−2)/N)·T_disk / (T_disk − C)   (Eq 5)
//	C = N·L̄_mems·R_mems / (k·R_mems − 2·(N+k−1)·B̄)
//
// where T_disk is the largest cycle satisfying the real-time lower bound
// (Eq 6), the MEMS capacity bound 2·N·T_disk·B̄ ≤ k·Size_mems (Eq 7), and
// the rational cycle-ratio requirement T_mems/T_disk = M/N with integer
// M < N (Eq 8).
func BufferPlan(cfg BufferConfig) (BufferedPlan, error) {
	if err := cfg.Validate(); err != nil {
		return BufferedPlan{}, err
	}
	n := float64(cfg.Load.N)
	k := float64(cfg.K)
	b := float64(cfg.Load.BitRate)
	rm := float64(cfg.Tier.Rate)

	// Bandwidth feasibility at the MEMS bank: it moves every byte twice
	// (disk-side write + DRAM-side read), with up to ⌈N/k⌉-imbalance
	// captured by the (N+k−1) term.
	denom := k*rm - 2*(n+k-1)*b
	if denom <= 0 {
		return BufferedPlan{}, fmt.Errorf(
			"%w: MEMS bank bandwidth %v cannot sustain 2×(N+k−1)×B̄ = %v",
			ErrInfeasible, units.ByteRate(k*rm), units.ByteRate(2*(n+k-1)*b))
	}
	c := n * cfg.Tier.Latency.Seconds() * rm / denom

	// Eq 6: the disk itself must sustain N streams.
	tMin, _, err := cycleAndBuffer(n, cfg.Load.BitRate, cfg.Disk)
	if err != nil {
		return BufferedPlan{}, err
	}

	// Eq 7: double-buffered staged data must fit in the bank.
	tCap := k * float64(cfg.SizePerDevice) / (2 * n * b)
	tDisk := tCap
	if tDisk < tMin.Seconds() {
		return BufferedPlan{}, fmt.Errorf(
			"%w: MEMS capacity bound T≤%.3fs is below the disk's minimum cycle %v",
			ErrInfeasible, tCap, tMin)
	}
	if tDisk <= c {
		return BufferedPlan{}, fmt.Errorf(
			"%w: disk cycle %.3fs does not exceed minimum MEMS cycle %.3fs",
			ErrInfeasible, tDisk, c)
	}

	// Eq 8: T_mems/T_disk = M/N with integer M < N. Pick the smallest M
	// whose MEMS cycle is still feasible (≥ C); larger M only delays
	// disk-side transfers.
	m := int(math.Ceil(c * n / tDisk))
	if m < 1 {
		m = 1
	}
	switch {
	case cfg.Load.N == 1:
		// Degenerate single-stream pipeline: Eq 8's strict M < N cannot
		// hold; the schedule collapses to lock-step cycles (M = 1).
		m = 1
	case m >= cfg.Load.N:
		return BufferedPlan{}, fmt.Errorf(
			"%w: cycle ratio M=%d must stay below N=%d", ErrInfeasible, m, cfg.Load.N)
	}
	tMems := float64(m) / n * tDisk
	if tMems < c {
		tMems = c // guard against rounding at tiny N
	}

	s := b * c * (1 + (2*k-2)/n) * tDisk / (tDisk - c)
	plan := BufferedPlan{
		DiskCycle:     units.Seconds(tDisk),
		MEMSCycle:     units.Seconds(tMems),
		M:             m,
		MinMEMSCycle:  units.Seconds(c),
		PerStreamDRAM: units.Bytes(s),
		TotalDRAM:     units.Bytes(s * n),
		DiskIOSize:    units.Bytes(b * tDisk),
		MEMSBufferUse: units.Bytes(2 * n * tDisk * b),
	}
	return plan, nil
}

// CapDiskCycle bounds the plan's disk cycle at limit and recomputes the
// dependent quantities. Theorem 2 maximizes T_disk to the capacity bound
// (often hundreds of seconds), which is fine analytically but impractical
// to simulate; capping shrinks the disk-side IO proportionally
// (S_disk-mems = B̄·T_disk) while the MEMS cycle keeps the plan's M/N
// ratio, clamped at the bandwidth-limited minimum C. The load must be the
// one the plan was computed for. A plan already within the limit is left
// untouched.
func (p *BufferedPlan) CapDiskCycle(limit time.Duration, load StreamLoad) {
	if p.DiskCycle <= limit {
		return
	}
	p.DiskCycle = limit
	p.DiskIOSize = units.Bytes(float64(load.BitRate) * limit.Seconds())
	p.MEMSCycle = time.Duration(float64(limit) * float64(p.M) / float64(load.N))
	if p.MEMSCycle < p.MinMEMSCycle {
		p.MEMSCycle = p.MinMEMSCycle
	}
}
