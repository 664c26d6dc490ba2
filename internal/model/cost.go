package model

import (
	"fmt"
	"math"

	"memstream/internal/units"
)

// TierCost prices one middle tier: devices are bought whole, so a bank
// of k devices costs k·PerGB·DeviceSize even when partially used (the
// paper's Eq 2, stated there for MEMS).
type TierCost struct {
	PerGB      units.Dollars // C_tier, $/GB
	DeviceSize units.Bytes   // Size_tier, capacity of one device
}

// CostModel carries the unit prices of the buffering media: DRAM per
// byte plus one entry per middle tier. The paper's hierarchy has exactly
// one middle tier (MEMS); the vector form prices arbitrary N-tier
// hierarchies with the same per-device model.
type CostModel struct {
	DRAMPerGB units.Dollars // C_dram, $/GB
	Tiers     []TierCost    // middle tiers, outermost first
}

// NewCostModel builds the common single-middle-tier model.
func NewCostModel(dramPerGB, tierPerGB units.Dollars, deviceSize units.Bytes) CostModel {
	return CostModel{
		DRAMPerGB: dramPerGB,
		Tiers:     []TierCost{{PerGB: tierPerGB, DeviceSize: deviceSize}},
	}
}

// Table3Costs returns the paper's 2007 price points: DRAM $20/GB, MEMS
// $1/GB in 10GB devices ($10/device).
func Table3Costs() CostModel {
	return NewCostModel(20, 1, 10*units.GB)
}

// Validate checks the prices.
func (c CostModel) Validate() error {
	if c.DRAMPerGB <= 0 || len(c.Tiers) == 0 {
		return fmt.Errorf("model: cost model has non-positive entries: %+v", c)
	}
	for _, t := range c.Tiers {
		if t.PerGB <= 0 || t.DeviceSize <= 0 {
			return fmt.Errorf("model: cost model has non-positive entries: %+v", c)
		}
	}
	return nil
}

// DRAMCost prices a DRAM allocation.
func (c CostModel) DRAMCost(b units.Bytes) units.Dollars {
	return units.PerGB(c.DRAMPerGB).Cost(b)
}

// DeviceCost prices one device of tier i (C_tier · Size_tier).
func (c CostModel) DeviceCost(i int) units.Dollars {
	t := c.Tiers[i]
	return units.PerGB(t.PerGB).Cost(t.DeviceSize)
}

// BankCost prices a k-device bank of the first middle tier (the
// per-device model of Eq 2).
func (c CostModel) BankCost(k int) units.Dollars {
	return c.TierBankCost(0, k)
}

// TierBankCost prices a k-device bank of tier i.
func (c CostModel) TierBankCost(i, k int) units.Dollars {
	return units.Dollars(float64(k) * float64(c.DeviceCost(i)))
}

// DRAMFor inverts DRAMCost: how much DRAM a budget buys.
func (c CostModel) DRAMFor(budget units.Dollars) units.Bytes {
	if budget <= 0 {
		return 0
	}
	return units.Bytes(float64(budget) / float64(c.DRAMPerGB) * 1e9)
}

// CostWithoutMEMS evaluates Eq 1: the buffering cost of a direct
// disk→DRAM server.
func CostWithoutMEMS(load StreamLoad, disk DeviceSpec, costs CostModel) (units.Dollars, error) {
	if err := costs.Validate(); err != nil {
		return 0, err
	}
	plan, err := DiskDirect(load, disk)
	if err != nil {
		return 0, err
	}
	return costs.DRAMCost(plan.TotalDRAM), nil
}

// CostWithBuffer evaluates Eq 2: the buffering cost with a k-device MEMS
// buffer — the bank at per-device prices plus the (reduced) DRAM.
func CostWithBuffer(cfg BufferConfig, costs CostModel) (units.Dollars, error) {
	if err := costs.Validate(); err != nil {
		return 0, err
	}
	plan, err := BufferPlan(cfg)
	if err != nil {
		return 0, err
	}
	return costs.BankCost(cfg.K) + costs.DRAMCost(plan.TotalDRAM), nil
}

// MinFeasibleK returns the smallest bank size (at least kMin) whose
// aggregate bandwidth and capacity admit a buffered plan for cfg.Load,
// or an error when even maxK devices do not suffice. The paper's buffer
// experiments use kMin = 2 because a single device cannot supply twice
// the FutureDisk streaming bandwidth (its §5.1).
func MinFeasibleK(cfg BufferConfig, kMin, maxK int) (int, BufferedPlan, error) {
	if kMin < 1 {
		kMin = 1
	}
	for k := kMin; k <= maxK; k++ {
		cfg.K = k
		plan, err := BufferPlan(cfg)
		if err == nil {
			return k, plan, nil
		}
	}
	return 0, BufferedPlan{}, fmt.Errorf("%w: no feasible bank size in [%d,%d]",
		ErrInfeasible, kMin, maxK)
}

// MaxStreamsDirect returns the largest N a direct disk→DRAM server
// sustains with at most dramCap of DRAM (0 = unlimited; then only disk
// bandwidth limits N). Total DRAM N·S(N) grows monotonically in N, so a
// binary search over N suffices.
func MaxStreamsDirect(bitRate units.ByteRate, disk DeviceSpec, dramCap units.Bytes) int {
	feasible := func(n int) bool {
		plan, err := DiskDirect(StreamLoad{N: n, BitRate: bitRate}, disk)
		if err != nil {
			return false
		}
		return dramCap == 0 || plan.TotalDRAM <= dramCap
	}
	return MaxFeasible(feasible)
}

// MaxStreamsCached returns the largest N a cache-equipped server sustains
// with at most dramCap of DRAM. cfg.Load.N is ignored; the other fields
// configure the cache.
func MaxStreamsCached(cfg CacheConfig, dramCap units.Bytes) int {
	feasible := func(n int) bool {
		c := cfg
		c.Load.N = n
		plan, err := CachePlan(c)
		if err != nil {
			return false
		}
		return dramCap == 0 || plan.TotalDRAM <= dramCap
	}
	return MaxFeasible(feasible)
}

// MaxStreamsBuffered returns the largest N a MEMS-buffered server sustains
// with at most dramCap of DRAM.
func MaxStreamsBuffered(cfg BufferConfig, dramCap units.Bytes) int {
	feasible := func(n int) bool {
		c := cfg
		c.Load.N = n
		plan, err := BufferPlan(c)
		if err != nil {
			return false
		}
		return dramCap == 0 || plan.TotalDRAM <= dramCap
	}
	return MaxFeasible(feasible)
}

// MaxFeasible finds the largest n with feasible(n) true, assuming
// feasibility is monotone (true up to some n*, false beyond). Returns 0
// when even n = 1 is infeasible.
func MaxFeasible(feasible func(int) bool) int {
	if !feasible(1) {
		return 0
	}
	lo, hi := 1, 2
	for feasible(hi) {
		lo = hi
		if hi > math.MaxInt32/2 {
			return hi // unbounded in practice; caller's parameters are degenerate
		}
		hi *= 2
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
