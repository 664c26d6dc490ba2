package mems

import (
	"testing"
	"time"
)

// TestGenerationMonotonicity pins the scaling story the G1/G2
// interpolation is built on: each generation's latencies are no worse and
// its bandwidth, capacity, and prices strictly improve. A parameter edit
// that breaks the trajectory breaks the generations experiment's claim.
func TestGenerationMonotonicity(t *testing.T) {
	gens := []Params{G1(), G2(), G3()}
	for i := 1; i < len(gens); i++ {
		prev, cur := gens[i-1], gens[i]
		if cur.MaxLatency() > prev.MaxLatency() {
			t.Errorf("%s max latency %v exceeds %s's %v",
				cur.Name, cur.MaxLatency(), prev.Name, prev.MaxLatency())
		}
		if cur.AvgLatency() > prev.AvgLatency() {
			t.Errorf("%s avg latency %v exceeds %s's %v",
				cur.Name, cur.AvgLatency(), prev.Name, prev.AvgLatency())
		}
		if cur.Rate <= prev.Rate {
			t.Errorf("%s rate %v not above %s's %v", cur.Name, cur.Rate, prev.Name, prev.Rate)
		}
		if cur.Capacity <= prev.Capacity {
			t.Errorf("%s capacity %v not above %s's %v",
				cur.Name, cur.Capacity, prev.Name, prev.Capacity)
		}
		if cur.CostPerGB >= prev.CostPerGB {
			t.Errorf("%s $/GB %v not below %s's %v",
				cur.Name, cur.CostPerGB, prev.Name, prev.CostPerGB)
		}
		if cur.CostPerDev >= prev.CostPerDev {
			t.Errorf("%s $/device %v not below %s's %v",
				cur.Name, cur.CostPerDev, prev.Name, prev.CostPerDev)
		}
		if cur.Year <= prev.Year {
			t.Errorf("%s year %d not after %s's %d", cur.Name, cur.Year, prev.Name, prev.Year)
		}
	}
	for _, p := range gens {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if p.AvgLatency() > p.MaxLatency() {
			t.Errorf("%s: avg latency %v above max %v", p.Name, p.AvgLatency(), p.MaxLatency())
		}
	}
}

// TestParamsValidateRejects exercises every arm of Validate with a
// single-field mutation of the known-good G3 parameters.
func TestParamsValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero capacity", func(p *Params) { p.Capacity = 0 }},
		{"negative capacity", func(p *Params) { p.Capacity = -1 }},
		{"zero sector", func(p *Params) { p.SectorBytes = 0 }},
		{"zero cylinders", func(p *Params) { p.Cylinders = 0 }},
		{"negative cylinders", func(p *Params) { p.Cylinders = -4 }},
		{"zero tips", func(p *Params) { p.ActiveTips = 0 }},
		{"zero rate", func(p *Params) { p.Rate = 0 }},
		{"negative rate", func(p *Params) { p.Rate = -1 }},
		{"negative seek X", func(p *Params) { p.FullStrokeSeekX = -time.Microsecond }},
		{"negative seek Y", func(p *Params) { p.FullStrokeSeekY = -time.Microsecond }},
		{"negative settle", func(p *Params) { p.SettleX = -time.Microsecond }},
		{"negative turnaround", func(p *Params) { p.Turnaround = -time.Microsecond }},
	}
	for _, tc := range cases {
		p := G3()
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, p)
		}
	}
	if err := G3().Validate(); err != nil {
		t.Fatalf("unmutated G3 rejected: %v", err)
	}
}

// refAvgLatency is AvgLatency as it was before the per-axis terms left
// the double loop: every term evaluated in the inner loop.
func refAvgLatency(p Params) time.Duration {
	const grid = 200
	var sum, weight float64
	for i := 0; i < grid; i++ {
		u := (float64(i) + 0.5) / grid
		wu := 2 * (1 - u)
		tx := p.FullStrokeSeekX.Seconds()*sqrtf(u) + p.SettleX.Seconds()
		for j := 0; j < grid; j++ {
			v := (float64(j) + 0.5) / grid
			wv := 2 * (1 - v)
			ty := p.FullStrokeSeekY.Seconds()*sqrtf(v) + p.Turnaround.Seconds()
			m := tx
			if ty > m {
				m = ty
			}
			sum += wu * wv * m
			weight += wu * wv
		}
	}
	return time.Duration(sum / weight * float64(time.Second))
}

// TestAvgLatencyMatchesInnerLoopTerms pins the hoisted grid to the
// inner-loop evaluation, on the three generations and on parameter sets
// where the X or the Y axis dominates everywhere.
func TestAvgLatencyMatchesInnerLoopTerms(t *testing.T) {
	xHeavy, yHeavy := G3(), G2()
	xHeavy.SettleX = time.Millisecond
	yHeavy.FullStrokeSeekY, yHeavy.Turnaround = 3*time.Millisecond, 0
	for _, p := range []Params{G1(), G2(), G3(), xHeavy, yHeavy} {
		if got, want := p.AvgLatency(), refAvgLatency(p); got != want {
			t.Errorf("%s: AvgLatency %v, inner-loop evaluation %v", p.Name, got, want)
		}
	}
}
