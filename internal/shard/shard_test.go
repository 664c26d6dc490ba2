package shard

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"memstream/internal/server"
	"memstream/internal/units"
)

// MillionStreams is the headline scaling scenario: one million concurrent
// 10 KB/s streams across 245 partitions of 4096 — a run size whose
// single-threaded wall clock makes iteration impractical, and the point
// ROADMAP item 1 targets. Run it with as many workers as the host has
// cores.
func MillionStreams() Plan {
	p, err := Uniform(1_000_000, 4096, 10*units.KBPS, 0)
	if err != nil {
		panic(err) // static parameters; cannot fail
	}
	return p
}

// testPlan is a small uniform scenario: 4 partitions of 128 DivX streams.
func testPlan(t *testing.T) Plan {
	t.Helper()
	plan, err := Uniform(512, 128, 100*units.KBPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Partitions != 4 {
		t.Fatalf("Partitions = %d, want 4", plan.Partitions)
	}
	return plan
}

func TestSeedForPureFunction(t *testing.T) {
	if SeedFor(1, 0) != SeedFor(1, 0) {
		t.Error("SeedFor not deterministic")
	}
	seen := map[uint64]int{}
	for p := 0; p < 100; p++ {
		s := SeedFor(1, p)
		if prev, dup := seen[s]; dup {
			t.Fatalf("partitions %d and %d collide on seed %d", prev, p, s)
		}
		seen[s] = p
	}
	if SeedFor(1, 5) == SeedFor(2, 5) {
		t.Error("root seed does not influence partition seed")
	}
	if got := SeedFor(1, 3); got != 9968832046221062348 {
		t.Errorf("SeedFor(1, 3) = %d, want the value every partition seed was pinned at", got)
	}
}

// TestRunDeterministicAcrossShardCounts is the core contract: the merged
// result and every per-partition result are identical however many
// workers execute the plan — including a worker count that does not
// divide the partition count. Run under -race this also exercises the
// concurrent execution path.
func TestRunDeterministicAcrossShardCounts(t *testing.T) {
	plan := testPlan(t)
	base, err := Run(plan, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Merged.Streams != 512 {
		t.Errorf("merged streams = %d, want 512", base.Merged.Streams)
	}
	if base.Merged.Events == 0 || base.Merged.Cycles == 0 {
		t.Errorf("merged run fired no events/cycles: %+v", base.Merged)
	}
	for _, shards := range []int{2, 3, 4, 8} {
		rep, err := Run(plan, 42, shards)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(rep.Merged, base.Merged) {
			t.Errorf("shards=%d: merged result differs:\n got %+v\nwant %+v", shards, rep.Merged, base.Merged)
		}
		if got, want := rep.Merged.Render(), base.Merged.Render(); got != want {
			t.Errorf("shards=%d: rendered artifact differs:\n got %q\nwant %q", shards, got, want)
		}
		for p := range rep.Parts {
			if rep.Parts[p].Seed != base.Parts[p].Seed {
				t.Errorf("shards=%d: partition %d seed %d != %d", shards, p, rep.Parts[p].Seed, base.Parts[p].Seed)
			}
			if !reflect.DeepEqual(rep.Parts[p].Result, base.Parts[p].Result) {
				t.Errorf("shards=%d: partition %d result differs", shards, p)
			}
		}
	}
}

func TestRunStripesAndClamping(t *testing.T) {
	plan := testPlan(t)
	rep, err := Run(plan, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != 3 {
		t.Errorf("shards = %d, want 3", rep.Shards)
	}
	// Every partition ran, once, into its own slot.
	for p, pr := range rep.Parts {
		if pr.Part != p || pr.Err != "" {
			t.Errorf("Parts[%d] = partition %d, err %q", p, pr.Part, pr.Err)
		}
	}
	if rep.WallEventsPerSec() <= 0 {
		t.Error("throughput figure not positive")
	}

	// Shard counts above the partition count clamp.
	rep, err = Run(plan, 7, 99)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards != plan.Partitions {
		t.Errorf("shards = %d, want clamped to %d", rep.Shards, plan.Partitions)
	}
}

func TestRunPartitionFailure(t *testing.T) {
	plan := testPlan(t)
	inner := plan.Build
	plan.Build = func(part int, seed uint64) (server.Config, error) {
		if part == 2 {
			return server.Config{}, fmt.Errorf("injected failure in partition %d", part)
		}
		return inner(part, seed)
	}
	rep, err := Run(plan, 1, 2)
	if err == nil {
		t.Fatal("expected an error from partition 2")
	}
	if !strings.Contains(err.Error(), "partition 2") {
		t.Errorf("error %q does not name the failing partition", err)
	}
	// The other partitions still ran.
	for _, p := range []int{0, 1, 3} {
		if rep.Parts[p].Err != "" || rep.Parts[p].Result.Events == 0 {
			t.Errorf("partition %d did not complete: %+v", p, rep.Parts[p])
		}
	}
}

func TestUniformPartitionSizing(t *testing.T) {
	plan, err := Uniform(1000, 300, 100*units.KBPS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Partitions != 4 {
		t.Fatalf("Partitions = %d, want 4", plan.Partitions)
	}
	total := 0
	for p := 0; p < plan.Partitions; p++ {
		cfg, err := plan.Build(p, SeedFor(1, p))
		if err != nil {
			t.Fatal(err)
		}
		if cfg.FirstStreamID != p*300 {
			t.Errorf("partition %d FirstStreamID = %d, want %d", p, cfg.FirstStreamID, p*300)
		}
		total += cfg.N
	}
	if total != 1000 {
		t.Errorf("partition sizes sum to %d, want 1000", total)
	}
	if _, err := Uniform(0, 10, 0, 0); err == nil {
		t.Error("Uniform(0, ...) did not fail")
	}
	if _, err := Uniform(10, 0, 0, 0); err == nil {
		t.Error("Uniform(.., 0, ...) did not fail")
	}
}

func TestMillionStreamsPlanShape(t *testing.T) {
	plan := MillionStreams()
	if plan.Partitions != 245 {
		t.Errorf("Partitions = %d, want 245", plan.Partitions)
	}
	total := 0
	for p := 0; p < plan.Partitions; p++ {
		cfg, err := plan.Build(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		total += cfg.N
	}
	if total != 1_000_000 {
		t.Errorf("stream total = %d, want 1000000", total)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Plan{Partitions: 0}, 1, 1); err == nil {
		t.Error("empty plan did not fail")
	}
	if _, err := Run(Plan{Partitions: 1}, 1, 1); err == nil {
		t.Error("plan without Build did not fail")
	}
}

// withTimeout guards the scenario-duration plumbing: a partition given an
// explicit duration must simulate at least that horizon.
func TestUniformDuration(t *testing.T) {
	plan, err := Uniform(128, 128, 100*units.KBPS, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(plan, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The rig floors the horizon to whole IO cycles, so allow one cycle of
	// slack below the requested duration.
	if rep.Merged.SimulatedTime < 25*time.Second {
		t.Errorf("simulated %v, want ≈30s (≥25s after cycle quantization)", rep.Merged.SimulatedTime)
	}
}
