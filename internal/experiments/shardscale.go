package experiments

import (
	"fmt"

	"memstream/internal/shard"
	"memstream/internal/units"
)

func init() {
	register("shardscale",
		"Sharded multi-core engine: partitioned direct servers with deterministic merge (our addition)", runShardScale)
}

// runShardScale exercises the shard layer at suite-friendly size: 2048
// DivX streams split into 8 partitions of 256, each an independent
// direct-mode server on its own FutureDisk, run on one worker: the suite
// is the parallel layer. The artifact renders the per-partition results
// and the deterministic merge, and excludes wall-clock figures, so it is
// byte-identical at any worker count. The full-size variant of this
// scenario (a million streams across 245 partitions) runs via
// memsim -scale and is recorded in the BENCH_<n>.json trajectory.
func runShardScale(seed uint64) (Result, error) {
	plan, err := shard.Uniform(2048, 256, 100*units.KBPS, 0)
	if err != nil {
		return Result{}, err
	}
	rep, err := shard.Run(plan, seed, 1)
	if err != nil {
		return Result{}, err
	}

	var met Metrics
	out := fmt.Sprintf("plan %s: %d partitions, seeds split from root %d\n\n",
		rep.Plan, rep.Partitions, seed)
	out += fmt.Sprintf("%-5s %-20s %8s %8s %8s %11s\n",
		"part", "seed", "streams", "events", "cycles", "underflows")
	for _, pr := range rep.Parts {
		met.addRun(pr.Result)
		out += fmt.Sprintf("%-5d %-20d %8d %8d %8d %11d\n",
			pr.Part, pr.Seed, pr.Result.Streams, pr.Result.Events,
			pr.Result.Cycles, pr.Result.Underflows)
	}
	out += "\nmerged (order-independent fold, byte-identical at any shard count):\n"
	out += rep.Merged.Render()
	return Result{Output: out, Metrics: met}, nil
}
