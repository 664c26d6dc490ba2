package shard

import (
	"fmt"
	"time"

	"memstream/internal/disk"
	"memstream/internal/server"
	"memstream/internal/units"
)

// Uniform builds the scaling scenario: total streams split into
// fixed-size partitions of per streams each (the last partition takes the
// remainder), every partition an independent direct-mode server on its
// own FutureDisk with a disjoint global stream-ID range. The partition
// size — not the worker count — is what fixes the simulated system, so the
// same total is byte-identical however many workers execute it.
//
// duration is the per-partition simulated run length (0 = the direct
// mode's default of 10 IO cycles). rate is the per-stream bit rate; the
// default 10 KB/s MP3 class keeps a 4096-stream partition comfortably
// inside one FutureDisk's bandwidth, which is what lets the scenario
// scale to a million streams across ~250 partitions.
func Uniform(total, per int, rate units.ByteRate, duration time.Duration) (Plan, error) {
	if total <= 0 {
		return Plan{}, fmt.Errorf("shard: uniform scenario needs a positive stream total, got %d", total)
	}
	if per <= 0 {
		return Plan{}, fmt.Errorf("shard: uniform scenario needs a positive partition size, got %d", per)
	}
	if per > total {
		per = total
	}
	if rate <= 0 {
		rate = 10 * units.KBPS
	}
	parts := (total + per - 1) / per
	size := per // captured: Build must not race on loop state
	return Plan{
		Name:       fmt.Sprintf("uniform-%d", total),
		Partitions: parts,
		Build: func(part int, seed uint64) (server.Config, error) {
			n := size
			if part == parts-1 {
				n = total - size*(parts-1)
			}
			return server.Config{
				Mode:          server.Direct,
				Disk:          disk.FutureDisk(),
				N:             n,
				BitRate:       rate,
				Titles:        64,
				X:             10,
				Y:             90,
				FirstStreamID: part * size,
				Duration:      duration,
				Seed:          seed,
			}, nil
		},
	}, nil
}
