// Command memsim runs single simulations outside the experiment suite:
// with -sim one traced server simulation, and with -scale the sharded
// scaling scenario. The paper's experiment suite runs through memsbench.
//
// Usage:
//
//	memsim -sim buffered -trace buffered.json       # one traced simulation
//	memsim -scale 1000000 -shards 8 -json s.json    # sharded scaling scenario
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"memstream/internal/disk"
	"memstream/internal/model"
	"memstream/internal/server"
	"memstream/internal/shard"
	"memstream/internal/tier"
	"memstream/internal/units"
)

func main() {
	seed := flag.Uint64("seed", 1, "root RNG seed for -sim and -scale")
	tierName := flag.String("tier", tier.Default, "middle-tier parameter set for -sim: "+strings.Join(tier.Names(), ", "))
	jsonPath := flag.String("json", "", "with -scale: write the JSON document to this file")
	shards := flag.Int("shards", 1, "with -scale: worker count, 0 = GOMAXPROCS (merged results are byte-identical at any value)")
	scale := flag.Int("scale", 0, "run the sharded scaling scenario with this many total streams")
	scalePer := flag.Int("scale-per", 4096, "with -scale: streams per partition (the unit of determinism)")
	scaleRate := flag.String("scale-rate", "10KB", "with -scale: per-stream bit rate")
	simMode := flag.String("sim", "", "run one server simulation with per-cycle tracing: direct, edf, buffered, cached, hybrid")
	simStreams := flag.Int("streams", 0, "with -sim: concurrent streams (0 = mode default)")
	simRate := flag.String("bitrate", "", "with -sim: per-stream bit rate, e.g. 1MB (default: mode default)")
	tracePath := flag.String("trace", "", "with -sim: write the trace JSON document to this file (default stdout)")
	flag.Parse()

	switch {
	case *scale > 0:
		if err := runScale(*scale, *scalePer, *scaleRate, *seed, *shards, *jsonPath, os.Stdout); err != nil {
			fatal(err)
		}
	case *simMode != "":
		if err := runSim(*simMode, *tierName, *simStreams, *simRate, *seed, *tracePath); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("nothing to run: give -sim MODE or -scale N"))
	}
}

// scaleDoc is the JSON document -scale emits: the scenario identity, the
// deterministic merged counters (byte-identical at any -shards value), and
// the execution figures (worker count, wall clock and rate, which are not).
// scripts/bench.sh folds this into the BENCH_<n>.json "scaling" array.
type scaleDoc struct {
	Plan       string `json:"plan"`
	Streams    int    `json:"streams"`
	Partitions int    `json:"partitions"`
	Shards     int    `json:"shards"`
	Seed       uint64 `json:"seed"`

	Events        uint64        `json:"events"`
	Cycles        int64         `json:"cycles"`
	Underflows    int           `json:"underflows"`
	SimulatedTime time.Duration `json:"simulated_ns"`

	WallNS int64 `json:"wall_ns"`
	// EventsPerSec is end-to-end: merged events over total wall clock.
	EventsPerSec float64 `json:"events_per_sec"`
}

// runScale runs the uniform sharded scaling scenario: total streams in
// partitions of per, each partition an independent direct-mode server,
// run on shards workers. The merged summary printed to w is byte-identical
// at any worker count; the JSON document additionally records the
// execution figures.
func runScale(total, per int, rateStr string, seed uint64, shards int, jsonPath string, w io.Writer) error {
	rate := 10 * units.KBPS
	if rateStr != "" {
		b, err := units.ParseBytes(rateStr)
		if err != nil {
			return fmt.Errorf("bad -scale-rate: %w", err)
		}
		rate = units.ByteRate(b)
	}
	plan, err := shard.Uniform(total, per, rate, 0)
	if err != nil {
		return err
	}
	rep, err := shard.Run(plan, seed, shards)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "plan %s: %d partitions, root seed %d\n", rep.Plan, rep.Partitions, rep.RootSeed)
	fmt.Fprint(w, rep.Merged.Render())
	fmt.Fprintf(w, "shards=%d wall=%v events_per_sec=%.0f\n",
		rep.Shards, rep.Wall.Round(time.Millisecond), rep.WallEventsPerSec())

	if jsonPath == "" {
		return nil
	}
	doc := scaleDoc{
		Plan:       rep.Plan,
		Streams:    rep.Merged.Streams,
		Partitions: rep.Partitions,
		Shards:     rep.Shards,
		Seed:       rep.RootSeed,

		Events:        rep.Merged.Events,
		Cycles:        rep.Merged.Cycles,
		Underflows:    rep.Merged.Underflows,
		SimulatedTime: rep.Merged.SimulatedTime,

		WallNS:       int64(rep.Wall),
		EventsPerSec: rep.WallEventsPerSec(),
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(data, '\n'), 0o644)
}

// traceDoc is the JSON document -sim emits: the run's identity, its
// end-of-run scalars, and the per-cycle time series the server's probe
// recorded (see EXPERIMENTS.md for the schema).
type traceDoc struct {
	Mode          string        `json:"mode"`
	Streams       int           `json:"streams"`
	BitRate       units.Bytes   `json:"bit_rate_bps"`
	Seed          uint64        `json:"seed"`
	SimulatedTime time.Duration `json:"simulated_ns"`
	Cycles        int64         `json:"cycles"`
	Events        uint64        `json:"events"`
	Underflows    int           `json:"underflows"`
	DRAMHighWater units.Bytes   `json:"dram_high_water"`
	DiskUtil      float64       `json:"disk_util"`
	MEMSUtil      float64       `json:"mems_util"`
	Trace         *server.Trace `json:"trace"`
}

// runSim runs one server simulation with the observability probe attached
// and writes the per-cycle trace JSON document to path (stdout if empty).
func runSim(mode, tierName string, streams int, rate string, seed uint64, path string) error {
	spec, err := tier.Lookup(tierName)
	if err != nil {
		return err
	}
	cfg := server.Config{
		Disk: disk.FutureDisk(), Tier: spec, K: 2,
		Titles: 50, X: 10, Y: 90, Seed: seed, Trace: true,
	}
	// Mode defaults mirror the paper's operating points: DVD-rate streams
	// on the disk paths, DivX-rate fan-out on the cache paths.
	n, br := 50, 1*units.MBPS
	switch mode {
	case "direct":
		cfg.Mode = server.Direct
	case "edf":
		cfg.Mode = server.Direct
		cfg.UseEDF = true
	case "buffered":
		cfg.Mode = server.Buffered
		n = 100
	case "cached":
		cfg.Mode = server.Cached
		cfg.CachePolicy = model.Striped
		n, br = 200, 100*units.KBPS
		cfg.Titles = 400
	case "hybrid":
		cfg.Mode = server.Hybrid
		cfg.K, cfg.CacheDevices = 4, 2
		n, br = 300, 100*units.KBPS
		cfg.Titles = 400
	default:
		return fmt.Errorf("unknown -sim mode %q (want direct, edf, buffered, cached, hybrid)", mode)
	}
	if streams > 0 {
		n = streams
	}
	if rate != "" {
		b, err := units.ParseBytes(rate)
		if err != nil {
			return fmt.Errorf("bad -bitrate: %w", err)
		}
		br = units.ByteRate(b)
	}
	cfg.N, cfg.BitRate = n, br

	res, err := server.Run(cfg)
	if err != nil {
		return err
	}
	doc := traceDoc{
		Mode:          mode,
		Streams:       res.Streams,
		BitRate:       units.Bytes(br),
		Seed:          seed,
		SimulatedTime: res.SimulatedTime,
		Cycles:        res.Cycles,
		Events:        res.Events,
		Underflows:    res.Underflows,
		DRAMHighWater: res.DRAMHighWater,
		DiskUtil:      res.DiskUtil,
		MEMSUtil:      res.MEMSUtil,
		Trace:         res.Trace,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memsim:", err)
	os.Exit(1)
}
