// Command memsim exercises the device simulators directly: it generates or
// replays an IO trace against the disk and MEMS models and reports
// per-device service behaviour — a small standalone counterpart to the
// DiskSim-style tooling the CMU MEMS papers used. With -sim it runs one
// traced server simulation, and with -scale the sharded scaling scenario.
// The paper's experiment suite runs through memsbench.
//
// Usage:
//
//	memsim -device g3 -n 10000 -io 64KB            # random IOs on G3 MEMS
//	memsim -device nvm-optane -n 10000 -io 64KB    # any tier registry set
//	memsim -device futuredisk -policy c-look ...    # scheduled batch
//	memsim -record trace.txt ...                    # save the trace
//	memsim -replay trace.txt -device g3             # replay a saved trace
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

	"memstream/internal/device"
	"memstream/internal/disk"
	"memstream/internal/model"
	"memstream/internal/server"
	"memstream/internal/shard"
	"memstream/internal/sim"
	"memstream/internal/tier"
	"memstream/internal/trace"
	"memstream/internal/units"
)

// serviceable abstracts the two device simulators for the replay loop.
type serviceable interface {
	Service(now time.Duration, r device.Request) (device.Completion, error)
	Geometry() device.Geometry
	Model() device.Model
}

func main() {
	devName := flag.String("device", "g3", "device: a middle-tier set name ("+strings.Join(tier.Names(), ", ")+"; g1..g3 alias mems-g*), or futuredisk, atlas10k3, array2, array4")
	n := flag.Int("n", 10000, "number of random IOs to generate")
	ioSize := flag.String("io", "64KB", "IO size for generated traces")
	seed := flag.Uint64("seed", 1, "RNG seed for generated traces")
	policy := flag.String("policy", "fcfs", "scheduling for generated batches: fcfs, sptf/sstf, elevator/c-look")
	tierName := flag.String("tier", tier.Default, "middle-tier parameter set for -sim: "+strings.Join(tier.Names(), ", "))
	record := flag.String("record", "", "write the generated trace to this file")
	replay := flag.String("replay", "", "replay a trace file instead of generating")
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

	if *scale > 0 {
		if err := runScale(*scale, *scalePer, *scaleRate, *seed, *shards, *jsonPath, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *simMode != "" {
		if err := runSim(*simMode, *tierName, *simStreams, *simRate, *seed, *tracePath); err != nil {
			fatal(err)
		}
		return
	}

	dev, isDisk, err := openDevice(*devName)
	if err != nil {
		fatal(err)
	}

	var events []trace.Event
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		events, err = trace.ReadText(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		size, err := units.ParseBytes(*ioSize)
		if err != nil {
			fatal(err)
		}
		events = generate(dev.Geometry(), *n, size, *seed)
		if *record != "" {
			f, err := os.Create(*record)
			if err != nil {
				fatal(err)
			}
			if err := trace.WriteText(f, events); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
	}

	completions, err := runTrace(dev, isDisk, *policy, events)
	if err != nil {
		fatal(err)
	}
	report(dev, events, completions)
}

func openDevice(name string) (serviceable, bool, error) {
	switch name {
	case "futuredisk":
		d, err := disk.New(disk.FutureDisk())
		return d, true, err
	case "atlas10k3":
		d, err := disk.New(disk.Atlas10K3())
		return d, true, err
	case "array2":
		a, err := disk.NewArray(2, disk.FutureDisk(), units.Bytes(1e6))
		return a, true, err
	case "array4":
		a, err := disk.NewArray(4, disk.FutureDisk(), units.Bytes(1e6))
		return a, true, err
	}
	// Everything else is a middle-tier registry name ("mems-g3",
	// "nvm-optane", ...; "g1".."g3" alias the MEMS generations).
	spec, err := tier.Lookup(name)
	if err != nil {
		return nil, false, err
	}
	d, err := tier.New(spec)
	return d, false, err
}

func generate(g device.Geometry, n int, io units.Bytes, seed uint64) []trace.Event {
	rng := sim.NewRNG(seed)
	blocks := int64(io / g.BlockSize)
	if blocks < 1 {
		blocks = 1
	}
	events := make([]trace.Event, n)
	for i := range events {
		lbn := int64(rng.Float64() * float64(g.Blocks-blocks))
		events[i] = trace.Event{
			At: time.Duration(i) * time.Microsecond, // batch arrival
			Op: device.Read, Block: lbn, Blocks: blocks, Stream: i,
		}
	}
	return events
}

func runTrace(dev serviceable, isDisk bool, policy string, events []trace.Event) ([]device.Completion, error) {
	switch d := dev.(type) {
	case *disk.Device:
		p := disk.FCFS
		switch policy {
		case "sptf", "sstf":
			p = disk.SSTF
		case "elevator", "c-look":
			p = disk.CLook
		}
		s := disk.NewScheduler(d, p)
		for _, e := range events {
			s.Enqueue(e.Request())
		}
		return s.DrainAll(0)
	case tier.Device:
		p, err := tier.ParsePolicy(policy)
		if err != nil {
			return nil, err
		}
		s := tier.NewScheduler(d, p)
		for _, e := range events {
			s.Enqueue(e.Request())
		}
		return s.DrainAll(0)
	case *disk.Array:
		// Arrays serve in arrival order; member parallelism happens inside.
		var out []device.Completion
		var now time.Duration
		for _, e := range events {
			c, err := d.Service(now, e.Request())
			if err != nil {
				return out, err
			}
			out = append(out, c)
			now = c.Finish
		}
		return out, nil
	}
	return nil, fmt.Errorf("unsupported device type %T", dev)
}

func report(dev serviceable, events []trace.Event, cs []device.Completion) {
	if len(cs) == 0 {
		fmt.Println("no completions")
		return
	}
	m := dev.Model()
	pos, xfer := serviceTotals(dev)
	var bytes units.Bytes
	for _, c := range cs {
		bytes += units.Bytes(c.Blocks) * dev.Geometry().BlockSize
	}
	span := cs[len(cs)-1].Finish
	st := trace.Summarize(events)
	fmt.Printf("device:          %s (R=%v, L̄=%v, max %v)\n", m.Name, m.Rate, m.AvgLatency, m.MaxLatency)
	fmt.Printf("trace:           %d events (%d reads, %d writes), %d blocks\n",
		st.Events, st.Reads, st.Writes, st.TotalBlocks)
	fmt.Printf("elapsed:         %v\n", span.Round(time.Microsecond))
	fmt.Printf("throughput:      %v\n", units.RateOf(bytes, span))
	fmt.Printf("avg positioning: %v\n", (pos / time.Duration(len(cs))).Round(time.Microsecond))
	fmt.Printf("avg transfer:    %v\n", (xfer / time.Duration(len(cs))).Round(time.Microsecond))
	fmt.Printf("utilization:     %.1f%% of media rate\n",
		100*float64(units.RateOf(bytes, span))/float64(m.Rate))
}

// serviceTotals reads a freshly built device's cumulative positioning
// (seek, settle and, on a disk, rotational wait) and transfer time from
// its own counters; an array sums its members'.
func serviceTotals(dev serviceable) (pos, xfer time.Duration) {
	switch d := dev.(type) {
	case tier.Device:
		return d.TotalSeekTime(), d.TotalTransferTime()
	case *disk.Device:
		return d.TotalSeekTime() + d.TotalRotTime(), d.TotalTransferTime()
	case *disk.Array:
		for i := 0; i < d.Members(); i++ {
			p, x := serviceTotals(d.Member(i))
			pos, xfer = pos+p, xfer+x
		}
	}
	return pos, xfer
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
