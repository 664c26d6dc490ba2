// Command memsbench regenerates the paper's tables and figures: it runs
// the experiment suite on a worker pool, and its artifacts are
// byte-identical at any -parallel value.
//
// Usage:
//
//	memsbench                       # run every experiment
//	memsbench -list                 # list experiment IDs
//	memsbench -run fig9a            # run one experiment
//	memsbench -run 'fig9.*' -csv    # run a family, emit series as CSV
//	memsbench -out results/         # write each artifact to a file
//	memsbench -parallel 8 -json m.json  # parallel suite + metrics doc
//	memsbench -run fig5 -cpuprofile cpu.pprof -memprofile mem.pprof
//	memsbench -perf perf.json       # per-experiment wall/events-per-sec doc
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"memstream/internal/experiments"
	"memstream/internal/plot"
	"memstream/internal/tier"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "memsbench:", err)
		os.Exit(1)
	}
}

// run executes the tool against the given arguments, writing artifacts to
// w. Factored out of main so the CLI surface is testable.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("memsbench", flag.ContinueOnError)
	fs.SetOutput(w)
	list := fs.Bool("list", false, "list experiment IDs and exit")
	runPat := fs.String("run", "", "run experiments matching this anchored regexp (default: all)")
	csv := fs.Bool("csv", false, "append CSV series data to plot experiments")
	out := fs.String("out", "", "write artifacts to this directory instead of stdout")
	parallel := fs.Int("parallel", 1, "worker count for the suite (0 = GOMAXPROCS)")
	seed := fs.Uint64("seed", experiments.DefaultSeed, "root seed; per-experiment seeds derive from it")
	tierName := fs.String("tier", tier.Default, "middle-tier parameter set: "+strings.Join(tier.Names(), ", "))
	jsonPath := fs.String("json", "", "write the per-run metrics document to this file")
	perfPath := fs.String("perf", "", "write the per-experiment performance document to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := experiments.SetTier(*tierName); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // settle allocations so the heap profile is steady-state
			pprof.WriteHeapProfile(f)
			f.Close()
		}()
	}

	if *list {
		for _, id := range experiments.IDs() {
			title, _ := experiments.Title(id)
			fmt.Fprintf(w, "%-16s %s\n", id, title)
		}
		return nil
	}

	ids, err := experiments.Match(*runPat)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}

	suite, err := experiments.RunSuite(ids, *seed, *parallel, nil)
	if err != nil {
		return err
	}
	// Artifacts print in ID order regardless of completion order, so the
	// output is byte-identical at any -parallel value. A failed run writes
	// no artifact; the others still do, and suiteError names every failure.
	for _, rep := range suite.Runs {
		if rep.Error != "" {
			continue
		}
		res := rep.Result
		text := fmt.Sprintf("==== %s: %s ====\n%s\n", res.ID, res.Title, res.Output)
		if *csv && len(res.Series) > 0 {
			text += "\nCSV:\n" + plot.CSV(res.Series)
		}
		if *out != "" {
			path := filepath.Join(*out, rep.ID+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", path)
			continue
		}
		fmt.Fprint(w, text)
	}
	if *jsonPath != "" {
		if err := writeMetrics(*jsonPath, suite); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics: %s (%d runs, wall %v)\n", *jsonPath, len(suite.Runs), suite.Wall.Round(1e6))
	}
	if *perfPath != "" {
		if err := writePerf(*perfPath, suite); err != nil {
			return err
		}
		fmt.Fprintf(w, "perf: %s (%d runs)\n", *perfPath, len(suite.Runs))
	}
	return suiteError(suite)
}

// suiteError names every failed run of the suite, or returns nil.
func suiteError(suite experiments.SuiteReport) error {
	var failed []string
	for _, rep := range suite.Runs {
		if rep.Error != "" {
			failed = append(failed, rep.ID+": "+rep.Error)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d experiments failed: %s",
		len(failed), len(suite.Runs), strings.Join(failed, "; "))
}

func writeMetrics(path string, suite experiments.SuiteReport) error {
	data, err := json.MarshalIndent(suite, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// perfEntry is one experiment's line in the performance trajectory
// document scripts/bench.sh assembles into BENCH_<n>.json.
type perfEntry struct {
	ID           string  `json:"id"`
	WallNS       int64   `json:"wall_ns"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// writePerf reduces a suite report to per-experiment throughput numbers.
// Analytic experiments fire no events and report zero events/sec.
func writePerf(path string, suite experiments.SuiteReport) error {
	entries := make([]perfEntry, 0, len(suite.Runs))
	for _, r := range suite.Runs {
		e := perfEntry{ID: r.ID, WallNS: int64(r.Wall), Events: r.Events}
		if r.Wall > 0 {
			e.EventsPerSec = float64(r.Events) / r.Wall.Seconds()
		}
		entries = append(entries, e)
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
