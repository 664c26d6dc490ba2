// Command bench is the repo's benchmark: five workloads over the
// discrete-event simulator, the paper suite and the live pacing plane.
// README.md beside this file says what each workload and metric is.
//
//	go run ./bench                          every workload, untraced then traced
//	go run ./bench -workload sim-direct     one workload
//	go run ./bench -workload sim-direct -trace 1
//	go run ./bench -aa                      every workload twice; fails on disagreement
//
// A run of one workload ends with one JSON line, the form BENCHMARK.json's
// driver reads, and exits non-zero if a correctness check failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	o := options{Div: 1}
	var aa bool
	flag.StringVar(&o.Workload, "workload", "", "workload to run; empty runs all of them, untraced then traced")
	flag.Uint64Var(&o.Seed, "seed", 1, "seeds population draws, partition seeds and the serve rate mix")
	flag.Float64Var(&o.Seconds, "seconds", 15, "how long the measured passes of a run last; BENCHMARK.json's run_seconds")
	flag.Func("trace", "0 or 1: record spans and run the layer probes (per-layer metrics instead of end-to-end)", func(s string) error {
		v, err := strconv.ParseBool(s)
		o.Trace = v
		return err
	})
	flag.BoolVar(&aa, "aa", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound")
	flag.StringVar(&o.OutDir, "out", filepath.Join("bench", "out"), "directory for results and traces")
	flag.Parse()
	if flag.NArg() > 0 || o.Seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments or non-positive -seconds")
		os.Exit(2)
	}
	o.MinPasses, o.Setups, o.ProbeMin = 7, 5, 10*time.Millisecond

	var err error
	switch {
	case aa:
		err = runAA(o)
	case o.Workload == "":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// driverLine is the last line of a run's standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line reduces a result to what the driver reads: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func (r *result) line() driverLine {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	l := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		if s, ok := r.Metrics[d.Name]; ok {
			l.Metrics[d.Name] = driverValue{s.Value, s.Unit}
		}
	}
	return l
}

// runOne runs one workload in this process.
func runOne(o options) error {
	w, ok := findWorkload(o.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.Workload)
	}
	m := pinProcs()
	r := runWorkload(w, o, m)
	r.print(os.Stdout)
	if o.OutDir != "" {
		name := w.Name + ".json"
		if o.Trace {
			name = w.Name + ".traced.json"
			if err := r.tracer.write(filepath.Join(o.OutDir, w.Name+".trace.json"), w.Name, o.Seed); err != nil {
				return err
			}
		}
		if err := writeJSON(filepath.Join(o.OutDir, name), r); err != nil {
			return err
		}
	}
	l := r.line()
	if len(l.Metrics) == 0 || l.Attempted < 1 {
		return fmt.Errorf("%s measured nothing: %v", w.Name, r.Checks)
	}
	data, err := json.Marshal(l)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !r.Correct {
		return fmt.Errorf("%s: a correctness check failed", w.Name)
	}
	return nil
}

// print writes every metric by name and unit, then the checks.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %t  (nproc %d, GOMAXPROCS %d, %s, %s)\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Machine.NProc, r.Machine.GOMAXPROCS, r.Machine.GoVersion, r.Machine.CPUModel)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			s, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-38s %14.6g %-6s", d.Name, s.Value, s.Unit)
			if s.N > 1 {
				fmt.Fprintf(w, " q1 %.6g  median %.6g  q3 %.6g  n %d", s.Q1, s.Median, s.Q3, s.N)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  fail_share %g\n", r.Attempted, r.Failed, r.FailShare)
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  CHECK FAILED: %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "  %d checks, correct %t\n", len(r.Checks), r.Correct)
}

// child runs one workload in a process of its own, as the driver does, so
// that peak RSS and set-up time belong to that workload alone. It copies
// the child's report to stdout and returns its last line.
func child(o options, workload string, trace bool, outDir string) (driverLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return driverLine{}, err
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatUint(o.Seed, 10),
		"-seconds", strconv.FormatFloat(o.Seconds, 'g', -1, 64),
		"-trace", strconv.FormatBool(trace), "-out", outDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte{'\n'})
	last := lines[len(lines)-1]
	os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte{'\n'}))
	fmt.Println()
	if runErr != nil {
		return driverLine{}, fmt.Errorf("%s: %w", workload, runErr)
	}
	var l driverLine
	if err := json.Unmarshal(last, &l); err != nil {
		return driverLine{}, fmt.Errorf("%s: last line is not a result: %w", workload, err)
	}
	return l, nil
}

// runAll prints every metric of every workload: an untraced run for the
// end-to-end numbers, then a traced one for the per-layer numbers.
func runAll(o options) error {
	var firstErr error
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			if _, err := child(o, w.Name, trace, o.OutDir); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// bound is one end-to-end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds() ([]bound, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return doc.EndToEnd, nil
}

// runAA runs every workload twice, A then B, and compares the two sets:
// every end-to-end metric must agree within its BENCHMARK.json bound, and
// what a fixed seed determines — the deterministic output's digest, the
// failure count and the repeatExactly metrics — must agree exactly.
func runAA(o options) error {
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	disagreements := 0
	fmt.Printf("%-16s %-14s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "differs", "bound")
	for _, w := range workloads {
		var lines [2]driverLine
		var results [2]result
		for i, side := range []string{"aa-a", "aa-b"} {
			dir := filepath.Join(o.OutDir, side)
			if lines[i], err = child(o, w.Name, false, dir); err != nil {
				return err
			}
			data, err := os.ReadFile(filepath.Join(dir, w.Name+".json"))
			if err != nil {
				return err
			}
			if err := json.Unmarshal(data, &results[i]); err != nil {
				return err
			}
		}
		for _, b := range bounds {
			a, bb := lines[0].Metrics[b.Name].Value, lines[1].Metrics[b.Name].Value
			diff := math.Abs(bb-a) / math.Abs(a)
			verdict := ""
			if !(diff <= b.Bound) {
				verdict = "  DISAGREE"
				disagreements++
			}
			fmt.Printf("%-16s %-14s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.Name, b.Name, a, bb, diff*100, b.Bound*100, verdict)
		}
		a, b := results[0], results[1]
		same := a.Digest == b.Digest && a.Failed == b.Failed && a.Attempted > 0 && b.Attempted > 0
		for _, name := range repeatExactly {
			same = same && a.Metrics[name].Value == b.Metrics[name].Value
		}
		fmt.Printf("%-16s %-14s digest, failures, margin_p5_s, counts and simulated ratios equal: %t\n", w.Name, "exact", same)
		if !same {
			disagreements++
		}
	}
	if disagreements > 0 {
		return fmt.Errorf("A-A: %d disagreements", disagreements)
	}
	return nil
}
