package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memstream/internal/experiments"
)

func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "fig9a", "validate", "dynamics"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %s", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "table2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "==== table2") {
		t.Errorf("missing header:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "S_disk-dram") {
		t.Error("missing table body")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "fig99"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// A -run pattern that matches no experiment is an error, not an empty run.
func TestRunExperimentsBadPattern(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "nope99", "-parallel", "1"}, &out); err == nil {
		t.Error("unmatched pattern accepted")
	}
}

// The -out trees are byte-identical at any worker count, and the -json
// document records the root seed and one entry per run.
func TestRunExperimentsSuite(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "m.json")
	outA := filepath.Join(dir, "a")
	outB := filepath.Join(dir, "b")
	var log strings.Builder
	if err := run([]string{"-run", "table.|besteffort", "-seed", "5", "-parallel", "1", "-json", jsonPath, "-out", outA}, &log); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-run", "table.|besteffort", "-seed", "5", "-parallel", "4", "-out", outB}, &log); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"besteffort", "table1", "table2", "table3"} {
		a, err := os.ReadFile(filepath.Join(outA, id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(outB, id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s artifact differs between parallel=1 and parallel=4", id)
		}
	}
	var suite experiments.SuiteReport
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &suite); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if suite.RootSeed != 5 || len(suite.Runs) != 4 {
		t.Errorf("suite = %+v", suite)
	}
}

func TestSuiteErrorNamesEveryFailure(t *testing.T) {
	if err := suiteError(experiments.SuiteReport{Runs: []experiments.RunReport{{ID: "table1"}}}); err != nil {
		t.Fatalf("clean suite reported %v", err)
	}
	err := suiteError(experiments.SuiteReport{Runs: []experiments.RunReport{
		{ID: "fig2", Error: "boom"}, {ID: "table1"}, {ID: "fig9a", Error: "bang"},
	}})
	if err == nil {
		t.Fatal("failed runs not reported")
	}
	const want = "2 of 3 experiments failed: fig2: boom; fig9a: bang"
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}

func TestRunCSV(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "fig2", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "CSV:") {
		t.Error("CSV section missing")
	}
	if !strings.Contains(out.String(), "x,MEMS (max. latency),Disk (avg. latency)") {
		t.Errorf("CSV header missing:\n%s", out.String())
	}
}

func TestRunOutDirectory(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-run", "table1", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Storage media characteristics") {
		t.Error("artifact file content wrong")
	}
	if !strings.Contains(out.String(), "wrote ") {
		t.Error("no progress line")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunRegexpFamily(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "table."}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"==== table1", "==== table2", "==== table3"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("family run missing %s", want)
		}
	}
	if strings.Contains(out.String(), "==== fig") {
		t.Error("family run matched outside the family")
	}
}

func TestRunParallelOutputIdentical(t *testing.T) {
	var serial, parallel strings.Builder
	if err := run([]string{"-run", "table.|besteffort|ablation-devcache", "-parallel", "1"}, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-run", "table.|besteffort|ablation-devcache", "-parallel", "8"}, &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Error("-parallel changed the rendered output")
	}
}

func TestRunPerfDocument(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "perf.json")
	var out strings.Builder
	if err := run([]string{"-run", "validate|table1", "-perf", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		ID           string  `json:"id"`
		WallNS       int64   `json:"wall_ns"`
		Events       uint64  `json:"events"`
		EventsPerSec float64 `json:"events_per_sec"`
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("perf doc not valid JSON: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("perf entries = %d, want 2", len(entries))
	}
	byID := map[string]float64{}
	for _, e := range entries {
		if e.WallNS <= 0 {
			t.Errorf("%s: wall_ns = %d", e.ID, e.WallNS)
		}
		byID[e.ID] = e.EventsPerSec
	}
	// validate embeds simulations, so it must report real event throughput;
	// table1 is analytic and reports zero.
	if byID["validate"] <= 0 {
		t.Errorf("validate events_per_sec = %v, want > 0", byID["validate"])
	}
	if byID["table1"] != 0 {
		t.Errorf("table1 events_per_sec = %v, want 0 (analytic)", byID["table1"])
	}
}

func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out strings.Builder
	if err := run([]string{"-run", "table1", "-cpuprofile", cpu, "-memprofile", mem}, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestRunJSONMetrics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	var out strings.Builder
	if err := run([]string{"-run", "table1", "-seed", "99", "-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var suite experiments.SuiteReport
	if err := json.Unmarshal(data, &suite); err != nil {
		t.Fatalf("metrics not valid JSON: %v", err)
	}
	if suite.RootSeed != 99 || len(suite.Runs) != 1 || suite.Runs[0].ID != "table1" {
		t.Errorf("suite = %+v", suite)
	}
	if !strings.Contains(out.String(), "metrics: ") {
		t.Error("no metrics progress line")
	}
}
