package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestMatch(t *testing.T) {
	all, err := Match("")
	if err != nil || !reflect.DeepEqual(all, IDs()) {
		t.Fatalf("empty pattern: %v, %v", all, err)
	}
	one, err := Match("fig9a")
	if err != nil || !reflect.DeepEqual(one, []string{"fig9a"}) {
		t.Fatalf("exact id: %v, %v", one, err)
	}
	fam, err := Match("fig9.*")
	if err != nil || !reflect.DeepEqual(fam, []string{"fig9-zipf", "fig9a", "fig9b"}) {
		t.Fatalf("family: %v, %v", fam, err)
	}
	if _, err := Match("fig99"); err == nil {
		t.Error("no-match pattern accepted")
	}
	if _, err := Match("fig9(("); err == nil {
		t.Error("bad regexp accepted")
	}
}

func TestRunSuiteUnknownID(t *testing.T) {
	if _, err := RunSuite([]string{"table1", "fig99"}, 1, 1, nil); err == nil {
		t.Error("unknown id accepted")
	}
}

// sameRuns compares two suite runs modulo wall-clock fields.
func sameRuns(t *testing.T, a, b RunReport) {
	t.Helper()
	if a.ID != b.ID || a.Seed != b.Seed || a.Error != b.Error {
		t.Errorf("%s: identity drifted: %+v vs %+v", a.ID, a, b)
		return
	}
	if a.Events != b.Events || a.Streams != b.Streams || a.Underflows != b.Underflows {
		t.Errorf("%s: metrics drifted: events %d/%d streams %d/%d underflows %d/%d",
			a.ID, a.Events, b.Events, a.Streams, b.Streams, a.Underflows, b.Underflows)
	}
	if a.Result.Output != b.Result.Output {
		t.Errorf("%s: output not byte-identical", a.ID)
	}
	if !reflect.DeepEqual(a.Result.Series, b.Result.Series) {
		t.Errorf("%s: series drifted", a.ID)
	}
}

// The tentpole property: the full suite from one root seed is
// byte-identical at any worker count — parallel dispatch and completion
// order must not leak into any result.
func TestSuiteParallelDeterminism(t *testing.T) {
	ids := IDs()
	serial, err := RunSuite(ids, 42, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSuite(ids, 42, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Runs) != len(ids) || len(parallel.Runs) != len(ids) {
		t.Fatalf("run counts: %d, %d, want %d", len(serial.Runs), len(parallel.Runs), len(ids))
	}
	for i := range serial.Runs {
		if serial.Runs[i].Error != "" || parallel.Runs[i].Error != "" {
			t.Fatalf("%s failed: serial %q, parallel %q", serial.Runs[i].ID, serial.Runs[i].Error, parallel.Runs[i].Error)
		}
		sameRuns(t, serial.Runs[i], parallel.Runs[i])
	}
}

// TestConcurrentSuites runs two suites at once, each on two workers, over
// the RNG-bearing experiments (shardscale nests a shard.Run inside a suite
// worker): nothing a run touches may be shared, so each suite must still
// reproduce the pinned fingerprints. Meant to run under -race.
func TestConcurrentSuites(t *testing.T) {
	prev := curTier
	if err := SetTier("mems-g3"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { curTier = prev })
	data, err := os.ReadFile(filepath.Join("testdata", "pinned_results.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	ids, err := Match("hybrid|dynamics|validate|besteffort|shardscale")
	if err != nil {
		t.Fatal(err)
	}

	suites := make([]SuiteReport, len(pinnedSeeds))
	errs := make([]error, len(pinnedSeeds))
	var wg sync.WaitGroup
	for i, seed := range pinnedSeeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			suites[i], errs[i] = RunSuite(ids, seed, 2, nil)
		}()
	}
	wg.Wait()
	for i, seed := range pinnedSeeds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(suites[i].Runs) != len(ids) {
			t.Fatalf("seed %d: %d runs, want %d", seed, len(suites[i].Runs), len(ids))
		}
		for _, rep := range suites[i].Runs {
			key := fmt.Sprintf("%s@%d", rep.ID, seed)
			if rep.Error != "" {
				t.Errorf("%s: %s", key, rep.Error)
			} else if fingerprint(rep.Result) != want[key] {
				t.Errorf("%s: fingerprint drifted while another suite ran", key)
			}
		}
	}
}

// Seeds key off the experiment ID, so running a subset reproduces the
// full suite's per-experiment artifacts.
func TestSuiteSubsetReproducesFullSuite(t *testing.T) {
	full, err := RunSuite([]string{"besteffort", "ablation-devcache", "table1"}, 7, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := RunSuite([]string{"ablation-devcache"}, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameRuns(t, full.Runs[1], sub.Runs[0])
}

// Different root seeds must actually reach the RNG-driven experiments.
func TestSuiteRootSeedPropagates(t *testing.T) {
	a, err := RunSuite([]string{"besteffort"}, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSuite([]string{"besteffort"}, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runs[0].Seed == b.Runs[0].Seed {
		t.Error("per-run seed ignores the root seed")
	}
	if a.Runs[0].Result.Output == b.Runs[0].Result.Output {
		t.Error("besteffort output identical across root seeds — seed not reaching the RNG")
	}
}

func TestSuiteProgressCallback(t *testing.T) {
	var seen []string
	progress := func(done, total int, rep RunReport) {
		if total != 2 || done < 1 || done > 2 {
			t.Errorf("progress counters done=%d total=%d", done, total)
		}
		seen = append(seen, rep.ID)
	}
	if _, err := RunSuite([]string{"table1", "table2"}, 1, 2, progress); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("progress fired %d times, want 2", len(seen))
	}
}

// Simulation-backed experiments must export non-zero run metrics.
func TestSimulationMetricsExported(t *testing.T) {
	res, err := Run("validate")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Events == 0 {
		t.Error("validate reports zero simulation events")
	}
	if res.Metrics.Streams == 0 {
		t.Error("validate reports zero streams served")
	}
	if res.Metrics.Underflows != 0 {
		t.Errorf("validate reports %d underflows, want 0", res.Metrics.Underflows)
	}
	if !strings.HasPrefix(res.ID, "validate") {
		t.Errorf("result tagged %q", res.ID)
	}
}
