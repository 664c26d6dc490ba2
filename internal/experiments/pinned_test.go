package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"memstream/internal/sim"
)

// pinnedSeeds are the root seeds the kernel-equivalence pin covers. Two
// seeds catch rewrites that happen to be correct at one seed by luck;
// per-experiment seeds still derive via sim.KeyedSeed, exactly as the
// suite runner does.
var pinnedSeeds = []uint64{DefaultSeed, 20030305}

// fingerprint collapses one experiment Result into a stable digest of
// everything a kernel rewrite could perturb: the rendered artifact, the
// structured series, and the simulation counters. Wall time and the seed
// echo are excluded — they are observability, not output.
func fingerprint(res Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "output:%s\n", res.Output)
	for _, s := range res.Series {
		b, _ := json.Marshal(s)
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "events:%d streams:%d cycles:%d underflows:%d\n",
		res.Metrics.Events, res.Metrics.Streams, res.Metrics.Cycles, res.Metrics.Underflows)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPinnedResultEquivalence is the kernel-rewrite acceptance gate: every
// experiment configuration (all registered IDs, RNG-bearing and analytic
// alike) must reproduce the exact Result fingerprint recorded before the
// sim kernel was rewritten. A legitimate model/rendering change re-pins
// with `go test ./internal/experiments -update`; a kernel change that
// trips this test reordered or perturbed events and must be fixed, not
// re-pinned.
func TestPinnedResultEquivalence(t *testing.T) {
	// The pin is defined at the paper's published operating point: pin the
	// middle tier to G3 MEMS explicitly so a stray SetTier in another test
	// (or a future default change) cannot silently move the goalposts.
	prev := curTier
	if err := SetTier("mems-g3"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { curTier = prev })

	path := filepath.Join("testdata", "pinned_results.json")
	got := map[string]string{}
	for _, seed := range pinnedSeeds {
		for _, id := range IDs() {
			res, err := RunSeeded(id, sim.KeyedSeed(seed, id))
			if err != nil {
				t.Fatalf("%s @ seed %d: %v", id, seed, err)
			}
			got[fmt.Sprintf("%s@%d", id, seed)] = fingerprint(res)
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]string, len(got)) // json.Marshal sorts map keys
		for _, k := range keys {
			ordered[k] = got[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pinned fingerprints (run `go test ./internal/experiments -update`): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for k, wf := range want {
		if got[k] == "" {
			t.Errorf("%s: pinned but no longer registered", k)
			continue
		}
		if got[k] != wf {
			t.Errorf("%s: Result fingerprint drifted — kernel no longer byte-identical", k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: registered but not pinned (re-run with -update)", k)
		}
	}
}
