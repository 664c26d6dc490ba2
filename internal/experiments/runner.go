package experiments

import (
	"fmt"
	"regexp"
	"sync"
	"time"

	"memstream/internal/sim"
)

// RunReport is one experiment's entry in the suite's metrics document.
type RunReport struct {
	ID         string        `json:"id"`
	Title      string        `json:"title"`
	Seed       uint64        `json:"seed"`
	Wall       time.Duration `json:"wall_ns"`
	Events     uint64        `json:"events"`
	Streams    int           `json:"streams"`
	Cycles     int64         `json:"cycles"`
	Underflows int           `json:"underflows"`
	Error      string        `json:"error,omitempty"`

	// Result carries the artifact itself; excluded from the JSON metrics
	// document, which is about run observability, not run output.
	Result Result `json:"-"`
}

// SuiteReport is the metrics document for one suite invocation.
type SuiteReport struct {
	RootSeed uint64        `json:"root_seed"`
	Parallel int           `json:"parallel"`
	Wall     time.Duration `json:"wall_ns"`
	Runs     []RunReport   `json:"runs"`
}

// Match returns the experiment IDs whose ID matches the pattern, anchored
// at both ends (so an exact ID selects only itself and "fig9.*" selects
// the fig9 family). An empty pattern selects everything.
func Match(pattern string) ([]string, error) {
	if pattern == "" {
		return IDs(), nil
	}
	re, err := regexp.Compile("^(?:" + pattern + ")$")
	if err != nil {
		return nil, fmt.Errorf("experiments: bad -run pattern: %w", err)
	}
	var ids []string
	for _, id := range IDs() {
		if re.MatchString(id) {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("experiments: no experiment matches %q (have %v)", pattern, IDs())
	}
	return ids, nil
}

// RunSuite executes the given experiments on sim.FanOut with parallel
// workers (parallel <= 0 means GOMAXPROCS) and returns per-run metrics
// plus the artifacts, ordered as ids. Each run's seed is the
// sim.KeyedSeed of its ID — not its position in the work list or its
// completion order — so every result is a pure function of (rootSeed, id):
// the suite is byte-identical at any worker count, and a -run subset
// reproduces the full suite's per-experiment artifacts. A run that fails is
// reported in its entry's Error field; it does not abort the rest of the
// suite. The progress callback, when non-nil, is invoked once per run in
// completion order (serialized, from worker goroutines).
func RunSuite(ids []string, rootSeed uint64, parallel int, progress func(done, total int, rep RunReport)) (SuiteReport, error) {
	for _, id := range ids {
		if _, ok := registry[id]; !ok {
			return SuiteReport{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
		}
	}
	suite := SuiteReport{RootSeed: rootSeed, Runs: make([]RunReport, len(ids))}
	start := time.Now()
	var mu sync.Mutex // serializes progress callbacks and the done counter
	done := 0
	suite.Parallel = sim.FanOut(len(ids), parallel, func() func(int) {
		return func(i int) {
			rep := RunReport{ID: ids[i], Seed: sim.KeyedSeed(rootSeed, ids[i])}
			rep.Title, _ = Title(rep.ID)
			runStart := time.Now()
			res, err := RunSeeded(rep.ID, rep.Seed)
			rep.Wall = time.Since(runStart)
			if err != nil {
				rep.Error = err.Error()
			} else {
				res.Metrics.Wall = rep.Wall
				rep.Result = res
				rep.Events = res.Metrics.Events
				rep.Streams = res.Metrics.Streams
				rep.Cycles = res.Metrics.Cycles
				rep.Underflows = res.Metrics.Underflows
			}
			suite.Runs[i] = rep
			mu.Lock()
			done++
			if progress != nil {
				progress(done, len(ids), rep)
			}
			mu.Unlock()
		}
	})
	suite.Wall = time.Since(start)
	return suite, nil
}
