package experiments

import (
	"fmt"
	"hash/fnv"
	"regexp"
	"runtime"
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

// seedFor derives an experiment's seed from the suite's root seed via
// RNG.Split. Keying by the experiment ID — not its position in the work
// list or its completion order — makes every run's result a pure function
// of (rootSeed, id): the suite is byte-identical at any worker count, and
// a -run subset reproduces the full suite's per-experiment artifacts.
func seedFor(rootSeed uint64, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return sim.NewRNG(rootSeed ^ h.Sum64()).Split().Uint64()
}

// RunSuite executes the given experiments on a pool of parallel workers
// (parallel <= 0 means GOMAXPROCS) and returns per-run metrics plus the
// artifacts, ordered as ids. A run that fails is reported in its entry's
// Error field; it does not abort the rest of the suite. The progress
// callback, when non-nil, is invoked once per run in completion order
// (serialized, from worker goroutines).
func RunSuite(ids []string, rootSeed uint64, parallel int, progress func(done, total int, rep RunReport)) (SuiteReport, error) {
	for _, id := range ids {
		if _, ok := registry[id]; !ok {
			return SuiteReport{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
		}
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(ids) {
		parallel = len(ids)
	}
	if parallel < 1 {
		parallel = 1
	}

	suite := SuiteReport{
		RootSeed: rootSeed,
		Parallel: parallel,
		Runs:     make([]RunReport, len(ids)),
	}
	start := time.Now()

	jobs := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes progress callbacks and the done counter
	done := 0
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				id := ids[i]
				seed := seedFor(rootSeed, id)
				runStart := time.Now()
				res, err := RunSeeded(id, seed)
				rep := RunReport{
					ID:   id,
					Seed: seed,
					Wall: time.Since(runStart),
				}
				rep.Title, _ = Title(id)
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
		}()
	}
	for i := range ids {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	suite.Wall = time.Since(start)
	return suite, nil
}
