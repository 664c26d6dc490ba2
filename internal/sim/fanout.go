package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// FanOut runs jobs 0..n-1 on a pool of workers and returns how many it
// used: workers <= 0 means GOMAXPROCS, and the count is clamped to
// [1, n]. Each worker calls newWorker once and runs the job function it
// returns on every index it takes from a shared counter, so per-worker
// state lives in that closure and is never shared. Which worker runs a
// job, and in what order jobs finish, is not fixed: a deterministic
// caller seeds each job by its key (KeyedSeed), stores results by index
// and folds them in index order after FanOut returns.
func FanOut(n, workers int, newWorker func() func(job int)) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, n), 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			job := newWorker()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				job(i)
			}
		}()
	}
	wg.Wait()
	return workers
}
