package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestFanOutRunsEveryJobOnce is the pool's contract, meant to run under
// -race: every job runs exactly once at any worker count, the count is
// clamped to [1, n] (0 meaning GOMAXPROCS) and returned, newWorker runs
// once per worker, and a worker's closure state is never touched by two
// goroutines.
func TestFanOutRunsEveryJobOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{1, 2, 3, 8, 0, -1, n + 5} {
		want := workers
		if want <= 0 {
			want = runtime.GOMAXPROCS(0)
		}
		want = max(min(want, n), 1)

		runs := make([]atomic.Int32, n)
		var built atomic.Int32
		var perWorker [][]int // each worker's own log, read after FanOut
		logs := make(chan *[]int, n+8)
		used := FanOut(n, workers, func() func(int) {
			built.Add(1)
			var mine []int // per-worker state: appended without a lock
			busy := false
			logs <- &mine
			return func(job int) {
				if busy {
					t.Errorf("workers=%d: a worker's job function ran reentrantly", workers)
				}
				busy = true
				runs[job].Add(1)
				mine = append(mine, job)
				busy = false
			}
		})
		close(logs)
		for l := range logs {
			perWorker = append(perWorker, *l)
		}

		if used != want {
			t.Errorf("workers=%d: used %d, want %d", workers, used, want)
		}
		if got := int(built.Load()); got != used {
			t.Errorf("workers=%d: newWorker called %d times for %d workers", workers, got, used)
		}
		for job := range runs {
			if c := runs[job].Load(); c != 1 {
				t.Errorf("workers=%d: job %d ran %d times", workers, job, c)
			}
		}
		total := 0
		for _, l := range perWorker {
			total += len(l)
			for i := 1; i < len(l); i++ {
				if l[i] <= l[i-1] {
					t.Errorf("workers=%d: a worker took job %d after job %d", workers, l[i], l[i-1])
				}
			}
		}
		if total != n {
			t.Errorf("workers=%d: worker logs hold %d jobs, want %d", workers, total, n)
		}
	}
}

func TestFanOutNoJobs(t *testing.T) {
	ran := false
	used := FanOut(0, 4, func() func(int) {
		return func(int) { ran = true }
	})
	if used != 1 || ran {
		t.Errorf("FanOut(0, 4) used %d workers (want 1), ran a job: %t", used, ran)
	}
}

// TestKeyedSeedPinned pins the derivation's bits: the suite's
// per-experiment seeds and the shard layer's per-partition seeds both come
// from KeyedSeed, and every pinned fingerprint rests on these values.
func TestKeyedSeedPinned(t *testing.T) {
	for _, c := range []struct {
		root uint64
		key  string
		want uint64
	}{
		{1, "fig5", 347577617370641937},
		{20030305, "hybrid", 7119553860514567619},
		{1, "shard/3", 9968832046221062348},
	} {
		if got := KeyedSeed(c.root, c.key); got != c.want {
			t.Errorf("KeyedSeed(%d, %q) = %d, want %d", c.root, c.key, got, c.want)
		}
	}
	if KeyedSeed(1, "fig5") == KeyedSeed(2, "fig5") || KeyedSeed(1, "fig5") == KeyedSeed(1, "fig6") {
		t.Error("KeyedSeed ignores its root or its key")
	}
}
