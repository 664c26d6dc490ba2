package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is one named measurement. Value is the reported estimate: the
// lower quartile of repeated timings (steady), the median of other repeated
// samples (summarize), or the single value of a count or simulated
// statistic (exact).
type sample struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Median  float64   `json:"median"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// summarize reports the median of xs with its quartiles and every raw
// sample. It panics on an empty slice: every metric is measured at least
// once before it is reported.
func summarize(unit string, xs []float64) sample {
	q1, med, q3 := quartiles(xs)
	return sample{Value: med, Unit: unit, Q1: q1, Median: med, Q3: q3, N: len(xs), Samples: append([]float64(nil), xs...)}
}

// steady reports the lower quartile of repeated timings of the same work.
// On a shared host other tenants only ever add time, in bursts from a
// fraction of a second to tens of seconds long, so the low side of the
// distribution is what the code costs and the high side is what the
// neighbours cost: between ten-run campaigns of one commit the median of a
// run's passes moved by up to 18 %, the lower quartile by a third of that.
func steady(unit string, xs []float64) sample {
	s := summarize(unit, xs)
	s.Value = s.Q1
	return s
}

// exact wraps a single value that repeats exactly at a fixed seed (a count
// or a simulated statistic).
func exact(unit string, v float64) sample {
	return sample{Value: v, Unit: unit, Q1: v, Median: v, Q3: v, N: 1}
}

// quartiles returns the first quartile, median and third quartile of xs by
// the same rule as Python's statistics.quantiles(xs, n=4), the rule the
// driver applies to the benchmark's ten-run spread. Fewer than two samples
// return the single value three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		panic("bench: quartiles of no samples")
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

func lowerQuartile(xs []float64) float64 {
	q1, _, _ := quartiles(xs)
	return q1
}

// machine is the fingerprint written into every results file, so two
// results are compared only when they come from the same kind of box.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

// pinProcs pins GOMAXPROCS to min(nproc, 4) and returns the fingerprint.
func pinProcs() machine {
	n := runtime.NumCPU()
	procs := n
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	return machine{
		NProc:      n,
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
	}
}

func readFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "" when the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	f := strings.Fields(procField("/proc/self/status", "VmHWM"))
	if len(f) == 0 {
		return 0
	}
	kb, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0
	}
	return kb / 1000
}

// processStart is taken when this package initialises, before main: the
// origin of setup_s.
var processStart = time.Now()

// totalAlloc is the cumulative bytes the Go heap has allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timeOp measures one layer probe. fn(n) performs n operations; n grows
// until one call lasts at least minDur, then the fastest of three calls is
// reported in nanoseconds per operation. The minimum is the estimate least
// disturbed by the other tenant of a two-core box, and a probe is a cost
// estimate, not a gated number.
func timeOp(minDur time.Duration, fn func(n int)) float64 {
	n := 1
	for {
		start := time.Now()
		fn(n)
		if d := time.Since(start); d >= minDur || n >= 1<<28 {
			break
		}
		n *= 4
	}
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		fn(n)
		best = math.Min(best, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return best
}

// check is one correctness check behind fail_share.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// checks collects the correctness checks of one run.
type checks []check

func (c *checks) add(name string, ok bool, format string, args ...any) bool {
	ck := check{Name: name, OK: ok}
	if !ok {
		ck.Detail = fmt.Sprintf(format, args...)
	}
	*c = append(*c, ck)
	return ok
}

func (c checks) allOK() bool {
	for _, ck := range c {
		if !ck.OK {
			return false
		}
	}
	return true
}
