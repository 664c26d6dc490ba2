// Command memsload is the load generator for memserve: it drives N
// concurrent PLAY clients — optionally including deliberately slow and
// fully stalled readers — and reports achieved throughput, admission
// outcomes, stall evictions observed, and admission-latency quantiles.
// It is the other half of the e2e smoke test: memserve must evict the
// stalled readers and return their slots, and memsload verifies, on the
// server's HTTP control plane, that it settled back to admitted=0.
//
// Usage:
//
//	memsload -addr 127.0.0.1:9090 -clients 16 -slow 2 -stall 2 \
//	         -rate 100KB -duration 5s
//
// Against the HTTP control plane (memserve -http, 127.0.0.1:9091 by
// default), the only place the server reports what it did:
//
//	memsload -http-metrics http://127.0.0.1:9091     # probe: fetch /status
//	         # and /metrics, print flattened key=value lines, exit 1 on
//	         # unreachable endpoint or invalid JSON
//	memsload -addr 127.0.0.1:9090 -clients 8 -stall 2 -duration 3s \
//	         -verify-http http://127.0.0.1:9091
//	         # run the load AND cross-check the server's counter deltas
//	         # (/metrics before vs after, once /status has settled to no
//	         # live stream and no held slot) against the client-side
//	         # tallies: every admitted stream must land in exactly one of
//	         # completed/evicted/aborted, with no reaped cross-counting
//	memsload -addr 127.0.0.1:9090 -http-metrics http://127.0.0.1:9091 \
//	         -sweep 100,500,1000 -duration 3s -sweep-json sweep.json
//	         # population scaling sweep: run each step's client count,
//	         # report per-step admitted/evicted/aborted and pacing-lag
//	         # quantiles from the server's /metrics histogram-bucket
//	         # deltas (per-step, not cumulative; read by the server's own
//	         # quantile rule), optionally as JSON
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"memstream/internal/metrics"
	"memstream/internal/units"
)

type config struct {
	addr     string
	clients  int
	slow     int // of clients, how many read deliberately slowly
	stall    int // of clients, how many stop reading after the response line
	rate     string
	duration time.Duration
}

type clientKind int

const (
	kindNormal clientKind = iota
	kindSlow
	kindStalled
)

type clientResult struct {
	admitted  bool
	busy      bool
	errored   bool
	completed bool // server delivered its full -limit and closed cleanly
	evicted   bool // stalled client observed the server closing on it
	bytes     int64
	latency   time.Duration // connect → first response line
}

type report struct {
	Clients   int
	Admitted  int
	Busy      int
	Errors    int
	Completed int
	Evicted   int
	Bytes     int64
	Wall      time.Duration
	Latency   metrics.Histogram // admission latency, seconds
}

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "memserve address")
	clients := flag.Int("clients", 16, "concurrent clients")
	slow := flag.Int("slow", 0, "of -clients, how many read slowly")
	stall := flag.Int("stall", 0, "of -clients, how many stop reading after the response")
	rate := flag.String("rate", "100KB", "per-client PLAY rate")
	duration := flag.Duration("duration", 5*time.Second, "run length")
	httpMetrics := flag.String("http-metrics", "", "probe the HTTP control plane at this base URL: fetch /status and /metrics, print flattened key=value lines, exit")
	verifyHTTP := flag.String("verify-http", "", "with a load run: fetch /metrics before and after and verify server counter deltas against client-side tallies")
	sweep := flag.String("sweep", "", "comma-separated stream populations: run each step as a full client cohort and report per-step counter deltas and lag quantiles (requires -http-metrics as the control-plane base URL)")
	sweepJSON := flag.String("sweep-json", "", "with -sweep: also write the per-step results as JSON to this path")
	flag.Parse()

	switch {
	case *sweep != "":
		if *httpMetrics == "" {
			log.Fatalf("memsload: -sweep needs -http-metrics <base URL> to collect per-step counter and histogram deltas")
		}
		cfg := config{addr: *addr, rate: *rate, duration: *duration}
		if err := runSweep(os.Stdout, *httpMetrics, cfg, *sweep, *sweepJSON); err != nil {
			log.Fatalf("memsload: sweep: %v", err)
		}
	case *httpMetrics != "":
		if err := probeHTTP(os.Stdout, *httpMetrics); err != nil {
			log.Fatalf("memsload: http probe: %v", err)
		}
	default:
		cfg := config{addr: *addr, clients: *clients, slow: *slow, stall: *stall,
			rate: *rate, duration: *duration}
		var before *metrics.Document
		if *verifyHTTP != "" {
			doc, err := fetchMetrics(*verifyHTTP)
			if err != nil {
				log.Fatalf("memsload: verify baseline: %v", err)
			}
			before = doc
		}
		rep, err := run(cfg)
		if err != nil {
			log.Fatalf("memsload: %v", err)
		}
		fmt.Print(rep.String())
		if rep.Errors > 0 {
			os.Exit(1)
		}
		if *verifyHTTP != "" {
			if err := verifyAgainstHTTP(*verifyHTTP, before, rep); err != nil {
				log.Fatalf("memsload: counter verification FAILED: %v", err)
			}
			fmt.Println("verify-http: server counter deltas match client tallies")
		}
	}
}

// fetchJSON GETs base+path and decodes the JSON body.
func fetchJSON(base, path string, into any) error {
	url := strings.TrimRight(base, "/") + path
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("GET %s: invalid JSON: %v", url, err)
	}
	return nil
}

func fetchMetrics(base string) (*metrics.Document, error) {
	var doc metrics.Document
	if err := fetchJSON(base, "/metrics", &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// probeHTTP is the -http-metrics mode: one /status and one /metrics
// round-trip, rendered as sorted key=value lines (grep-friendly for the
// CI smoke), failing on unreachable endpoints or invalid JSON.
func probeHTTP(w io.Writer, base string) error {
	var st metrics.Status
	if err := fetchJSON(base, "/status", &st); err != nil {
		return err
	}
	fmt.Fprintf(w, "status.state=%s status.admitted=%d status.capacity=%d status.active_streams=%d status.conns=%d\n",
		st.State, st.Admitted, st.Capacity, st.ActiveStreams, st.Conns)
	doc, err := fetchMetrics(base)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(doc.Counters))
	for k := range doc.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "counters.%s=%d\n", k, doc.Counters[k])
	}
	fmt.Fprintf(w, "lag.count=%d\n", doc.Lag.Count)
	qkeys := make([]string, 0, len(doc.Lag.Quantiles))
	for k := range doc.Lag.Quantiles {
		qkeys = append(qkeys, k)
	}
	sort.Strings(qkeys)
	for _, k := range qkeys {
		fmt.Fprintf(w, "lag.%s=%.3f\n", k, doc.Lag.Quantiles[k])
	}
	for _, tier := range doc.Tiers {
		fmt.Fprintf(w, "tier.%s.utilization=%.4f\n", tier.Name, tier.Utilization)
	}
	fmt.Fprintf(w, "streams.live=%d\n", len(doc.Streams))
	return nil
}

// verifyAgainstHTTP waits for the server to settle (no live streams),
// fetches the post-load /metrics, and checks the counter deltas against
// the client-side tallies. The identities assume outcomes are
// unambiguous: stalled clients require the server to run with -limit 0
// (a finite limit can fit entirely in kernel socket buffers, letting
// the server complete a stream its client believes was stalled). The
// smoke invokes it exactly that way.
func verifyAgainstHTTP(base string, before *metrics.Document, rep *report) error {
	if err := waitSettled(base, 10*time.Second); err != nil {
		return err
	}
	after, err := fetchMetrics(base)
	if err != nil {
		return err
	}
	if problems := verifyDeltas(before.Counters, after.Counters, rep); len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}

// verifyDeltas cross-checks the server's counter deltas over one load
// run against the load generator's own tallies:
//
//   - admitted_total, admission_busy, and completed match exactly;
//   - reaped stays flat — no disconnect may be miscounted as a
//     slowloris reap (the clients always send a full request line);
//   - evicted is at least the client-observed stall kills. It may
//     legitimately exceed them: an evicted reader that is still
//     draining kernel-buffered data when its run window ends never
//     sees the server's close, so the client side under-observes;
//   - conservation: every admitted stream ends exactly one way, so
//     evicted + aborted must equal admitted − completed. Combined with
//     the floor above, this pins any cross-counting between the
//     eviction and abort buckets.
func verifyDeltas(before, after map[string]uint64, rep *report) []string {
	delta := func(k string) uint64 { return after[k] - before[k] }
	var problems []string
	check := func(name string, got, want uint64) {
		if got != want {
			problems = append(problems, fmt.Sprintf("%s: server delta %d, client tally %d", name, got, want))
		}
	}
	check("admitted_total", delta("admitted_total"), uint64(rep.Admitted))
	check("admission_busy", delta("admission_busy"), uint64(rep.Busy))
	check("completed", delta("completed"), uint64(rep.Completed))
	check("reaped", delta("reaped"), 0)
	if got, min := delta("evicted"), uint64(rep.Evicted); got < min {
		problems = append(problems, fmt.Sprintf("evicted: server delta %d < %d client-observed evictions", got, min))
	}
	if got, want := delta("evicted")+delta("aborted"), uint64(rep.Admitted-rep.Completed); got != want {
		problems = append(problems, fmt.Sprintf("conservation: evicted+aborted delta %d != admitted-completed %d", got, want))
	}
	if got, min := delta("bytes_out"), uint64(rep.Bytes); got < min {
		problems = append(problems, fmt.Sprintf("bytes_out: server delta %d < client bytes read %d", got, min))
	}
	return problems
}

// waitSettled polls /status until the server reports no live streams and
// no held admission slots — the boundary between two measurement windows.
func waitSettled(base string, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		var st metrics.Status
		if err := fetchJSON(base, "/status", &st); err != nil {
			return err
		}
		if st.ActiveStreams == 0 && st.Admitted == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server did not settle: %d streams / %d admitted still live", st.ActiveStreams, st.Admitted)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// sweepStep is one population step of a -sweep run: the server-side
// counter deltas over exactly this step's window plus the pacing-lag
// quantiles recomputed from the /metrics histogram-bucket deltas — the
// server's cumulative quantiles would let earlier (smaller, faster)
// steps dilute later ones, so each step subtracts its own baseline and
// reads the window by the server's quantile rule. A window without
// samples reports 0.
type sweepStep struct {
	Streams    int     `json:"streams"`
	Admitted   uint64  `json:"admitted"`
	Busy       uint64  `json:"busy"`
	Errors     int     `json:"errors"`
	Completed  uint64  `json:"completed"`
	Evicted    uint64  `json:"evicted"`
	Aborted    uint64  `json:"aborted"`
	BytesOut   uint64  `json:"bytes_out"`
	WheelFires uint64  `json:"wheel_fires"`
	LagSamples uint64  `json:"lag_samples"`
	LagP50MS   float64 `json:"lag_p50_ms"`
	LagP95MS   float64 `json:"lag_p95_ms"`
	LagP99MS   float64 `json:"lag_p99_ms"`
	WallMS     float64 `json:"wall_ms"`
}

// sweepReport is the -sweep-json document.
type sweepReport struct {
	Schema     string      `json:"schema"` // "memsload-sweep/v1"
	Rate       string      `json:"rate"`
	DurationMS float64     `json:"duration_ms"`
	Steps      []sweepStep `json:"steps"`
}

// runSweep is the -sweep mode: one full client cohort per population
// step, bracketed by /metrics fetches so every reported figure is this
// step's delta. Between steps it waits for the server to settle back to
// zero live streams, so populations never overlap. Client-side errors
// (e.g. dial failures at fd-exhausting populations) are recorded in the
// step rather than aborting the sweep — a saturated step is a result.
func runSweep(w io.Writer, base string, cfg config, list, jsonPath string) error {
	pops, err := parsePopulations(list)
	if err != nil {
		return err
	}
	out := sweepReport{Schema: "memsload-sweep/v1", Rate: cfg.rate, DurationMS: float64(cfg.duration) / 1e6}
	for _, n := range pops {
		before, err := fetchMetrics(base)
		if err != nil {
			return err
		}
		stepCfg := cfg
		stepCfg.clients = n
		rep, err := run(stepCfg)
		if err != nil {
			return fmt.Errorf("streams=%d: %v", n, err)
		}
		if err := waitSettled(base, cfg.duration+30*time.Second); err != nil {
			return fmt.Errorf("streams=%d: %v", n, err)
		}
		after, err := fetchMetrics(base)
		if err != nil {
			return err
		}
		step := buildSweepStep(n, rep, before, after)
		fmt.Fprintf(w, "sweep streams=%d: admitted=%d busy=%d errors=%d completed=%d evicted=%d aborted=%d bytes_out=%d lag_samples=%d lag_p50_ms=%.3f lag_p95_ms=%.3f lag_p99_ms=%.3f wall_ms=%.0f\n",
			step.Streams, step.Admitted, step.Busy, step.Errors, step.Completed,
			step.Evicted, step.Aborted, step.BytesOut, step.LagSamples,
			step.LagP50MS, step.LagP95MS, step.LagP99MS, step.WallMS)
		out.Steps = append(out.Steps, step)
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// buildSweepStep folds one step's client report and its bracketing
// /metrics documents into the per-step delta record.
func buildSweepStep(n int, rep *report, before, after *metrics.Document) sweepStep {
	delta := func(k string) uint64 { return after.Counters[k] - before.Counters[k] }
	lag := lagWindow(before.Lag, after.Lag).Wire()
	return sweepStep{
		Streams:    n,
		Admitted:   delta("admitted_total"),
		Busy:       delta("admission_busy"),
		Errors:     rep.Errors,
		Completed:  delta("completed"),
		Evicted:    delta("evicted"),
		Aborted:    delta("aborted"),
		BytesOut:   delta("bytes_out"),
		WheelFires: delta("wheel_fires"),
		LagSamples: lag.Count,
		LagP50MS:   lag.Quantiles["p50_ms"],
		LagP95MS:   lag.Quantiles["p95_ms"],
		LagP99MS:   lag.Quantiles["p99_ms"],
		WallMS:     float64(rep.Wall) / 1e6,
	}
}

// lagWindow is the lag histogram of the samples recorded between two
// /metrics documents: the later one's bucket counts less the earlier
// one's. Its Wire is what /metrics would have served for the window
// alone, quantiles included.
func lagWindow(before, after metrics.HistogramJSON) metrics.Snapshot {
	w, b := after.Snapshot(), before.Snapshot()
	for i := range w.Counts {
		w.Counts[i] -= b.Counts[i]
	}
	w.N -= b.N
	w.SumNS -= b.SumNS
	return w
}

// parsePopulations parses the -sweep list: positive integers, commas.
func parsePopulations(list string) ([]int, error) {
	var pops []int
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad population %q (want comma-separated positive integers)", f)
		}
		pops = append(pops, n)
	}
	if len(pops) == 0 {
		return nil, fmt.Errorf("no populations in %q", list)
	}
	return pops, nil
}

// run drives the configured client mix and aggregates their outcomes.
func run(cfg config) (*report, error) {
	if cfg.clients <= 0 {
		return nil, fmt.Errorf("need at least one client")
	}
	if cfg.slow+cfg.stall > cfg.clients {
		return nil, fmt.Errorf("slow (%d) + stalled (%d) exceed -clients %d", cfg.slow, cfg.stall, cfg.clients)
	}
	if _, err := units.ParseRate(cfg.rate); err != nil {
		return nil, err
	}
	results := make([]clientResult, cfg.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.clients; i++ {
		kind := kindNormal
		switch {
		case i < cfg.stall:
			kind = kindStalled
		case i < cfg.stall+cfg.slow:
			kind = kindSlow
		}
		wg.Add(1)
		go func(i int, kind clientKind) {
			defer wg.Done()
			results[i] = runClient(cfg, kind)
		}(i, kind)
	}
	wg.Wait()
	rep := &report{Clients: cfg.clients, Wall: time.Since(start)}
	for _, r := range results {
		switch {
		case r.errored:
			rep.Errors++
		case r.busy:
			rep.Busy++
		case r.admitted:
			rep.Admitted++
		}
		if r.admitted {
			rep.Latency.Observe(r.latency.Seconds())
		}
		if r.completed {
			rep.Completed++
		}
		if r.evicted {
			rep.Evicted++
		}
		rep.Bytes += r.bytes
	}
	return rep, nil
}

// runClient runs one PLAY exchange in the given behavioral class.
func runClient(cfg config, kind clientKind) (res clientResult) {
	conn, err := net.DialTimeout("tcp", cfg.addr, 5*time.Second)
	if err != nil {
		res.errored = true
		return res
	}
	defer conn.Close()
	// Hard backstop so no client outlives the run by more than a grace
	// period, whatever the server does.
	conn.SetDeadline(time.Now().Add(cfg.duration + 10*time.Second))

	t0 := time.Now()
	if _, err := fmt.Fprintf(conn, "PLAY %s\n", cfg.rate); err != nil {
		res.errored = true
		return res
	}
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil {
		res.errored = true
		return res
	}
	res.latency = time.Since(t0)
	switch {
	case strings.HasPrefix(line, "BUSY"):
		res.busy = true
		return res
	case strings.HasPrefix(line, "OK streaming"):
		res.admitted = true
	default:
		res.errored = true
		return res
	}

	end := time.Now().Add(cfg.duration)
	switch kind {
	case kindNormal:
		res.bytes, res.completed = drainUntil(r, conn, end, 0)
	case kindSlow:
		// A slow reader: small reads with pauses. It exerts back-pressure
		// but never stalls past the server's write deadline.
		res.bytes, res.completed = drainUntil(r, conn, end, 20*time.Millisecond)
	case kindStalled:
		// Stop reading entirely: the server's write deadline must evict
		// us. After the stall window, a drain read tells us whether the
		// server closed the connection (eviction observed) or kept
		// pumping data (it failed to evict).
		time.Sleep(cfg.duration)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 64<<10)
		for {
			n, err := r.Read(buf)
			res.bytes += int64(n)
			if err != nil {
				isTimeout := false
				if netErr, ok := err.(net.Error); ok {
					isTimeout = netErr.Timeout()
				}
				res.evicted = !isTimeout // closed/reset by the server
				return res
			}
		}
	}
	return res
}

// drainUntil reads the stream until the server closes it, the deadline
// passes, or an error occurs; pause > 0 inserts a sleep between reads.
// completed reports a clean server-side close (full -limit delivered).
func drainUntil(r *bufio.Reader, conn net.Conn, end time.Time, pause time.Duration) (int64, bool) {
	var total int64
	buf := make([]byte, 32<<10)
	if pause > 0 {
		buf = buf[:1<<10] // small reads exaggerate slowness
	}
	for time.Now().Before(end) {
		conn.SetReadDeadline(time.Now().Add(time.Until(end) + time.Second))
		n, err := r.Read(buf)
		total += int64(n)
		if err != nil {
			return total, err == io.EOF
		}
		if pause > 0 {
			time.Sleep(pause)
		}
	}
	return total, false
}

// String renders the human report.
func (r *report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "memsload: %d clients, %v wall\n", r.Clients, r.Wall.Round(time.Millisecond))
	fmt.Fprintf(&b, "  admitted=%d busy=%d errors=%d completed=%d stall_evictions=%d\n",
		r.Admitted, r.Busy, r.Errors, r.Completed, r.Evicted)
	rate := units.RateOf(units.Bytes(r.Bytes), r.Wall)
	fmt.Fprintf(&b, "  bytes_in=%v throughput=%v\n", units.Bytes(r.Bytes), rate)
	p50, ok := r.Latency.Quantile(0.50)
	if ok {
		p95, _ := r.Latency.Quantile(0.95)
		p99, _ := r.Latency.Quantile(0.99)
		fmt.Fprintf(&b, "  admission_latency_ms: p50=%.2f p95=%.2f p99=%.2f\n",
			p50*1e3, p95*1e3, p99*1e3)
	} else {
		fmt.Fprintf(&b, "  admission_latency_ms: no admissions\n")
	}
	return b.String()
}
