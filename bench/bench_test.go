package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testOptions runs a workload at 1/50 scale with the least repetition that
// still reaches every code path: two passes (one of them traced in a traced
// run), one set-up, millisecond probes.
func testOptions(workload string, seed uint64, trace bool) options {
	return options{
		Workload: workload, Seed: seed, Seconds: 0.05, Trace: trace,
		Div: 50, MinPasses: 2, Setups: 1, ProbeMin: time.Millisecond,
	}
}

func runForTest(t *testing.T, name string, seed uint64, trace bool) *result {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	r := runWorkload(w, testOptions(name, seed, trace), machine{})
	for _, c := range r.Checks {
		if !c.OK {
			t.Errorf("%s: check %q failed: %s", name, c.Name, c.Detail)
		}
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d", name, r.Correct, r.Attempted, r.Failed)
	}
	return r
}

// Every workload emits every declared metric as a finite number: the
// end-to-end ones (never 0) from an untraced run, the per-layer ones from a
// traced run, which also writes a trace whose spans nest.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			l := runForTest(t, w.Name, 1, false).line()
			if len(l.Metrics) != len(endToEnd) {
				t.Errorf("untraced run emitted %d metrics, want %d", len(l.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				v, ok := l.Metrics[d.Name]
				if !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("end-to-end %s = %+v (present %t), want a finite positive %s", d.Name, v, ok, d.Unit)
				}
			}

			r := runForTest(t, w.Name, 1, true)
			l = r.line()
			if len(l.Metrics) != len(perLayer) {
				t.Errorf("traced run emitted %d metrics, want %d", len(l.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				v, ok := l.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("per-layer %s = %+v (present %t), want a finite %s", d.Name, v, ok, d.Unit)
				}
			}
			if _, err := json.Marshal(l); err != nil {
				t.Errorf("result line does not encode: %v", err)
			}

			path := filepath.Join(t.TempDir(), "trace.json")
			if err := r.tracer.write(path, w.Name, 1); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) < 3 {
				t.Fatalf("trace holds %d spans", len(tf.Spans))
			}
			for _, s := range tf.Spans {
				if s.EndUS < s.StartUS || s.SelfUS < 0 || s.SelfUS > s.EndUS-s.StartUS+1e-6 {
					t.Errorf("span %d %q: start %g end %g self %g", s.ID, s.Name, s.StartUS, s.EndUS, s.SelfUS)
				}
				if s.Parent >= s.ID {
					t.Errorf("span %d %q has parent %d, which was recorded later", s.ID, s.Name, s.Parent)
				}
			}
		})
	}
}

// The same seed gives the same inputs and so the same rendered output; a
// different seed gives different ones.
func TestDigestFollowsSeed(t *testing.T) {
	for _, name := range []string{"sim-direct", "sim-buffered-rw"} {
		a := runForTest(t, name, 7, false).Digest
		b := runForTest(t, name, 7, false).Digest
		c := runForTest(t, name, 8, false).Digest
		if a == "" || a != b {
			t.Errorf("%s: seed 7 rendered %q then %q", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 rendered the same output", name)
		}
	}
}

func TestBurstOrderFollowsSeed(t *testing.T) {
	order := func(seed int64) string {
		return fmt.Sprint(burstRates(64, rand.New(rand.NewSource(seed))))
	}
	if order(3) != order(3) {
		t.Error("one seed drew two burst orders")
	}
	if order(3) == order(4) {
		t.Error("seeds 3 and 4 drew the same burst order")
	}
}

// The listener stamps hand-off when the harness enqueues, not when the
// server gets round to Accept, and honours Close.
func TestMemListener(t *testing.T) {
	ln := newMemListener(2)
	c := &memConn{round: &roundSync{}}
	ln.enqueue(c)
	between := time.Now()
	got, err := ln.Accept()
	if err != nil || got != net.Conn(c) {
		t.Fatalf("Accept = %v, %v", got, err)
	}
	if c.enqueued.IsZero() || c.enqueued.After(between) || c.accepted.Before(between) {
		t.Errorf("enqueued %v, accepted %v: want enqueue stamped before %v and accept after", c.enqueued, c.accepted, between)
	}

	ln.enqueue(&memConn{round: &roundSync{}})
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Accept after Close with a connection queued: %v, want net.ErrClosed", err)
	}
}

func TestMemConn(t *testing.T) {
	round := &roundSync{}
	round.answered.Add(1)
	round.closed.Add(1)
	c := &memConn{request: []byte("PLAY 10000\n"), quantum: 20 * time.Millisecond, perTick: 200, round: round}

	buf := make([]byte, 64)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != "PLAY 10000\n" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	if _, err := c.Read(buf); err != io.EOF {
		t.Errorf("second Read: %v, want io.EOF", err)
	}

	if _, err := c.Write([]byte("OK streaming\n")); err != nil {
		t.Fatal(err)
	}
	round.answered.Wait() // released by the banner
	if c.refused || c.banner.IsZero() {
		t.Errorf("after an OK banner: refused %t, banner %v", c.refused, c.banner)
	}
	// 198 bytes leave the first boundary uncovered even with the one-byte
	// allowance; two more cover it, on time.
	c.Write(make([]byte, 198))
	if got := c.quanta.Load(); got != 0 {
		t.Errorf("198 of 200 bytes cover %d boundaries", got)
	}
	c.Write(make([]byte, 2))
	if c.bytes.Load() != 200 || c.quanta.Load() != 1 || c.late.Load() != 0 {
		t.Errorf("bytes %d quanta %d late %d, want 200, 1, 0", c.bytes.Load(), c.quanta.Load(), c.late.Load())
	}
	// The schedule is anchored at the first payload chunk, so that chunk
	// is on time however long after the banner it came; a write long after
	// its boundaries counts each as late.
	if got := c.sinceAnchor(c.banner.Add(time.Duration(c.first.Load()))); got != c.quantum {
		t.Errorf("the first chunk lies %v into the schedule, want one quantum", got)
	}
	c.banner = c.banner.Add(-10 * c.quantum)
	c.Write(make([]byte, 400))
	if c.quanta.Load() != 3 || c.late.Load() != 2 {
		t.Errorf("quanta %d late %d after a catch-up write, want 3 and 2", c.quanta.Load(), c.late.Load())
	}

	c.hangUp()
	if _, err := c.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("Write after the client hung up: %v, want io.ErrClosedPipe", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	round.closed.Wait() // released by Close
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Write after Close: %v, want net.ErrClosed", err)
	}
	if _, err := c.Read(buf); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Read after Close: %v, want net.ErrClosed", err)
	}

	// A connection the server closes without answering is a refusal, and
	// still releases the round.
	round.answered.Add(1)
	round.closed.Add(1)
	d := &memConn{round: round}
	d.Close()
	round.answered.Wait()
	if !d.refused {
		t.Error("a connection closed before its banner is not marked refused")
	}
}

// quartiles follows Python's statistics.quantiles(xs, n=4), the rule the
// driver applies to run-to-run spread.
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || med != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %g %g %g, want 1 2 3", q1, med, q3)
	}
	// A timing reports its lower quartile, any other repeated sample its median.
	if s := steady("s", []float64{3, 1, 2}); s.Value != 1 || s.Median != 2 || s.N != 3 {
		t.Errorf("steady(1..3) = %+v, want value 1, median 2, n 3", s)
	}
	if s := summarize("ratio", []float64{3, 1, 2}); s.Value != 2 {
		t.Errorf("summarize(1..3) reports %g, want the median 2", s.Value)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", -1, 0, at(0), at(10))
	tr.add("child", root, 0, at(1), at(4))
	tr.add("child", root, 1, at(5), at(9))
	tr.finish()
	if got := tr.spans[root].SelfUS; got != 3000 {
		t.Errorf("root self time %g us, want 3000", got)
	}
	if got := tr.selfByName()["child"]; got != 7000 {
		t.Errorf("child self time %g us, want 7000", got)
	}
	var none *tracer
	none.end(none.begin("x", -1, 0)) // a nil tracer records nothing
}

// BENCHMARK.json declares exactly what the program emits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].Name)
		}
	}
	same := func(kind string, got []named, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json names %d %s metrics, the program has %d", len(got), kind, len(want))
			return
		}
		for i, g := range got {
			if g.Name != want[i].Name || g.Unit != want[i].Unit {
				t.Errorf("%s metric %d is %s (%s) in BENCHMARK.json, %s (%s) in the program", kind, i, g.Name, g.Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
