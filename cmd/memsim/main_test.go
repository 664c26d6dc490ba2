package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memstream/internal/device"
	"memstream/internal/trace"
	"memstream/internal/units"
)

func TestOpenDevice(t *testing.T) {
	for _, name := range []string{"g1", "g2", "g3", "futuredisk", "atlas10k3"} {
		dev, isDisk, err := openDevice(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if dev == nil {
			t.Errorf("%s: nil device", name)
		}
		wantDisk := name == "futuredisk" || name == "atlas10k3"
		if isDisk != wantDisk {
			t.Errorf("%s: isDisk = %v", name, isDisk)
		}
	}
	if _, _, err := openDevice("floppy"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestGenerateWithinGeometry(t *testing.T) {
	dev, _, err := openDevice("g3")
	if err != nil {
		t.Fatal(err)
	}
	g := dev.Geometry()
	events := generate(g, 500, 64*units.KB, 1)
	if len(events) != 500 {
		t.Fatalf("events = %d", len(events))
	}
	for _, e := range events {
		if err := g.Validate(e.Request()); err != nil {
			t.Fatalf("generated invalid request: %v", err)
		}
	}
	// Deterministic for a fixed seed.
	again := generate(g, 500, 64*units.KB, 1)
	for i := range events {
		if events[i] != again[i] {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestRunTraceAllPolicies(t *testing.T) {
	for _, name := range []string{"g3", "futuredisk"} {
		for _, policy := range []string{"fcfs", "sptf", "elevator"} {
			dev, _, err := openDevice(name)
			if err != nil {
				t.Fatal(err)
			}
			events := generate(dev.Geometry(), 100, 64*units.KB, 2)
			cs, err := runTrace(dev, name == "futuredisk", policy, events)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, policy, err)
			}
			if len(cs) != len(events) {
				t.Fatalf("%s/%s: served %d of %d", name, policy, len(cs), len(events))
			}
		}
	}
}

func TestTraceRoundTripThroughSim(t *testing.T) {
	dev, _, _ := openDevice("g3")
	events := generate(dev.Geometry(), 50, 32*units.KB, 3)
	st := trace.Summarize(events)
	if st.Events != 50 || st.Reads != 50 {
		t.Fatalf("summary = %+v", st)
	}
	cs, err := runTrace(dev, false, "sptf", events)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range cs {
		if c.Op != device.Read {
			t.Fatal("non-read completion")
		}
		total += c.Blocks
	}
	if total != st.TotalBlocks {
		t.Errorf("blocks served %d != trace %d", total, st.TotalBlocks)
	}
}

func TestOpenArrayDevices(t *testing.T) {
	for _, name := range []string{"array2", "array4"} {
		dev, isDisk, err := openDevice(name)
		if err != nil {
			t.Fatal(err)
		}
		if !isDisk || dev == nil {
			t.Fatalf("%s: isDisk=%v dev=%v", name, isDisk, dev)
		}
		events := generate(dev.Geometry(), 50, 1024*1024, 7)
		cs, err := runTrace(dev, true, "fcfs", events)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs) != 50 {
			t.Fatalf("%s served %d of 50", name, len(cs))
		}
	}
}

// scaleOutput runs the scaling scenario and returns (summary text, JSON doc).
func scaleOutput(t *testing.T, shards int) (string, scaleDoc) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scale.json")
	var out strings.Builder
	if err := runScale(512, 128, "100KB", 7, shards, path, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc scaleDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("scale doc not valid JSON: %v", err)
	}
	return out.String(), doc
}

// The merged counters and every summary line except the execution figures
// are byte-identical however many shards run the scenario; the JSON doc
// carries the shard-dependent figures alongside.
func TestRunScaleDeterministicAcrossShards(t *testing.T) {
	out1, doc1 := scaleOutput(t, 1)
	out4, doc4 := scaleOutput(t, 4)

	if doc1.Streams != 512 || doc1.Partitions != 4 || doc1.Shards != 1 {
		t.Errorf("doc = %+v", doc1)
	}
	if doc4.Shards != 4 {
		t.Errorf("doc = %+v", doc4)
	}
	if doc1.Events != doc4.Events || doc1.Cycles != doc4.Cycles ||
		doc1.Underflows != doc4.Underflows || doc1.SimulatedTime != doc4.SimulatedTime {
		t.Errorf("merged counters differ across shard counts:\n 1: %+v\n 4: %+v", doc1, doc4)
	}
	if doc1.EventsPerSec <= 0 || doc4.EventsPerSec <= 0 {
		t.Errorf("throughput figures not positive: %+v / %+v", doc1, doc4)
	}
	// All summary lines but the trailing shards= execution line match.
	strip := func(s string) string {
		lines := strings.Split(strings.TrimSpace(s), "\n")
		return strings.Join(lines[:len(lines)-1], "\n")
	}
	if strip(out1) != strip(out4) {
		t.Errorf("deterministic summary differs:\n shards=1:\n%s\n shards=4:\n%s", out1, out4)
	}
	if !strings.Contains(out4, "events_per_sec=") {
		t.Errorf("summary missing throughput line:\n%s", out4)
	}
}

func TestRunScaleBadArguments(t *testing.T) {
	if err := runScale(100, 10, "walrus", 1, 1, "", io.Discard); err == nil {
		t.Error("bad -scale-rate accepted")
	}
	if err := runScale(0, 10, "10KB", 1, 1, "", io.Discard); err == nil {
		t.Error("zero stream total accepted")
	}
}
