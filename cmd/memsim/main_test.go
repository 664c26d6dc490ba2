package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
	if summary(out1) != summary(out4) {
		t.Errorf("deterministic summary differs:\n shards=1:\n%s\n shards=4:\n%s", out1, out4)
	}
	if !strings.Contains(out4, "events_per_sec=") {
		t.Errorf("summary missing throughput line:\n%s", out4)
	}
}

// summary is -scale's output without its trailing shards= line, the one
// line that depends on the worker count (worker count, wall clock, rate).
func summary(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	return strings.Join(lines[:len(lines)-1], "\n")
}

// `memsim -scale 65536` at its default -scale-per, -scale-rate and -seed
// prints the same summary on one worker as on eight. Eight workers over
// its 16 partitions also pin arena reuse: each worker's arena carries
// over whatever partitions it drew from the shared queue.
func TestRunScale65536OneVsEightShards(t *testing.T) {
	var one, eight strings.Builder
	if err := runScale(65536, 4096, "10KB", 1, 1, "", &one); err != nil {
		t.Fatal(err)
	}
	if err := runScale(65536, 4096, "10KB", 1, 8, "", &eight); err != nil {
		t.Fatal(err)
	}
	if summary(one.String()) != summary(eight.String()) {
		t.Errorf("summary differs:\n shards=1:\n%s\n shards=8:\n%s", one.String(), eight.String())
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
