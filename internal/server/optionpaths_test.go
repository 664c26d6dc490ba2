package server

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"memstream/internal/model"
	"memstream/internal/units"
)

var updateOptionPaths = flag.Bool("update", false, "rewrite testdata/option_paths.json from current output")

// optionPathConfigs are runs of the option paths no registered experiment
// takes — VBR, pauses, recorders, best effort, a long buffered horizon,
// both cache policies and the hybrid split — each with the probe attached,
// so the pinned experiment fingerprints are not their only guard.
func optionPathConfigs() []struct {
	name string
	cfg  Config
} {
	with := func(c Config, set func(*Config)) Config {
		c.Trace = true
		set(&c)
		return c
	}
	direct := baseConfig(Direct, 50, units.MBPS)
	buffered := baseConfig(Buffered, 100, units.MBPS)
	cached := baseConfig(Cached, 200, 100*units.KBPS)
	cached.Titles = 400
	return []struct {
		name string
		cfg  Config
	}{
		{"direct+vbr", with(direct, func(c *Config) { c.VBRCoV = 0.3 })},
		{"direct+pause", with(direct, func(c *Config) { c.PausedFraction = 0.3 })},
		{"edf", with(direct, func(c *Config) { c.UseEDF = true })},
		{"buffered+vbr", with(buffered, func(c *Config) { c.VBRCoV = 0.3 })},
		{"buffered+writers", with(buffered, func(c *Config) { c.Writers = 25 })},
		{"buffered+besteffort", with(buffered, func(c *Config) { c.BestEffort = true })},
		{"buffered@3min", with(buffered, func(c *Config) { c.Duration = 3 * time.Minute })},
		{"cached/striped", with(cached, func(c *Config) { c.CachePolicy = model.Striped })},
		{"cached/replicated", with(cached, func(c *Config) { c.CachePolicy = model.Replicated })},
		{"hybrid K=4/2", with(cached, func(c *Config) {
			c.Mode, c.N, c.K, c.CacheDevices = Hybrid, 300, 4, 2
		})},
	}
}

// TestOptionPathDigests pins a sha256 of every option path's marshalled
// Result, trace included: a refactor of the mode builders must keep each
// byte-identical. A deliberate behaviour change re-pins with
// `go test ./internal/server -run OptionPath -update`.
func TestOptionPathDigests(t *testing.T) {
	path := filepath.Join("testdata", "option_paths.json")
	got := map[string]string{}
	for _, tc := range optionPathConfigs() {
		res, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got[tc.name] = fmt.Sprintf("%x", sha256.Sum256(b))
	}
	if *updateOptionPaths {
		data, err := json.MarshalIndent(got, "", "  ") // map keys marshal sorted
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d runs, the table has %d", path, len(want), len(got))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: Result digest %s, pinned %s", name, sum, want[name])
		}
	}
}
