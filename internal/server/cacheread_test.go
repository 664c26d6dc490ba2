package server

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"memstream/internal/bank"
	"memstream/internal/device"
	"memstream/internal/model"
	"memstream/internal/units"
)

// perStreamCache is the reference cache stage: when the cycle fires,
// every cached stream in ascending order takes its next block and queues
// one item of its own on its lane. cacheRead's counted items (one per
// lane, blocks taken when each run starts) must reproduce it.
type perStreamCache struct {
	c     *cacheRead
	lanes []*chain // per cached stream, in c.streams order
	fn    func(it *chainItem, start time.Duration) time.Duration
}

func newPerStreamCache(c *cacheRead) *perStreamCache {
	laneOf := map[int32]*chain{}
	for _, l := range c.lanes {
		for _, i := range l.streams {
			laneOf[i] = l.chain
		}
	}
	p := &perStreamCache{c: c}
	for _, i := range c.streams {
		p.lanes = append(p.lanes, laneOf[int32(i)])
	}
	p.fn = p.run
	return p
}

func (p *perStreamCache) stage(int64) {
	c := p.c
	ps := &c.r.ar.ps
	for n, i := range c.streams {
		blk := ps.pos[i]
		if blk+c.ioBlocks > c.imageBlocks {
			blk = 0
		}
		ps.pos[i] = (blk + c.ioBlocks) % c.imageBlocks
		p.lanes[n].submit(chainItem{fn: p.fn, stream: int32(i), req: device.Request{Block: blk}})
	}
}

func (p *perStreamCache) run(it *chainItem, start time.Duration) time.Duration {
	c, i := p.c, int(it.stream)
	comp, err := c.cb.Read(start, i, it.req.Block, c.ioBlocks)
	if err != nil {
		return start
	}
	c.r.drainTo(i, comp.Finish)
	c.r.fill(i, c.ioSize)
	c.r.cacheFills++
	c.r.cacheFillBytes += c.ioSize
	return comp.Finish
}

// slowCacheBank stretches every read's service by factor, so that a
// cycle's reads outlast the cycle and a lane backs up.
type slowCacheBank struct {
	bank.CacheBank
	factor time.Duration
}

func (b slowCacheBank) Read(now time.Duration, stream int, block, blocks int64) (device.Completion, error) {
	c, err := b.CacheBank.Read(now, stream, block, blocks)
	c.Finish = now + b.factor*(c.Finish-now)
	return c, err
}

// logCacheBank records every cache read it forwards, in call order.
type logCacheBank struct {
	bank.CacheBank
	log *[]cacheReadRec
}

type cacheReadRec struct {
	stream int
	block  int64
	start  time.Duration
}

func (b logCacheBank) Read(now time.Duration, stream int, block, blocks int64) (device.Completion, error) {
	*b.log = append(*b.log, cacheReadRec{stream, block, now})
	return b.CacheBank.Read(now, stream, block, blocks)
}

// TestCountedCacheReadsMatchPerStreamItems runs each cache-bank shape
// twice, with counted cache items and with the per-stream reference, and
// requires the same reads (stream, block, start) in the same order and
// equal Results, probe samples included.
func TestCountedCacheReadsMatchPerStreamItems(t *testing.T) {
	striped := baseConfig(Cached, 200, 100*units.KBPS)
	striped.CachePolicy, striped.K, striped.Titles = model.Striped, 3, 400
	replicated := striped
	replicated.CachePolicy = model.Replicated
	hybrid := baseConfig(Hybrid, 300, 100*units.KBPS)
	hybrid.K, hybrid.CacheDevices, hybrid.Titles = 4, 2, 400
	cases := []struct {
		name   string
		cfg    Config
		factor time.Duration // > 1 backs the lanes up
	}{
		{"cached-striped", striped, 1},
		{"cached-replicated", replicated, 1},
		{"hybrid", hybrid, 1},
		{"cached-replicated-backed-up", replicated, 40},
		{"hybrid-backed-up", hybrid, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(reference bool) (Result, []cacheReadRec) {
				cfg := tc.cfg
				cfg.Trace = true
				if err := validate(&cfg); err != nil {
					t.Fatal(err)
				}
				m, err := newCycleRun(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if m.cache == nil {
					t.Fatal("the cache pins nobody's title")
				}
				if tc.factor > 1 {
					m.cache.cb = slowCacheBank{m.cache.cb, tc.factor}
				}
				var log []cacheReadRec
				m.cache.cb = logCacheBank{m.cache.cb, &log}
				if reference {
					for k := range m.stages {
						if m.stages[k].source == "cache" {
							m.stages[k].fn = newPerStreamCache(m.cache).stage
						}
					}
				}
				return m.run(), log
			}
			got, gotLog := run(false)
			want, wantLog := run(true)
			if !slices.Equal(gotLog, wantLog) {
				for k := range min(len(gotLog), len(wantLog)) {
					if gotLog[k] != wantLog[k] {
						t.Fatalf("read %d of %d: %+v, per-stream items read %+v", k, len(wantLog), gotLog[k], wantLog[k])
					}
				}
				t.Fatalf("%d reads, per-stream items made %d", len(gotLog), len(wantLog))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("counted cache reads diverged from per-stream items:\n got %+v\nwant %+v", got, want)
			}
			if tc.factor > 1 && !backedUp(want) {
				t.Fatal("no cache lane held more than one cycle's reads; the case tests nothing")
			}
		})
	}
}

// backedUp reports whether some cache sample saw a lane still holding
// the previous cycle's reads when the next cycle queued its own: a depth
// above the busiest lane's stream count.
func backedUp(res Result) bool {
	perLane := 0
	for _, s := range res.Trace.Samples {
		if s.Source == "cache" && s.Cycle == 0 {
			for _, d := range s.Devices {
				perLane = max(perLane, d.Queue)
			}
		}
	}
	for _, s := range res.Trace.Samples {
		for _, d := range s.Devices {
			if s.Source == "cache" && d.Queue > perLane {
				return true
			}
		}
	}
	return false
}
