// Package metrics is the production observability layer for the serving
// front-end: lock-free hot-path primitives whose record paths cost one or
// two uncontended atomic RMWs and zero allocations, plus mergeable
// snapshots and the JSON schema the HTTP control plane renders and
// cmd/memsload consumes.
//
// Two primitives cover the streaming hot path:
//
//   - Counter: a cache-line-padded sharded atomic counter. A hot
//     goroutine (one paced stream) takes a Handle once at start and adds
//     to its own shard thereafter, so concurrent streams never contend on
//     one cache line. Total folds the shards on the (cold) read side.
//   - Histogram: a fixed-bucket log-spaced latency histogram, sharded
//     the same way. Observe maps a value to its bucket with float-bit
//     arithmetic (no math.Log, no allocation, no lock) and increments
//     one atomic bucket of the handle's shard; Snapshot folds the shards.
//
// Both replace the previous design in internal/serve, where every
// pacing-lag sample took a sync.Mutex around a sampling reservoir — a
// single contended lock shared by every stream on the box.
package metrics

import "sync/atomic"

// numShards is the shard fan-out of Counter and Histogram. Handles
// distribute round-robin, so up to this many hot goroutines write
// entirely uncontended cache lines; beyond it, collisions stay
// 1/numShards. Must be a power of two.
const numShards = 16

// counterShard pads one atomic to a 64-byte cache line so neighbouring
// shards never false-share.
type counterShard struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a monotonic counter sharded across cache-line-padded cells.
// The zero value is ready to use. Hot paths should take a Handle once and
// add through it; Add without a handle is for cold paths.
type Counter struct {
	shards [numShards]counterShard
	next   atomic.Uint32
}

// Handle is a hot goroutine's pinned shard reference. Obtain one from
// Counter.Handle at goroutine start; the zero Handle is invalid.
type Handle struct {
	s *counterShard
}

// Handle assigns the next shard round-robin. One atomic increment here
// buys an uncontended hot path for the goroutine's lifetime.
func (c *Counter) Handle() Handle {
	i := c.next.Add(1) - 1
	return Handle{s: &c.shards[i%numShards]}
}

// Add accumulates delta on the handle's shard.
func (h Handle) Add(delta uint64) { h.s.n.Add(delta) }

// Total folds every shard. It is not a consistent cut across shards
// (loads are independent), but the counter is monotonic, so Total is
// always between the true value at the start and end of the call.
func (c *Counter) Total() uint64 {
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].n.Load()
	}
	return sum
}

// Gauge is a lock-free instantaneous gauge (population counts, queue
// depths): a padded atomic so a hot gauge never false-shares with its
// neighbours in a metrics struct. The zero value is ready to use.
// Unlike Counter it can go down, and its single cell is the truth — a
// gauge read must never be smeared across shards the way a monotonic
// counter's Total may be.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Add moves the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }
