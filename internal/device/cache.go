package device

import (
	"container/list"
	"fmt"
)

// ReadCache is a small on-device cache over logical block extents, the
// kind found in disk controllers and assumed for MEMS devices (paper §3).
// It caches at extent granularity: a read hits when its whole range is
// covered by cached extents; completed reads insert their extent; writes
// invalidate overlapping extents (write-through, no dirty state).
//
// Eviction is LRU by extent. The cache is deliberately simple — device
// caches mainly absorb re-reads and readahead, and streaming workloads
// defeat them (no temporal locality), which the tests demonstrate.
type ReadCache struct {
	capacity int64 // blocks
	used     int64
	order    *list.List // front = most recently used
	index    map[int64]*list.Element

	Hits, Misses uint64
}

type extent struct {
	start, blocks int64
}

// NewReadCache creates a cache holding up to capacityBlocks blocks.
func NewReadCache(capacityBlocks int64) (*ReadCache, error) {
	if capacityBlocks <= 0 {
		return nil, fmt.Errorf("device: non-positive cache capacity %d", capacityBlocks)
	}
	return &ReadCache{
		capacity: capacityBlocks,
		order:    list.New(),
		index:    make(map[int64]*list.Element),
	}, nil
}

// Lookup reports whether the range [start, start+blocks) is fully cached,
// updating hit/miss statistics and recency.
func (c *ReadCache) Lookup(start, blocks int64) bool {
	if c == nil {
		return false
	}
	// Walk the covering extents; ranges inserted by Insert are aligned to
	// past requests, so coverage is typically a single extent.
	remaining := blocks
	cursor := start
	var touched []*list.Element
	for remaining > 0 {
		e := c.covering(cursor)
		if e == nil {
			c.Misses++
			return false
		}
		ext := e.Value.(extent)
		advance := ext.start + ext.blocks - cursor
		cursor += advance
		remaining -= advance
		touched = append(touched, e)
	}
	for _, e := range touched {
		c.order.MoveToFront(e)
	}
	c.Hits++
	return true
}

// covering returns the cached extent containing block, if any.
func (c *ReadCache) covering(block int64) *list.Element {
	for e := c.order.Front(); e != nil; e = e.Next() {
		ext := e.Value.(extent)
		if block >= ext.start && block < ext.start+ext.blocks {
			return e
		}
	}
	return nil
}

// Insert caches the range [start, start+blocks), evicting LRU extents to
// fit. Ranges larger than the cache are not inserted.
func (c *ReadCache) Insert(start, blocks int64) {
	if c == nil || blocks <= 0 || blocks > c.capacity {
		return
	}
	// Drop overlapping extents first to keep the index disjoint.
	c.invalidate(start, blocks)
	for c.used+blocks > c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		ext := back.Value.(extent)
		c.order.Remove(back)
		delete(c.index, ext.start)
		c.used -= ext.blocks
	}
	c.index[start] = c.order.PushFront(extent{start: start, blocks: blocks})
	c.used += blocks
}

// Invalidate removes cached data overlapping [start, start+blocks) —
// called on writes.
func (c *ReadCache) Invalidate(start, blocks int64) {
	if c == nil {
		return
	}
	c.invalidate(start, blocks)
}

func (c *ReadCache) invalidate(start, blocks int64) {
	end := start + blocks
	var drop []*list.Element
	for e := c.order.Front(); e != nil; e = e.Next() {
		ext := e.Value.(extent)
		if ext.start < end && start < ext.start+ext.blocks {
			drop = append(drop, e)
		}
	}
	for _, e := range drop {
		ext := e.Value.(extent)
		c.order.Remove(e)
		delete(c.index, ext.start)
		c.used -= ext.blocks
	}
}

// HitRatio returns hits/(hits+misses), 0 before any lookup.
func (c *ReadCache) HitRatio() float64 {
	if c == nil || c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}
