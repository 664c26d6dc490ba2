package device

import (
	"testing"
	"testing/quick"
)

// UsedBlocks returns resident blocks.
func (c *ReadCache) UsedBlocks() int64 {
	if c == nil {
		return 0
	}
	return c.used
}

func TestNewReadCacheValidates(t *testing.T) {
	if _, err := NewReadCache(0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewReadCache(-1); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestCacheHitAfterInsert(t *testing.T) {
	c, _ := NewReadCache(1000)
	if c.Lookup(100, 50) {
		t.Fatal("cold cache hit")
	}
	c.Insert(100, 50)
	if !c.Lookup(100, 50) {
		t.Fatal("exact re-read missed")
	}
	if !c.Lookup(110, 20) {
		t.Fatal("contained sub-range missed")
	}
	if c.Lookup(90, 20) {
		t.Fatal("partially uncovered range hit")
	}
	if c.HitRatio() <= 0 || c.HitRatio() >= 1 {
		t.Errorf("hit ratio = %v", c.HitRatio())
	}
}

func TestCacheSpanningExtents(t *testing.T) {
	c, _ := NewReadCache(1000)
	c.Insert(0, 50)
	c.Insert(50, 50)
	if !c.Lookup(20, 60) {
		t.Fatal("read spanning two adjacent extents missed")
	}
	if c.Lookup(80, 40) {
		t.Fatal("read past cached end hit")
	}
}

func TestCacheEvictionLRU(t *testing.T) {
	c, _ := NewReadCache(100)
	c.Insert(0, 60)
	c.Insert(1000, 40) // full
	if !c.Lookup(0, 60) {
		t.Fatal("first extent missing")
	}
	c.Insert(2000, 50) // evicts LRU = extent at 1000
	if c.Lookup(1000, 40) {
		t.Error("LRU extent not evicted")
	}
	if !c.Lookup(2000, 50) {
		t.Error("new extent missing")
	}
	if c.UsedBlocks() > 100 {
		t.Errorf("used %d > capacity", c.UsedBlocks())
	}
}

func TestCacheInvalidateOnWrite(t *testing.T) {
	c, _ := NewReadCache(1000)
	c.Insert(100, 100)
	c.Invalidate(150, 10)
	if c.Lookup(100, 100) {
		t.Error("overlapping write did not invalidate")
	}
	// Non-overlapping invalidation is a no-op.
	c.Insert(100, 100)
	c.Invalidate(500, 10)
	if !c.Lookup(100, 100) {
		t.Error("unrelated write invalidated")
	}
}

func TestCacheOversizedInsertIgnored(t *testing.T) {
	c, _ := NewReadCache(10)
	c.Insert(0, 100)
	if c.UsedBlocks() != 0 {
		t.Error("oversized extent inserted")
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *ReadCache
	if c.Lookup(0, 10) {
		t.Error("nil cache hit")
	}
	c.Insert(0, 10)
	c.Invalidate(0, 10)
	if c.UsedBlocks() != 0 || c.HitRatio() != 0 {
		t.Error("nil cache has state")
	}
}

// Property: used blocks never exceed capacity for any insert sequence.
func TestCacheCapacityProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c, err := NewReadCache(256)
		if err != nil {
			return false
		}
		for _, op := range ops {
			start := int64(op % 1024)
			blocks := int64(op%64) + 1
			if op%3 == 0 {
				c.Invalidate(start, blocks)
			} else {
				c.Insert(start, blocks)
			}
			if c.UsedBlocks() > 256 || c.UsedBlocks() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a Lookup immediately after Insert of the same range hits.
func TestCacheInsertThenLookupProperty(t *testing.T) {
	f := func(start uint16, blocks uint8) bool {
		c, err := NewReadCache(1 << 20)
		if err != nil {
			return false
		}
		b := int64(blocks) + 1
		c.Insert(int64(start), b)
		return c.Lookup(int64(start), b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
