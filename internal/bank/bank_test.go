package bank

import (
	"testing"
	"testing/quick"
	"time"

	"memstream/internal/device"
	"memstream/internal/tier"
	"memstream/internal/units"
)

func devs(t *testing.T, k int) []tier.Device {
	t.Helper()
	ds, err := New(k, tier.MustLookup("mems-g3"))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewValidates(t *testing.T) {
	if _, err := New(0, tier.MustLookup("mems-g3")); err == nil {
		t.Error("k=0 accepted")
	}
	bad := tier.MustLookup("mems-g3")
	bad.Capacity = 0
	if _, err := New(1, bad); err == nil {
		t.Error("invalid params accepted")
	}
	ds := devs(t, 3)
	if len(ds) != 3 {
		t.Fatalf("got %d devices", len(ds))
	}
}

func TestBufferBankRoundRobin(t *testing.T) {
	b, err := NewBufferBank(devs(t, 3), 10*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	// Streams go to devices 0,1,2,0,1,2,... (paper §3.1.2: every k-th disk
	// IO is routed to the same MEMS device).
	for i := 0; i < 9; i++ {
		dev, err := b.Attach(i)
		if err != nil {
			t.Fatal(err)
		}
		if dev != i%3 {
			t.Errorf("stream %d on device %d, want %d", i, dev, i%3)
		}
	}
	lo, hi := b.Balance()
	if lo != 3 || hi != 3 {
		t.Errorf("balance = %d..%d, want 3..3", lo, hi)
	}
}

func TestBufferBankDuplicateAttach(t *testing.T) {
	b, _ := NewBufferBank(devs(t, 2), 1*units.MB)
	if _, err := b.Attach(1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Attach(1); err == nil {
		t.Error("duplicate attach accepted")
	}
}

func TestBufferBankDetach(t *testing.T) {
	b, _ := NewBufferBank(devs(t, 2), 1*units.MB)
	if _, err := b.Attach(1); err != nil {
		t.Fatal(err)
	}
	b.Detach(1)
	if _, ok := b.DeviceOf(1); ok {
		t.Error("stream still attached after detach")
	}
	lo, hi := b.Balance()
	if lo != 0 || hi != 0 {
		t.Errorf("balance after detach = %d..%d", lo, hi)
	}
	b.Detach(99) // detaching an unknown stream is a no-op
}

// A released ring is reused; it is not cut again at the position the
// shrunken stream count suggests, where another stream still lives.
func TestBufferBankDetachAttachNoOverlap(t *testing.T) {
	b, _ := NewBufferBank(devs(t, 1), 1*units.MB)
	for _, s := range []int{0, 1} {
		if _, err := b.Attach(s); err != nil {
			t.Fatal(err)
		}
	}
	_, freed, _ := b.Ring(0)
	b.Detach(0)
	if _, err := b.Attach(2); err != nil {
		t.Fatal(err)
	}
	_, r1, _ := b.Ring(1)
	_, r2, ok := b.Ring(2)
	if !ok || r2 == r1 {
		t.Fatalf("streams 1 and 2 share the ring at block %d", r1)
	}
	if r2 != freed {
		t.Errorf("stream 2 got the ring at block %d, want the released one at %d", r2, freed)
	}
	w1, _, _ := b.StageRequest(1, 0, units.MB)
	w2, _, _ := b.StageRequest(2, 0, units.MB)
	if w1.Block == w2.Block {
		t.Errorf("both streams stage at block %d", w1.Block)
	}
	// With every ring taken again, a fresh one is cut past the high-water
	// mark.
	if _, err := b.Attach(3); err != nil {
		t.Fatal(err)
	}
	if _, r3, _ := b.Ring(3); r3 != 2*2*b.SlotBlocks() {
		t.Errorf("stream 3's ring at block %d, want %d", r3, 2*2*b.SlotBlocks())
	}
}

// Property: under any interleaving of attaches and detaches, live rings
// on one device never intersect, stay inside the device, and the
// per-device counts match the live set.
func TestLiveRingsNeverIntersectProperty(t *testing.T) {
	f := func(seed uint16, kk uint8) bool {
		k := int(kk%3) + 1
		// 800 MB slots: a handful of rings per G3 device, so exhaustion
		// and the any-free-device fallback both occur.
		b, err := NewBufferBank(devsQuick(k), 800*units.MB)
		if err != nil {
			return false
		}
		ringBlocks := 2 * b.SlotBlocks()
		limit := b.Device(0).Geometry().Blocks
		capacity := k * int(limit/ringBlocks)
		live := map[int]bool{}
		x := uint32(seed)*2654435761 + 1
		for step := 0; step < 400; step++ {
			x = x*1664525 + 1013904223
			s := int(x>>8) % 24
			if x>>31 == 0 && live[s] {
				b.Detach(s)
				delete(live, s)
			} else if !live[s] {
				if _, err := b.Attach(s); err == nil {
					live[s] = true
				} else if len(live) < capacity {
					return false // refused with a ring still free
				}
			}
			perDev := make([][]int64, k)
			for s := range live {
				dev, base, ok := b.Ring(s)
				if !ok || base%ringBlocks != 0 || base+ringBlocks > limit {
					return false
				}
				for _, other := range perDev[dev] {
					if other == base {
						return false
					}
				}
				perDev[dev] = append(perDev[dev], base)
			}
			lo, hi := b.Balance()
			for _, rings := range perDev {
				if len(rings) < lo || len(rings) > hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Stream ids index dense tables: a negative id is an error on every entry
// point, never a panic.
func TestBufferBankNegativeStream(t *testing.T) {
	b, _ := NewBufferBank(devs(t, 2), 1*units.MB)
	if _, err := b.Attach(-1); err == nil {
		t.Error("negative stream id attached")
	}
	if _, ok := b.DeviceOf(-1); ok {
		t.Error("negative stream id reported attached")
	}
	if _, _, ok := b.Ring(-3); ok {
		t.Error("negative stream id has a ring")
	}
	if _, _, err := b.StageRequest(-1, 0, units.MB); err == nil {
		t.Error("negative stream id staged")
	}
	if _, _, err := b.DrainRequest(-1, 0, units.MB); err == nil {
		t.Error("negative stream id drained")
	}
	b.Detach(-1)
	if lo, hi := b.Balance(); lo != 0 || hi != 0 {
		t.Errorf("balance = %d..%d after no-op calls", lo, hi)
	}
}

func TestBufferBankValidation(t *testing.T) {
	if _, err := NewBufferBank(nil, 1*units.MB); err == nil {
		t.Error("empty device list accepted")
	}
	if _, err := NewBufferBank(devs(t, 1), 0); err == nil {
		t.Error("zero slot size accepted")
	}
	if _, err := NewBufferBank(devs(t, 1), 20*units.GB); err == nil {
		t.Error("slot larger than device accepted")
	}
	// The bank resolves one geometry for all its devices.
	g1, err := New(1, tier.MustLookup("mems-g1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBufferBank(append(devs(t, 1), g1...), 1*units.MB); err == nil {
		t.Error("devices of different geometry accepted")
	}
}

func TestStagingRingsDisjoint(t *testing.T) {
	slot := 50 * units.MB
	b, _ := NewBufferBank(devs(t, 2), slot)
	type span struct{ lo, hi int64 }
	spans := map[int][]span{} // device -> spans
	for i := 0; i < 20; i++ {
		dev, err := b.Attach(i)
		if err != nil {
			t.Fatal(err)
		}
		for cyc := int64(0); cyc < 2; cyc++ {
			r, rdev, err := b.StageRequest(i, cyc, slot)
			if err != nil {
				t.Fatal(err)
			}
			if rdev != dev {
				t.Fatalf("stage device %d != attach device %d", rdev, dev)
			}
			for _, s := range spans[dev] {
				if r.Block < s.hi && r.Block+r.Blocks > s.lo {
					t.Fatalf("stream %d cycle %d overlaps span [%d,%d)", i, cyc, s.lo, s.hi)
				}
			}
			spans[dev] = append(spans[dev], span{r.Block, r.Block + r.Blocks})
		}
	}
}

func TestStageDrainAlternateSlots(t *testing.T) {
	b, _ := NewBufferBank(devs(t, 1), 10*units.MB)
	if _, err := b.Attach(0); err != nil {
		t.Fatal(err)
	}
	w0, _, err := b.StageRequest(0, 0, 10*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := b.DrainRequest(0, 1, 10*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle 1's drain reads the slot cycle 0's stage wrote.
	if w0.Block != r1.Block {
		t.Errorf("drain(1) reads block %d, stage(0) wrote %d", r1.Block, w0.Block)
	}
	if r1.Op != device.Read || w0.Op != device.Write {
		t.Error("ops wrong")
	}
	// Same-cycle stage and drain must use different slots.
	r0, _, _ := b.DrainRequest(0, 0, 10*units.MB)
	if r0.Block == w0.Block {
		t.Error("same-cycle stage and drain collide")
	}
}

func TestStageRequestUnattached(t *testing.T) {
	b, _ := NewBufferBank(devs(t, 1), 1*units.MB)
	if _, _, err := b.StageRequest(5, 0, units.MB); err == nil {
		t.Error("unattached stage accepted")
	}
	if _, _, err := b.DrainRequest(5, 0, units.MB); err == nil {
		t.Error("unattached drain accepted")
	}
}

func TestSpareStorageShrinksWithStreams(t *testing.T) {
	b, _ := NewBufferBank(devs(t, 2), 100*units.MB)
	before := b.SpareStorage()
	for i := 0; i < 4; i++ {
		if _, err := b.Attach(i); err != nil {
			t.Fatal(err)
		}
	}
	after := b.SpareStorage()
	want := before - 4*2*100*units.MB
	if diff := float64(after - want); diff > 1e7 || diff < -1e7 {
		t.Errorf("spare = %v, want ≈%v", after, want)
	}
}

func TestSpareBandwidth(t *testing.T) {
	b, _ := NewBufferBank(devs(t, 2), 1*units.MB)
	// 2 G3 devices: 640MB/s total; 100MB/s of streams needs 200MB/s.
	got := b.SpareBandwidth(100 * units.MBPS)
	if got != 440*units.MBPS {
		t.Errorf("spare bandwidth = %v, want 440MB/s", got)
	}
	if got := b.SpareBandwidth(400 * units.MBPS); got != 0 {
		t.Errorf("overloaded spare = %v, want 0", got)
	}
}

func TestServiceOn(t *testing.T) {
	b, _ := NewBufferBank(devs(t, 2), 1*units.MB)
	if _, err := b.Attach(0); err != nil {
		t.Fatal(err)
	}
	r, dev, _ := b.StageRequest(0, 0, units.MB)
	c, err := b.ServiceOn(dev, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if c.Finish <= 0 {
		t.Error("no service time")
	}
	if _, err := b.ServiceOn(9, 0, r); err == nil {
		t.Error("out-of-range device accepted")
	}
}

// Property: round-robin attachment keeps the bank balanced within one
// stream for any attach count.
func TestRoundRobinBalanceProperty(t *testing.T) {
	f := func(n uint8, kk uint8) bool {
		k := int(kk%7) + 1
		b, err := NewBufferBank(devsQuick(k), 100*units.MB)
		if err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			if _, err := b.Attach(i); err != nil {
				return true // staging exhaustion is fine
			}
		}
		lo, hi := b.Balance()
		return hi-lo <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func devsQuick(k int) []tier.Device {
	ds, err := New(k, tier.MustLookup("mems-g3"))
	if err != nil {
		panic(err)
	}
	return ds
}

func TestStripedBankLockStep(t *testing.T) {
	sb, err := NewStripedBank(devs(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if sb.K() != 4 {
		t.Errorf("K = %d", sb.K())
	}
	if got := sb.Capacity(); got < 39*units.GB {
		t.Errorf("capacity = %v, want ≈40GB", got)
	}
	if err := sb.Assign(0); err != nil {
		t.Fatal(err)
	}
	if err := sb.Assign(0); err == nil {
		t.Error("duplicate assign accepted")
	}
	// A 4MB striped read moves 1MB per device; it should complete in about
	// the time a single device needs for 1MB plus one seek.
	c, err := sb.Read(0, 0, 0, 8192) // 4MiB in 512B blocks
	if err != nil {
		t.Fatal(err)
	}
	single := (units.Bytes(2048) * 512).Duration(320 * units.MBPS)
	if c.Finish < single || c.Finish > single+2*time.Millisecond {
		t.Errorf("striped read took %v, want ≈%v", c.Finish, single)
	}
	if sb.SeeksPerCycle(10) != 40 {
		t.Errorf("seeks = %d, want k·n = 40", sb.SeeksPerCycle(10))
	}
}

func TestReplicatedBankAssignment(t *testing.T) {
	rb, err := NewReplicatedBank(devs(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if rb.K() != 3 {
		t.Errorf("K = %d", rb.K())
	}
	if got := rb.Capacity(); got > 11*units.GB {
		t.Errorf("capacity = %v, want one copy (≈10GB)", got)
	}
	for i := 0; i < 9; i++ {
		if err := rb.Assign(i); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := rb.Balance()
	if hi-lo > 1 {
		t.Errorf("balance = %d..%d", lo, hi)
	}
	if err := rb.Assign(0); err == nil {
		t.Error("duplicate assign accepted")
	}
	// Reads land on the pinned replica.
	dev, ok := rb.DeviceOf(4)
	if !ok {
		t.Fatal("stream 4 unassigned")
	}
	before := rb.devs[dev].Served()
	if _, err := rb.Read(0, 4, 0, 1024); err != nil {
		t.Fatal(err)
	}
	if rb.devs[dev].Served() != before+1 {
		t.Error("read did not hit the pinned replica")
	}
	if rb.SeeksPerCycle(10) != 10 {
		t.Errorf("seeks = %d, want n = 10", rb.SeeksPerCycle(10))
	}
}

func TestReplicatedReadUnassigned(t *testing.T) {
	rb, _ := NewReplicatedBank(devs(t, 2))
	if _, err := rb.Read(0, 99, 0, 8); err == nil {
		t.Error("unassigned read accepted")
	}
}

func TestCacheBankConstructorsReject(t *testing.T) {
	if _, err := NewStripedBank(nil); err == nil {
		t.Error("empty striped accepted")
	}
	if _, err := NewReplicatedBank(nil); err == nil {
		t.Error("empty replicated accepted")
	}
}

// Property: replicated assignment is always balanced within one stream.
func TestReplicatedBalanceProperty(t *testing.T) {
	f := func(n uint8, kk uint8) bool {
		k := int(kk%7) + 1
		rb, err := NewReplicatedBank(devsQuick(k))
		if err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			if err := rb.Assign(i); err != nil {
				return false
			}
		}
		if n == 0 {
			return true
		}
		lo, hi := rb.Balance()
		return hi-lo <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBufferBankAccessors(t *testing.T) {
	b, _ := NewBufferBank(devs(t, 3), 5*units.MB)
	if b.K() != 3 {
		t.Errorf("K = %d", b.K())
	}
	if b.SlotSize() != 5*units.MB {
		t.Errorf("SlotSize = %v", b.SlotSize())
	}
	if b.Device(1) == nil {
		t.Error("Device(1) nil")
	}
}

func TestReplicatedReadClampsToReplica(t *testing.T) {
	rb, _ := NewReplicatedBank(devs(t, 2))
	if err := rb.Assign(0); err != nil {
		t.Fatal(err)
	}
	blocks := rb.devs[0].Geometry().Blocks
	// A read at the very end clamps back into range.
	c, err := rb.Read(0, 0, blocks-1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if c.Block+c.Blocks > blocks {
		t.Errorf("read [%d,%d) escaped replica of %d", c.Block, c.Block+c.Blocks, blocks)
	}
	// A request bigger than the replica fails.
	if _, err := rb.Read(0, 0, 0, blocks+1); err == nil {
		t.Error("oversized read accepted")
	}
}

// BenchmarkBufferBankStage times the request builders on the buffered
// pipeline's population: one staged write and one drain read per op, the
// pair the repo benchmark's bank.stage_ns probe times.
func BenchmarkBufferBankStage(b *testing.B) {
	bb, err := NewBufferBank(devsQuick(4), 2*units.MB)
	if err != nil {
		b.Fatal(err)
	}
	const streams = 1500
	for i := 0; i < streams; i++ {
		if _, err := bb.Attach(i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var blocks int64
	for i := 0; i < b.N; i++ {
		s := i % streams
		w, _, err := bb.StageRequest(s, int64(i), 2*units.MB)
		if err != nil {
			b.Fatal(err)
		}
		r, _, err := bb.DrainRequest(s, int64(i), 16*units.KB)
		if err != nil {
			b.Fatal(err)
		}
		blocks += w.Blocks + r.Blocks
	}
	if blocks == 0 {
		b.Fatal("no blocks requested")
	}
}
