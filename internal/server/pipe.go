package server

import (
	"fmt"
	"time"

	"memstream/internal/bank"
	"memstream/internal/device"
	"memstream/internal/model"
	"memstream/internal/tier"
	"memstream/internal/units"
)

// bufferPipe is the disk → bank → DRAM pipeline of §3.1 as two cycle
// stages over the rig, shared by the buffered driver and the miss side of
// hybrid. Its disk stage (a diskRead) runs once per disk cycle: one large
// C-LOOK-ordered disk IO per stream, each read followed by the bank write
// that stages it in the stream's ring, each recorder's write shipping the
// slot assembled last cycle. tierDrain runs once per bank cycle: every reader's
// small DRAM-side read out of the slot the previous disk cycle staged, and
// for recorders the append of the cycle's production plus the read-back of
// the slot assembled last cycle (which the recorder's disk write ships).
//
// Every stream of a run has the same bit-rate, so all of them stand at the
// same offset in their slot: the drain's position is one (disk cycle,
// offset) pair, and one bank cycle's work on one device is one counted
// chainItem carrying (device, parity, offset, blocks). Each run of the
// item takes the next stream of the device's list by cursor and adds the
// stream's ring base. Deriving the operands at service time changes
// nothing: the item carries everything that was decided when the cycle
// fired, ring bases never move, and a counted item holds exactly the
// chain positions its copies would.
type bufferPipe struct {
	r    *rig
	bb   *bank.BufferBank
	devs []tier.Device // the bank's devices
	disk *diskRead     // over the attached players; its first writers record
	bank []*chain      // one per bank device

	// order lists the devices holding streams by their first stream. The
	// first item submitted to an idle chain runs inside submit, so this
	// is the order a stream-by-stream walk would have started them in.
	order   []int32
	writers [][]ringRef // per device, ascending stream
	readers [][]ringRef

	tDisk       time.Duration
	block       units.Bytes // bank block size
	slotBlocks  int64       // bank blocks per staging slot
	pieceBlocks int64       // bank blocks one bank cycle moves per stream
	cyc, off    int64       // the drain position: its disk cycle, blocks consumed

	// Recorder accounting: bytes each writer (by player index) has staged
	// so far, and the peak DRAM any writer held (produced minus staged).
	staged     []units.Bytes
	writerPeak units.Bytes

	// The item handlers, bound once so a cycle allocates nothing.
	stageFn, drainFn, appendFn, recordFn func(it *chainItem, start time.Duration) time.Duration
}

// ringRef is one stream's entry in a device's drain list.
type ringRef struct {
	stream int32
	base   int64 // first block of the stream's staging ring
}

// newBufferPipe attaches streams (ascending player indices, the first
// writers of them recorders) to bb, whose slots hold plan's disk IO, and
// builds the per-device drain lists.
func (r *rig) newBufferPipe(bb *bank.BufferBank, plan model.BufferedPlan, streams []int, writers int) (*bufferPipe, error) {
	k := bb.K()
	devs := make([]tier.Device, k)
	for i := range devs {
		devs[i] = bb.Device(i)
	}
	p := &bufferPipe{
		r: r, bb: bb, devs: devs, bank: make([]*chain, k),
		writers: make([][]ringRef, k), readers: make([][]ringRef, k),
		tDisk: plan.DiskCycle,
		block: devs[0].Geometry().BlockSize,
	}
	p.slotBlocks = bb.SlotBlocks()
	p.pieceBlocks = min(blocksFor(units.BytesIn(r.rate, plan.MEMSCycle), p.block), p.slotBlocks)
	if writers > 0 {
		p.staged = make([]units.Bytes, r.n)
	}
	for n, i := range streams {
		dev, err := bb.Attach(i)
		if err != nil {
			return nil, err
		}
		_, base, _ := bb.Ring(i)
		if len(p.writers[dev])+len(p.readers[dev]) == 0 {
			p.order = append(p.order, int32(dev))
		}
		list := &p.readers[dev]
		if n < writers {
			list = &p.writers[dev]
		}
		*list = append(*list, ringRef{stream: int32(i), base: base})
	}
	p.disk = r.newDiskRead(streams, plan.DiskIOSize)
	p.disk.writers, p.disk.dispatchFn = writers, p.runDispatch
	for i, d := range devs {
		p.bank[i] = r.newChain()
		r.observe(fmt.Sprintf("mems%d", i), d, p.bank[i])
	}
	p.stageFn = p.runStage
	p.drainFn, p.appendFn, p.recordFn = p.runDrain, p.runAppend, p.runRecord
	return p, nil
}

// runDispatch services one slot of a disk cycle's C-LOOK batch and, for a
// read, queues the bank write that stages the bytes in the slot of the
// disk cycle's parity. A recorder's write needs none: its data already
// left the bank.
func (p *bufferPipe) runDispatch(it *chainItem, start time.Duration) time.Duration {
	comp, ok, err := it.sched.Dispatch(start)
	p.disk.release(it.sched)
	if err != nil || !ok {
		return start
	}
	if comp.Op == device.Write {
		return comp.Finish
	}
	wreq, dev, err := p.bb.StageRequest(comp.Stream, int64(it.parity), units.Bytes(comp.Blocks)*p.disk.block)
	if err != nil {
		return comp.Finish
	}
	p.bank[dev].submit(chainItem{fn: p.stageFn, req: wreq, dev: int32(dev)})
	return comp.Finish
}

// runStage is the plain bank transfer of a staged write: it only occupies
// the device.
func (p *bufferPipe) runStage(it *chainItem, ws time.Duration) time.Duration {
	wc, err := p.devs[it.dev].Service(ws, it.req)
	if err != nil {
		return ws
	}
	return wc.Finish
}

// tierDrain queues one bank cycle's real-time work at the current time:
// per device, one counted item for its recorders and one for its readers.
// Readers have nothing staged during disk cycle 0, recorders nothing to
// read back; a slot already consumed waits for the next disk cycle.
func (p *bufferPipe) tierDrain(int64) {
	diskCyc := int64(p.r.eng.Now() / p.tDisk)
	if diskCyc != p.cyc {
		p.cyc, p.off = diskCyc, 0
	}
	if p.off >= p.slotBlocks {
		return
	}
	piece := device.Request{Block: p.off, Blocks: min(p.pieceBlocks, p.slotBlocks-p.off)}
	p.off += piece.Blocks
	for _, d := range p.order {
		if w := int32(len(p.writers[d])); w > 0 {
			it := chainItem{fn: p.appendFn, req: piece, dev: d, parity: int32(diskCyc % 2), repeat: w}
			if diskCyc >= 1 {
				it.fn, it.repeat = p.recordFn, 2*w
			}
			p.bank[d].submit(it)
		}
		if n := int32(len(p.readers[d])); n > 0 && diskCyc >= 1 {
			p.bank[d].submit(chainItem{fn: p.drainFn, req: piece, dev: d, parity: int32((diskCyc + 1) % 2), repeat: n})
		}
	}
}

// transfer services one run of a drain item — it.req's (offset, length)
// within the slot of the given parity on ref's ring — and returns its
// finish time; false when the device refused the request.
func (p *bufferPipe) transfer(it *chainItem, start time.Duration, op device.Op, ref ringRef, parity int32) (time.Duration, bool) {
	c, err := p.devs[it.dev].Service(start, device.Request{
		Op:     op,
		Block:  ref.base + int64(parity)*p.slotBlocks + it.req.Block,
		Blocks: it.req.Blocks,
		Stream: int(ref.stream),
	})
	return c.Finish, err == nil
}

// runDrain moves the next reader's piece of its staged slot into the
// stream's DRAM buffer. it.stream is the cursor into the device's list.
func (p *bufferPipe) runDrain(it *chainItem, rs time.Duration) time.Duration {
	ref := p.readers[it.dev][it.stream]
	it.stream++
	finish, ok := p.transfer(it, rs, device.Read, ref, it.parity)
	if !ok {
		return rs
	}
	i := int(ref.stream)
	p.r.drainTo(i, finish)
	p.r.fill(i, units.Bytes(it.req.Blocks)*p.block)
	return finish
}

// runAppend lands the next recorder's production of this bank cycle in
// the slot being assembled and tracks the writer's standing DRAM.
func (p *bufferPipe) runAppend(it *chainItem, ws time.Duration) time.Duration {
	ref := p.writers[it.dev][it.stream]
	it.stream++
	return p.appendPiece(it, ws, ref)
}

// runRecord walks recorders two runs at a time: the append, then one
// piece of the previously assembled slot (the opposite parity) read back
// toward the in-flight disk write.
func (p *bufferPipe) runRecord(it *chainItem, ws time.Duration) time.Duration {
	ref := p.writers[it.dev][it.stream>>1]
	back := it.stream&1 == 1
	it.stream++
	if !back {
		return p.appendPiece(it, ws, ref)
	}
	finish, ok := p.transfer(it, ws, device.Read, ref, it.parity^1)
	if !ok {
		return ws
	}
	return finish
}

func (p *bufferPipe) appendPiece(it *chainItem, ws time.Duration, ref ringRef) time.Duration {
	finish, ok := p.transfer(it, ws, device.Write, ref, it.parity)
	if !ok {
		return ws
	}
	produced := units.BytesIn(p.r.rate, finish)
	if occ := produced - p.staged[ref.stream]; occ > p.writerPeak {
		p.writerPeak = occ
	}
	p.staged[ref.stream] += units.Bytes(it.req.Blocks) * p.block
	return finish
}
