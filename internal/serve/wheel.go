package serve

import (
	"sync"
	"time"

	"memstream/internal/units"
	"memstream/internal/wheel"
)

// The timer-wheel data plane (Config.Pacing == PacingWheel, the default).
//
// The goroutine-per-stream plane charges every stream a private runtime
// timer: at 100k streams and a 100ms quantum that is a million timer
// wakeups per second through the runtime's timer heaps, and wakeup
// pressure — not NIC bandwidth — becomes the population cap. The wheel
// plane inverts the ownership: streams are passive entries on one
// hierarchical timer wheel (internal/wheel) keyed in quantum ticks, a
// single ticker goroutine advances the wheel each quantum, and the due
// population is batched to a fixed pool of writer workers
// (Config.Writers, default GOMAXPROCS). Total runtime timers:
// O(workers), independent of population.
//
// Per tick, the loop advances the wheel and splits the due batch into
// contiguous spans, one per worker. Workers drain their span: settle
// the stream's byte debt against its pacer (NextBatch catches up across
// missed ticks, so a late tick conserves bytes instead of dropping
// them), write the due chunks from the shared payload pattern
// (writeChunks — the same write path the goroutine plane uses), then
// re-arm the stream's timer for its next non-empty quantum
// (QuantaToNonzero parks sub-quantum streams past the ticks where they
// would emit nothing).
//
// Clock economy: one time.Now per stream per wake (read in step), never
// per chunk — the same budget as the goroutine plane. A single clock
// read shared by the whole tick would be cheaper still, but it is
// unsound: a worker that blocks on a nearly-stalled reader makes the
// shared timestamp arbitrarily stale for the streams behind it in the
// span, so their half-expiry checks understate real elapsed time, the
// write-deadline re-arm is skipped, and healthy streams are spuriously
// evicted by deadlines that lapsed while they were queued.
//
// The connection's handler goroutine still exists — it parks on the
// stream's done channel so the supervisor's admission/semaphore/conn
// accounting is identical in both modes — but it owns no timer and
// never wakes until the stream ends.
//
// Known trade-off: a worker that hits a stalled reader blocks in Write
// until the armed deadline expires (at most WriteTimeout), delaying the
// streams behind it in that tick's batch; the lag histogram makes that
// visible, and the write deadline bounds it. Eviction semantics match
// the goroutine plane: deadline expiry and force-close count Evicted,
// client resets count Aborted.
type wheelPlane struct {
	s       *Server
	quantum time.Duration
	start   time.Time // tick 0 on the monotonic clock
	w       *wheel.Wheel
	workers int

	// maxSkip bounds the sub-quantum skip-ahead (~1s) so force-close and
	// StopStream are noticed promptly even by near-idle streams.
	maxSkip int64

	// armMu serializes arming against the drain sweep: once draining is
	// set no stream can re-park, so kickAll's eviction sweep is total.
	armMu    sync.Mutex
	draining bool

	batches  chan wheelBatch
	stopOnce sync.Once
	stopCh   chan struct{}
	loopDone chan struct{}
	workerWG sync.WaitGroup
}

// wheelStream is one stream parked on the wheel: the intrusive timer,
// the shared stream state, the stream's tick cursor (how many quanta
// its pacer has settled), and the done channel its handler goroutine
// parks on. Between fire and re-arm exactly one worker owns it.
type wheelStream struct {
	timer wheel.Timer
	st    *streamState
	tick  int64
	done  chan struct{}
}

// wheelBatch is one worker's span of a tick's due population.
type wheelBatch struct {
	timers []*wheel.Timer
	tick   int64
	wg     *sync.WaitGroup
}

func newWheelPlane(s *Server) *wheelPlane {
	p := &wheelPlane{
		s:       s,
		quantum: s.cfg.Quantum,
		start:   time.Now(),
		w:       wheel.New(),
		workers: s.cfg.Writers,
		maxSkip: max(1, int64(time.Second/s.cfg.Quantum)),
		// A deep buffer so the tick loop never blocks handing spans out.
		batches:  make(chan wheelBatch, 4*s.cfg.Writers),
		stopCh:   make(chan struct{}),
		loopDone: make(chan struct{}),
	}
	for i := 0; i < p.workers; i++ {
		p.workerWG.Add(1)
		go p.worker()
	}
	go p.loop()
	return p
}

// admit parks a new stream on the wheel: the pacer anchors to the
// wheel's tick grid (first fire at the next boundary) and the stream's
// done channel closes when a worker or the drain sweep finishes it.
func (p *wheelPlane) admit(st *streamState) *wheelStream {
	st.pacer = units.NewPacer(st.rate, p.quantum)
	st.out = p.s.metrics.BytesOut.Handle()
	ws := &wheelStream{st: st, done: make(chan struct{})}
	ws.timer.Data = ws
	ws.tick = p.w.Current()
	p.s.metrics.WheelStreams.Add(1)

	p.armMu.Lock()
	if p.draining {
		// Admitted during the force-close sweep: evict immediately, the
		// same outcome the sweep gives every parked stream.
		p.armMu.Unlock()
		p.s.metrics.Evicted.Add(1)
		p.finish(ws, writeEvicted)
	} else {
		p.w.Arm(&ws.timer, ws.tick+1)
		p.armMu.Unlock()
	}
	return ws
}

// run parks the calling handler goroutine while the wheel paces its
// stream; the handler's deferred releases run when the stream ends.
func (p *wheelPlane) run(st *streamState) {
	<-p.admit(st).done
}

// loop is the plane's one runtime timer: a ticker at the pacing
// quantum. Each tick it advances the wheel to the tick the wall clock
// says we are at (catching up if the previous batch overran), collects
// the due population into a reused scratch, and fans contiguous spans
// out to the workers, waiting for the batch so the scratch can be
// reused — the steady state allocates nothing.
func (p *wheelPlane) loop() {
	defer close(p.loopDone)
	ticker := time.NewTicker(p.quantum)
	defer ticker.Stop()
	due := make([]*wheel.Timer, 0, 1024)
	var batchWG sync.WaitGroup
	for {
		select {
		case <-p.stopCh:
			return
		case now := <-ticker.C:
			target := int64(now.Sub(p.start) / p.quantum)
			cur := p.w.Current()
			if target <= cur {
				continue
			}
			p.s.metrics.WheelTicks.Add(uint64(target - cur))
			due = p.w.Advance(target, due[:0])
			if len(due) == 0 {
				continue
			}
			p.s.metrics.WheelFires.Add(uint64(len(due)))
			span := (len(due) + p.workers - 1) / p.workers
			for off := 0; off < len(due); off += span {
				end := off + span
				if end > len(due) {
					end = len(due)
				}
				batchWG.Add(1)
				p.batches <- wheelBatch{timers: due[off:end], tick: target, wg: &batchWG}
			}
			batchWG.Wait()
		}
	}
}

func (p *wheelPlane) worker() {
	defer p.workerWG.Done()
	for b := range p.batches {
		for _, t := range b.timers {
			p.step(t.Data.(*wheelStream), b.tick)
		}
		b.wg.Done()
	}
}

// step services one due stream for one wheel tick: settle the byte debt
// since the stream's last settled tick, write it, sample lag against
// the quantum boundary, and re-arm (or finish). The clock is read once
// here, after any queueing behind earlier streams in the span, so the
// lag sample honestly includes worker head-of-line delay and the
// write-deadline half-expiry check never understates elapsed time.
// Allocation-free in steady state.
func (p *wheelPlane) step(ws *wheelStream, tick int64) {
	n := ws.st.pacer.NextBatch(tick - ws.tick)
	ws.tick = tick
	now := time.Now()
	switch p.s.writeChunks(ws.st, n, now) {
	case writeOK:
		if n > 0 {
			boundary := p.start.Add(time.Duration(tick) * p.quantum)
			if lag := now.Sub(boundary); lag > 0 {
				p.s.metrics.ObserveLag(lag.Seconds())
			} else {
				p.s.metrics.ObserveLag(0)
			}
		}
		p.rearm(ws)
	case writeDone:
		boundary := p.start.Add(time.Duration(tick) * p.quantum)
		p.s.metrics.ObserveLag(now.Sub(boundary).Seconds())
		p.s.metrics.Completed.Add(1)
		p.finish(ws, writeDone)
	case writeEvicted:
		p.s.metrics.Evicted.Add(1)
		p.finish(ws, writeEvicted)
	case writeAborted:
		p.s.metrics.Aborted.Add(1)
		p.finish(ws, writeAborted)
	}
}

// rearm parks the stream for its next non-empty quantum. During a drain
// sweep re-parking is refused and the stream is evicted instead (its
// connection is already closed or about to be).
func (p *wheelPlane) rearm(ws *wheelStream) {
	k := ws.st.pacer.QuantaToNonzero()
	if k > p.maxSkip {
		k = p.maxSkip
	}
	p.armMu.Lock()
	if p.draining {
		p.armMu.Unlock()
		p.s.metrics.Evicted.Add(1)
		p.finish(ws, writeEvicted)
		return
	}
	p.w.Arm(&ws.timer, ws.tick+k)
	p.armMu.Unlock()
}

// finish ends a wheel stream: the counters were already settled by the
// caller (finish itself only maintains the gauge) and the handler
// goroutine parked in run unwinds to release conn/slot/registry.
func (p *wheelPlane) finish(ws *wheelStream, _ writeOutcome) {
	p.s.metrics.WheelStreams.Add(-1)
	close(ws.done)
}

// kickAll evicts every parked stream — the drain force-close sweep.
// Setting draining under armMu first guarantees no worker re-parks a
// stream after the sweep, so every stream ends exactly once: parked
// streams end here, in-flight ones end in their worker (failed write on
// the closed conn, or the rearm refusal above).
func (p *wheelPlane) kickAll() {
	p.armMu.Lock()
	p.draining = true
	due := p.w.DrainAll(nil)
	p.armMu.Unlock()
	for _, t := range due {
		ws := t.Data.(*wheelStream)
		p.s.metrics.Evicted.Add(1)
		p.finish(ws, writeEvicted)
	}
}

// stop shuts the plane down: sweep every parked stream, stop the tick
// loop, and drain the workers. Idempotent.
func (p *wheelPlane) stop() {
	p.stopOnce.Do(func() {
		close(p.stopCh)
		<-p.loopDone
		p.kickAll()
		close(p.batches)
		p.workerWG.Wait()
	})
}
