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
// them) and write the due chunks from the shared payload pattern
// (writeChunks — the same write path the goroutine plane uses). Once
// the whole span is written, the worker re-arms every stream that
// continues for its next non-empty quantum (QuantaToNonzero parks
// sub-quantum streams past the ticks where they would emit nothing).
//
// Arm economy: one armMu round per span, never per stream. Re-arming
// each stream as it was written made every stream-wake take armMu and
// then the wheel's mutex while the other workers and the admitting
// handlers did the same, and the lock slow paths (spinning, parking)
// cost more CPU than the pacing itself. Deferring the re-arm to the end
// of the span is safe because the loop waits for every span before the
// next Advance: no tick can fire before its streams are parked again.
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
// Idle economy: an empty wheel stops its ticker. The loop parks once a
// tick leaves nothing armed, and the next admission wakes it and
// re-anchors the tick grid at that instant, so the first tick of a
// busy spell lands one quantum after its first stream arrived. An
// idle server takes no wake-ups, and where a burst's ticks fall — so
// how soon its hang-ups are noticed, at each stream's next paced write
// — no longer depends on when the previous burst happened to end.
//
// Ownership economy: a wheel stream owns no goroutine. Its handler
// writes the banner, parks the stream and returns, handing the
// connection to the plane; from then on whichever path ends the stream —
// a worker's step (completion, eviction, abort), armSpan refusing to
// re-park during a drain, the drain sweep (kickAll), or admit itself when
// the sweep has begun — calls finish, and finish calls the server's
// endStream, the one release function both planes share. It releases in
// a fixed order: registry entry, admission slot and ActiveStreams gauge
// first, then the connection (close, untrack, semaphore, connection
// count). The order matters because a client that sees its connection
// close may ask for Admitted() at once and must find the slot free.
// endStream takes the server's mutex, so no path may call finish with
// s.mu held: closeAll releases it before kickAll. A handler parked per
// stream would cost every standing stream a goroutine stack, and a drain
// would wake them all at once to run releases a worker runs in place.
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
	start   time.Time // tick 0 on the monotonic clock; only the loop moves it, while idle
	w       *wheel.Wheel
	workers int

	// maxSkip bounds the sub-quantum skip-ahead (~1s) so force-close and
	// StopStream are noticed promptly even by near-idle streams.
	maxSkip int64

	// armMu serializes arming against the drain sweep: once draining is
	// set no stream can re-park, so kickAll's eviction sweep is total.
	// idle (under armMu) is set by the loop when it parks with nothing
	// armed; the admission that clears it sends on wake, which holds at
	// most one signal because the loop takes it before it can park again.
	armMu    sync.Mutex
	draining bool
	idle     bool
	wake     chan struct{}

	batches  chan wheelBatch
	stopOnce sync.Once
	stopCh   chan struct{}
	loopDone chan struct{}
	workerWG sync.WaitGroup
}

// wheelStream is one stream parked on the wheel: the intrusive timer,
// the shared stream state, and the stream's tick cursor (how many quanta
// its pacer has settled). Between fire and the span's re-arm exactly one
// worker owns it.
type wheelStream struct {
	timer wheel.Timer
	st    *streamState
	tick  int64
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
		w:       wheel.New(),
		workers: s.cfg.Writers,
		maxSkip: max(1, int64(time.Second/s.cfg.Quantum)),
		idle:    true, // until the first admission
		wake:    make(chan struct{}, 1),
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
// wheel's tick grid (first fire at the next boundary, a whole quantum
// away when the stream wakes an idle loop). The stream now owns its
// connection; the caller must not touch either again.
func (p *wheelPlane) admit(st *streamState) {
	st.pacer = units.NewPacer(st.rate, p.quantum)
	st.out = p.s.metrics.BytesOut.Handle()
	ws := &wheelStream{st: st}
	ws.timer.Data = ws
	ws.tick = p.w.Current()
	p.s.metrics.WheelStreams.Add(1)

	p.armMu.Lock()
	if p.draining {
		// Admitted during the force-close sweep: evict immediately, the
		// same outcome the sweep gives every parked stream.
		p.armMu.Unlock()
		p.s.metrics.Evicted.Add(1)
		p.finish(ws)
		return
	}
	p.w.Arm(&ws.timer, ws.tick+1)
	if p.idle {
		p.idle = false
		p.wake <- struct{}{}
	}
	p.armMu.Unlock()
}

// loop is the plane's one runtime timer: a ticker at the pacing
// quantum. Each tick it advances the wheel to the tick the wall clock
// says we are at (catching up if the previous batch overran), collects
// the due population into a reused scratch, and fans contiguous spans
// out to the workers, waiting for the batch so the scratch can be
// reused — the steady state allocates nothing. It starts idle, parks
// whenever a tick leaves the wheel empty, and on the wake-up from an
// idle spell moves start so the current tick begins at that instant.
func (p *wheelPlane) loop() {
	defer close(p.loopDone)
	ticker := time.NewTicker(p.quantum)
	ticker.Stop()
	defer ticker.Stop()
	due := make([]*wheel.Timer, 0, 1024)
	var batchWG sync.WaitGroup
	for {
		select {
		case <-p.stopCh:
			return
		case <-p.wake:
			p.start = time.Now().Add(-time.Duration(p.w.Current()) * p.quantum)
			ticker.Reset(p.quantum)
		case now := <-ticker.C:
			target := int64(now.Sub(p.start) / p.quantum)
			cur := p.w.Current()
			if target <= cur {
				continue
			}
			p.s.metrics.WheelTicks.Add(uint64(target - cur))
			due = p.w.Advance(target, due[:0])
			if len(due) == 0 {
				p.parkIfEmpty(ticker)
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
			p.parkIfEmpty(ticker)
		}
	}
}

// parkIfEmpty stops the ticker when nothing is armed, the loop's only
// way into an idle spell. It runs after every span of the tick has
// re-armed, and under armMu, so an admission either armed first (no
// park) or sees idle and wakes the loop. A tick already buffered in the
// channel is dropped with it, so a wake-up is never followed by a stale
// one measured against the old grid.
func (p *wheelPlane) parkIfEmpty(ticker *time.Ticker) {
	p.armMu.Lock()
	if p.w.Len() == 0 {
		p.idle = true
		ticker.Stop()
		select {
		case <-ticker.C:
		default:
		}
	}
	p.armMu.Unlock()
}

func (p *wheelPlane) worker() {
	defer p.workerWG.Done()
	var live []*wheelStream // reused across spans: allocation-free once warm
	for b := range p.batches {
		live = p.span(b.timers, b.tick, live[:0])
		b.wg.Done()
	}
}

// span services one worker's share of a tick: step every due stream,
// collecting the ones that continue into live, then re-arm them all in
// one arm round. It returns live so the caller can reuse its storage.
func (p *wheelPlane) span(timers []*wheel.Timer, tick int64, live []*wheelStream) []*wheelStream {
	for _, t := range timers {
		if ws := t.Data.(*wheelStream); p.step(ws, tick) {
			live = append(live, ws)
		}
	}
	p.armSpan(live)
	return live
}

// step services one due stream for one wheel tick: settle the byte debt
// since the stream's last settled tick, write it, sample lag against
// the quantum boundary, and finish it if the write ended the stream. It
// reports whether the stream continues; the caller re-arms it. The clock
// is read once here, after any queueing behind earlier streams in the
// span, so the lag sample honestly includes worker head-of-line delay
// and the write-deadline half-expiry check never understates elapsed
// time. Allocation-free in steady state.
func (p *wheelPlane) step(ws *wheelStream, tick int64) bool {
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
		return true
	case writeDone:
		boundary := p.start.Add(time.Duration(tick) * p.quantum)
		p.s.metrics.ObserveLag(now.Sub(boundary).Seconds())
		p.s.metrics.Completed.Add(1)
		p.finish(ws)
	case writeEvicted:
		p.s.metrics.Evicted.Add(1)
		p.finish(ws)
	case writeAborted:
		p.s.metrics.Aborted.Add(1)
		p.finish(ws)
	}
	return false
}

// armSpan parks each continuing stream of a span for its next non-empty
// quantum, under one armMu round. During a drain sweep re-parking is
// refused and the streams are evicted instead (their connections are
// already closed or about to be).
func (p *wheelPlane) armSpan(live []*wheelStream) {
	if len(live) == 0 {
		return
	}
	p.armMu.Lock()
	if p.draining {
		p.armMu.Unlock()
		for _, ws := range live {
			p.s.metrics.Evicted.Add(1)
			p.finish(ws)
		}
		return
	}
	for _, ws := range live {
		p.w.Arm(&ws.timer, ws.tick+min(ws.st.pacer.QuantaToNonzero(), p.maxSkip))
	}
	p.armMu.Unlock()
}

// finish ends a wheel stream: the caller has already counted its
// outcome; finish maintains the gauge and releases the stream and its
// connection through endStream. Never called with s.mu held.
func (p *wheelPlane) finish(ws *wheelStream) {
	p.s.metrics.WheelStreams.Add(-1)
	p.s.endStream(ws.st)
}

// kickAll evicts every parked stream — the drain force-close sweep.
// Setting draining under armMu first guarantees no worker re-parks a
// stream after the sweep, so every stream ends exactly once: parked
// streams end here, in-flight ones end in their worker (failed write on
// the closed conn, or armSpan's refusal above).
func (p *wheelPlane) kickAll() {
	p.armMu.Lock()
	p.draining = true
	due := p.w.DrainAll(nil)
	p.armMu.Unlock()
	for _, t := range due {
		p.s.metrics.Evicted.Add(1)
		p.finish(t.Data.(*wheelStream))
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
