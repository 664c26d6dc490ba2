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
// hashed timer wheel (internal/wheel: a ring of 256 one-tick slots)
// keyed in quantum ticks, a single ticker goroutine advances the wheel
// each quantum, and the due population is batched to a fixed pool of
// writer workers (Config.Writers, default GOMAXPROCS). Total runtime
// timers:
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
// Arm economy: one lock, and one armMu round per span, never per
// stream. The wheel has no lock of its own; armMu is the only one, and
// every call into the wheel holds it — admit's clock read and Arm, the
// loop's Advance, armSpan, parkIfEmpty and kickAll — except the loop's
// own Current reads, which need none because the loop is the only
// goroutine that moves the clock. Re-arming each stream as it was
// written made every stream-wake take the arm lock while the other
// workers and the admitting handlers did the same, and the lock slow
// paths (spinning, parking) cost more CPU than the pacing itself.
// Deferring the re-arm to the end of the span is safe because the loop
// waits for every span before the next Advance: no tick can fire before
// its streams are parked again. No arm lands more than maxSkip ticks
// ahead, under one lap of the ring at any quantum over 1s/256, so every
// timer in a slot the wheel passes is then due.
//
// Clock economy: one monotonic clock read per stream per wake (in wake,
// which step calls), never per chunk — the same budget as the goroutine
// plane. The read is time.Since(start), a time.Duration: it reads only
// the monotonic clock (≈ 60 ns on a 2-core Xeon container), where
// time.Now reads the wall clock too (≈ 110 ns). The lag is that reading
// minus the boundary's offset tick × quantum, which equals
// now.Sub(boundary) on time.Now instants exactly, because both sides
// are monotonic. The write deadline's half-expiry check is a
// Duration compare on the same reading, and a wall-clock time
// (start.Add(...)) is built only when a deadline is armed. A single
// clock read shared by the whole tick would be cheaper still, but it is
// unsound: a worker that blocks on a nearly-stalled reader makes the
// shared reading arbitrarily stale for the streams behind it in the
// span, so their half-expiry checks understate real elapsed time, the
// write-deadline re-arm is skipped, and healthy streams are spuriously
// evicted by deadlines that lapsed while they were queued.
//
// Shard economy: each worker pins one BytesOut shard and one lag
// histogram shard when it starts (pins) and passes them down through
// span, step and writeChunks, so a stream-wake writes no cache line
// another worker writes. A handle per stream would spread every
// worker's writes over every shard.
//
// Idle economy: an empty wheel stops its ticker. The loop parks once a
// tick leaves nothing armed, and the next admission wakes it and
// re-anchors the tick grid at that instant, so the first tick of a
// busy spell lands one quantum after its first stream arrived. An
// idle server takes no wake-ups, and where a burst's ticks fall — so
// how soon its hang-ups are noticed, at each stream's next paced write
// — no longer depends on when the previous burst happened to end.
//
// Ownership economy: a wheel stream owns no goroutine, and no heap
// object but its connection's record (streamState), which holds its
// pacer and wheel entry. Its handler writes the banner, parks the stream
// and returns, handing the connection to the plane; from then on
// whichever path ends the stream — a worker's span (completion,
// eviction, abort, or armSpan refusing to re-park during a drain), the
// drain sweep (kickAll), or admit itself when the sweep has begun —
// releases it through the server's endStreams, the one release function
// both planes share. A span
// collects the streams it ended and releases them together after its
// arm round, and the sweep releases the whole wheel at once: one s.mu
// round for the lot, registry entries, admission slots and gauges first,
// then the connections. The order matters because a client that sees
// its connection close may ask for Admitted() at once and must find the
// slot free. endStreams takes the server's mutex, so no path may call it
// with s.mu held: closeAll releases it before kickAll. A handler parked
// per stream would cost every standing stream a goroutine stack, and a
// drain would wake them all at once to run releases a worker runs in
// place.
//
// Known trade-off: a worker that hits a stalled reader blocks in Write
// until the armed deadline expires (at most WriteTimeout), delaying the
// streams behind it in that tick's batch, and the release of the streams
// the span ended before it; the lag histogram makes that visible, and
// the write deadline bounds it. Eviction semantics match the goroutine
// plane: deadline expiry and force-close count Evicted, client resets
// count Aborted.
type wheelPlane struct {
	s       *Server
	quantum time.Duration
	start   time.Time // tick 0 on the monotonic clock; only the loop moves it, while idle
	w       *wheel.Wheel
	workers int

	// maxSkip bounds the sub-quantum skip-ahead (~1s) so force-close and
	// StopStream are noticed promptly even by near-idle streams.
	maxSkip int64

	// armMu guards the wheel and serializes arming against the drain
	// sweep: once draining is set no stream can re-park, so kickAll's
	// eviction sweep is total.
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

// wheelBatch is one worker's span of a tick's due population.
type wheelBatch struct {
	timers []*wheel.Timer
	tick   int64
	wg     *sync.WaitGroup
}

// newWheelPlane starts the tick loop and the workers with their scratch
// sized once for the whole population: no more than MaxConns streams are
// ever due, nor more than a worker's share of them in one span.
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
	spanCap := (s.cfg.MaxConns + p.workers - 1) / p.workers
	for i := 0; i < p.workers; i++ {
		p.workerWG.Add(1)
		go p.worker(make([]*streamState, 0, spanCap), make([]*streamState, 0, spanCap))
	}
	go p.loop(make([]*wheel.Timer, 0, s.cfg.MaxConns))
	return p
}

// admit parks a new stream on the wheel: the pacer anchors to the
// wheel's tick grid (first fire at the next boundary, a whole quantum
// away when the stream wakes an idle loop). The stream now owns its
// connection; the caller must not touch either again. The pacer and the
// wheel entry live in st, so parking allocates nothing. The clock read
// and the Arm share one armMu round, so st.tick is written before any
// Advance can fire the timer.
func (p *wheelPlane) admit(st *streamState) {
	st.pacer = *units.NewPacer(st.rate, p.quantum)
	st.timer.Data = st
	p.s.metrics.WheelStreams.Add(1)

	p.armMu.Lock()
	if p.draining {
		// Admitted during the force-close sweep: evict immediately, the
		// same outcome the sweep gives every parked stream.
		p.armMu.Unlock()
		p.s.metrics.Evicted.Add(1)
		p.s.metrics.WheelStreams.Add(-1)
		p.s.endStreams(st)
		return
	}
	st.tick = p.w.Current()
	p.w.Arm(&st.timer, st.tick+1)
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
// out to the workers, waiting for the batch so the scratch (due, sized
// by newWheelPlane) can be reused — the steady state allocates nothing.
// It reads the wheel clock without armMu, as its only writer. It starts
// idle, parks whenever a tick leaves the wheel empty, and on the wake-up
// from an idle spell moves start so the current tick begins at that
// instant.
func (p *wheelPlane) loop(due []*wheel.Timer) {
	defer close(p.loopDone)
	ticker := time.NewTicker(p.quantum)
	ticker.Stop()
	defer ticker.Stop()
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
			p.armMu.Lock()
			due = p.w.Advance(target, due[:0])
			p.armMu.Unlock()
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

// worker services spans, reusing live and ended (sized by
// newWheelPlane) across them.
func (p *wheelPlane) worker(live, ended []*streamState) {
	defer p.workerWG.Done()
	pin := p.s.metrics.pin()
	for b := range p.batches {
		live, ended = p.span(b.timers, b.tick, live[:0], ended[:0], pin)
		b.wg.Done()
	}
}

// span services one worker's share of a tick: step every due stream,
// collecting the ones that continue into live and the ones that ended
// into ended, re-arm the live ones in one arm round, then release the
// ended ones in one endStreams round. It returns both slices so the
// caller can reuse their storage. pin is the worker's own metric shards.
func (p *wheelPlane) span(timers []*wheel.Timer, tick int64, live, ended []*streamState, pin pins) ([]*streamState, []*streamState) {
	for _, t := range timers {
		if st := t.Data.(*streamState); p.step(st, tick, pin) {
			live = append(live, st)
		} else {
			ended = append(ended, st)
		}
	}
	ended = p.armSpan(live, ended)
	p.s.metrics.WheelStreams.Add(-int64(len(ended)))
	p.s.endStreams(ended...)
	clear(ended) // the scratch outlives the span; keep no dead stream reachable
	return live, ended
}

// step services one due stream for one wheel tick: settle the byte debt
// since the stream's last settled tick, then wake it against the tick's
// boundary (write, lag sample, outcome). It reports whether the stream
// continues; the caller re-arms it, or releases it if not. wake reads
// the clock once, after any queueing behind earlier streams in the span,
// so the lag sample honestly includes worker head-of-line delay and the
// write-deadline half-expiry check never understates elapsed time.
// Allocation-free in steady state.
func (p *wheelPlane) step(st *streamState, tick int64, pin pins) bool {
	n := st.pacer.NextBatch(tick - st.tick)
	st.tick = tick
	return p.s.wake(st, n, p.start, time.Duration(tick)*p.quantum, pin) == writeOK
}

// armSpan parks each continuing stream of a span for its next non-empty
// quantum, under one armMu round. During a drain sweep re-parking is
// refused and the streams are evicted instead (their connections are
// already closed or about to be): they are appended to ended, which it
// returns, for the span to release.
func (p *wheelPlane) armSpan(live, ended []*streamState) []*streamState {
	if len(live) == 0 {
		return ended
	}
	p.armMu.Lock()
	if p.draining {
		p.armMu.Unlock()
		p.s.metrics.Evicted.Add(uint64(len(live)))
		return append(ended, live...)
	}
	for _, st := range live {
		p.w.Arm(&st.timer, st.tick+min(st.pacer.QuantaToNonzero(), p.maxSkip))
	}
	p.armMu.Unlock()
	return ended
}

// kickAll evicts every parked stream — the drain force-close sweep.
// Setting draining under armMu first guarantees no worker re-parks a
// stream after the sweep, so every stream ends exactly once: parked
// streams end here, in one release round, in-flight ones in their
// worker's span (failed write on the closed conn, or armSpan's refusal
// above).
func (p *wheelPlane) kickAll() {
	p.armMu.Lock()
	p.draining = true
	due := p.w.DrainAll(nil)
	p.armMu.Unlock()
	sts := make([]*streamState, len(due))
	for i, t := range due {
		sts[i] = t.Data.(*streamState)
	}
	p.s.metrics.Evicted.Add(uint64(len(sts)))
	p.s.metrics.WheelStreams.Add(-int64(len(sts)))
	p.s.endStreams(sts...)
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
