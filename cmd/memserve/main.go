// Command memserve is the network-facing streaming server: it fronts the
// analytical planner's admission control (Theorem 1 with the FutureDisk
// profile and the configured DRAM budget) with the internal/serve
// connection supervisor. Clients connect over TCP and send one line:
//
//	PLAY <bitrate>      e.g. "PLAY 100KB" — request a stream at that rate
//
// Admitted clients receive synthetic stream data paced at the requested
// rate until -limit bytes have been sent or they disconnect. The server
// says "BUSY" exactly when the model says one more stream would violate
// the real-time requirement — and the supervisor guarantees that slot
// accounting survives hostile clients: silent connections are reaped by
// the read deadline, clients that stop reading are evicted by the write
// deadline, connections beyond -max-conns are shed before they cost a
// goroutine, and SIGINT/SIGTERM drain gracefully, releasing every slot.
//
// The admission spec plans against the disk's block-weighted effective
// zone rate (disk.Device.EffectiveRate), matching the simulator's
// diskSpec: planning against the outer-zone maximum would overcommit
// whole-surface layouts. The capacity yardstick /status reports therefore
// reads lower — and honestly — compared with the old OuterRate figure.
//
// What the server did is reported only by the JSON control plane, on a
// second listener at -http (127.0.0.1:9091, next to -addr's port, unless
// -http "" turns it off; see internal/serve ControlHandler and
// EXPERIMENTS.md). It listens after the stream port, so a live control
// plane means a live stream port:
//
//	GET  /metrics            counters, gauges, lag histogram, tiers, live streams
//	GET  /status             liveness/occupancy view
//	POST /streams/{id}/stop  force-close one stream
//	POST /drain              trigger the graceful drain
//
// Streams are paced by the timer-wheel plane unless -pacing goroutine
// asks for a goroutine and runtime timer per stream: at 4000 standing
// streams the wheel costs under half the CPU per stream-second.
//
// Usage:
//
//	memserve -addr :9090 -http :9091 -dram 1GB -bitrate 100KB \
//	         -read-timeout 5s -write-timeout 5s -drain 10s -max-conns 1024 \
//	         -pacing wheel -writers 4
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"memstream/internal/disk"
	"memstream/internal/model"
	"memstream/internal/schedule"
	"memstream/internal/serve"
	"memstream/internal/units"
)

// options collects every tunable main parses from flags; build turns it
// into a serve.Server. Zero durations/counts take the serve defaults.
type options struct {
	dram     string // DRAM budget for admission control
	rate     string // per-stream provisioning bit-rate
	limit    string // bytes streamed per client; "0" = unlimited
	readTO   time.Duration
	writeTO  time.Duration
	drain    time.Duration
	maxConns int
	quantum  time.Duration
	pacing   string // "wheel" or "goroutine"
	writers  int    // wheel writer workers; 0 = GOMAXPROCS
}

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "listen address")
	httpAddr := flag.String("http", "127.0.0.1:9091", "HTTP control-plane address (empty = disabled)")
	enablePprof := flag.Bool("pprof", false, "mount /debug/pprof on the control-plane listener, with mutex and block profiling enabled (requires -http)")
	var o options
	flag.StringVar(&o.dram, "dram", "1GB", "DRAM budget for admission control")
	flag.StringVar(&o.rate, "bitrate", "100KB", "per-stream bit-rate the server is provisioned for")
	flag.StringVar(&o.limit, "limit", "1MB", "bytes to stream per client (0 = unlimited)")
	flag.DurationVar(&o.readTO, "read-timeout", serve.DefaultReadTimeout, "request-line deadline (slowloris reaping)")
	flag.DurationVar(&o.writeTO, "write-timeout", serve.DefaultWriteTimeout, "per-chunk write deadline (stalled-reader eviction)")
	flag.DurationVar(&o.drain, "drain", serve.DefaultDrainTimeout, "graceful-drain budget on SIGINT/SIGTERM")
	flag.IntVar(&o.maxConns, "max-conns", serve.DefaultMaxConns, "concurrent connection cap (BUSY shed beyond it)")
	flag.DurationVar(&o.quantum, "quantum", serve.DefaultQuantum, "pacing quantum")
	flag.StringVar(&o.pacing, "pacing", "wheel", "pacing data plane: wheel (one timer wheel, pooled writers) or goroutine (timer per stream)")
	flag.IntVar(&o.writers, "writers", 0, "wheel-plane writer workers (0 = GOMAXPROCS); ignored with -pacing=goroutine")
	flag.Parse()

	srv, err := build(o)
	if err != nil {
		log.Fatalf("memserve: %v", err)
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("memserve: %v", err)
	}
	log.Printf("memserve: listening on %s (provisioned for %v streams at %s, %s DRAM, max %d conns, %s pacing)",
		ln.Addr(), srv.Capacity(), o.rate, o.dram, o.maxConns, o.pacing)

	// The control plane outlives the drain: /metrics and /status stay
	// answerable while (and after) the streaming listener winds down, so
	// operators and the smoke test can observe the drain itself. It is
	// closed only when main returns.
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("memserve: control plane: %v", err)
		}
		handler := srv.ControlHandler()
		if *enablePprof {
			handler = withPprof(handler)
		}
		hs := &http.Server{Handler: handler}
		defer hs.Close()
		go func() {
			if err := hs.Serve(hln); err != nil && err != http.ErrServerClosed {
				log.Printf("memserve: control plane: %v", err)
			}
		}()
		log.Printf("memserve: control plane on http://%s (pprof=%v)", hln.Addr(), *enablePprof)
	} else if *enablePprof {
		log.Fatalf("memserve: -pprof requires -http")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := srv.Serve(ctx, ln); err != nil {
		log.Fatalf("memserve: %v", err)
	}
	log.Printf("memserve: drained; admitted=%d %v", srv.Admitted(), srv.Metrics().Counters())
}

// withPprof mounts the runtime profiling endpoints next to the control
// plane and switches on the contention profilers the data plane cares
// about: the mutex profile (who fights over locks) and the block profile
// (who parks on channels — the wheel's batch hand-off shows up here).
//
//	go tool pprof http://host:port/debug/pprof/mutex
//	go tool pprof http://host:port/debug/pprof/block
func withPprof(control http.Handler) http.Handler {
	runtime.SetMutexProfileFraction(100) // sample 1/100 mutex contention events
	runtime.SetBlockProfileRate(100_000) // sample blocking ≥100µs (in expectation)
	mux := http.NewServeMux()
	mux.Handle("/", control)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// build wires the admission controller and supervisor. The disk spec uses
// the instantiated drive's block-weighted EffectiveRate — the same rate
// the server simulator plans against (server.diskSpec) — so the network
// front-end and the simulation agree on what one disk can sustain.
func build(o options) (*serve.Server, error) {
	dramCap, err := units.ParseBytes(o.dram)
	if err != nil {
		return nil, err
	}
	bitRate, err := units.ParseRate(o.rate)
	if err != nil {
		return nil, err
	}
	limitBytes, err := units.ParseBytes(o.limit)
	if err != nil {
		return nil, err
	}
	pacing, err := serve.ParsePacing(o.pacing)
	if err != nil {
		return nil, err
	}
	d, err := disk.New(disk.FutureDisk())
	if err != nil {
		return nil, err
	}
	return serve.New(serve.Config{
		Admission: &schedule.MixedAdmission{
			Disk:    model.DeviceSpec{Rate: d.EffectiveRate(), Latency: d.Params().AvgAccess()},
			DRAMCap: dramCap,
		},
		DefaultRate:  bitRate,
		Limit:        limitBytes,
		ReadTimeout:  o.readTO,
		WriteTimeout: o.writeTO,
		DrainTimeout: o.drain,
		MaxConns:     o.maxConns,
		Quantum:      o.quantum,
		Pacing:       pacing,
		Writers:      o.writers,
		Logf:         log.Printf,
	})
}
