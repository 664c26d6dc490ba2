#!/bin/sh
# smoke.sh — memserve ↔ memsload end-to-end smoke test.
#
# Starts the server, applies a short load that includes deliberately
# stalled readers, and asserts the hardening invariants:
#   1. the load itself completes with zero client errors,
#   2. every stalled reader is evicted (write deadline) and every slot
#      returns to the admission controller (admitted=0 via STAT),
#   3. the HTTP control plane stays live under load: /status and
#      /metrics answer valid JSON while streams are being paced,
#   4. the server's counter deltas over the load match the client-side
#      tallies exactly (memsload -verify-http): every admitted stream
#      lands in exactly one of completed/evicted/aborted, and nothing
#      is cross-counted as a slowloris reap,
#   5. SIGTERM drains gracefully: the server exits 0 within the drain
#      budget with no force-kill,
#   6. the wheel data plane (-pacing=wheel, also the default) survives a
#      high-population sweep: a 1000-stream cohort is admitted, paced, and
#      completed with per-step counter conservation (memsload -sweep),
#      then the wheel server drains cleanly too.
#
# Steps 1-5 name -pacing goroutine, which they used to get by default, so
# both planes stay smoked.
set -eu

ADDR="${SMOKE_ADDR:-127.0.0.1:9391}"
HTTP_ADDR="${SMOKE_HTTP_ADDR:-127.0.0.1:9392}"
WHEEL_ADDR="${SMOKE_WHEEL_ADDR:-127.0.0.1:9393}"
WHEEL_HTTP_ADDR="${SMOKE_WHEEL_HTTP_ADDR:-127.0.0.1:9394}"
BIN="$(mktemp -d)"
trap 'kill "$SERVER_PID" "$WHEEL_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT
SERVER_PID=""
WHEEL_PID=""

echo "smoke: building"
go build -o "$BIN/memserve" ./cmd/memserve
go build -o "$BIN/memsload" ./cmd/memsload

# -limit 0 (unlimited) so streams end only by eviction or client close:
# the stalled readers must fill the kernel socket buffers and trip the
# write deadline — the real eviction path, not completion into buffers.
echo "smoke: starting memserve on $ADDR"
"$BIN/memserve" -addr "$ADDR" -http "$HTTP_ADDR" -dram 1GB -bitrate 100KB -limit 0 \
    -read-timeout 2s -write-timeout 500ms -drain 5s -quantum 20ms -pacing goroutine &
SERVER_PID=$!

# Wait for both listeners.
i=0
until "$BIN/memsload" -addr "$ADDR" -stat >/dev/null 2>&1 &&
      "$BIN/memsload" -http-metrics "http://$HTTP_ADDR" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "smoke: server never came up" >&2
        exit 1
    fi
    sleep 0.1
done

echo "smoke: running load (8 clients: 5 normal, 1 slow, 2 stalled) with counter verification"
"$BIN/memsload" -addr "$ADDR" -clients 8 -slow 1 -stall 2 -rate 4MB -duration 3s \
    -verify-http "http://$HTTP_ADDR" &
LOAD_PID=$!

# While streams are live: the control plane must answer valid JSON.
# The probe itself exits non-zero on an unreachable endpoint or a
# decode failure, so each iteration is a liveness + validity assertion.
echo "smoke: probing HTTP control plane under load"
sleep 1
PROBE="$("$BIN/memsload" -http-metrics "http://$HTTP_ADDR")"
echo "$PROBE" | sed 's/^/smoke:   /'
case "$PROBE" in
*"status.state=serving"*) ;;
*)
    echo "smoke: /status did not report serving under load" >&2
    exit 1
    ;;
esac
case "$PROBE" in
*"counters.admitted_total=0"*)
    echo "smoke: /metrics shows no admissions while the load is running" >&2
    exit 1
    ;;
esac

LOAD_STATUS=0
wait "$LOAD_PID" || LOAD_STATUS=$?
if [ "$LOAD_STATUS" -ne 0 ]; then
    echo "smoke: load/verification failed (exit $LOAD_STATUS)" >&2
    exit 1
fi

echo "smoke: asserting zero leaked admission slots"
"$BIN/memsload" -addr "$ADDR" -drained 5s
METRICS_LINE="$("$BIN/memsload" -addr "$ADDR" -metrics)"
echo "$METRICS_LINE"
case "$METRICS_LINE" in
*" evicted=0 "*)
    echo "smoke: stalled readers were never evicted by the write deadline" >&2
    exit 1
    ;;
esac

# Counter-semantics spot checks over the whole run: nothing may have
# been miscounted as a slowloris reap (no client ever sat silent on the
# request line), and the duration-bounded clients that closed on their
# own must all show up as aborts, not evictions.
FINAL_PROBE="$("$BIN/memsload" -http-metrics "http://$HTTP_ADDR")"
case "$FINAL_PROBE" in
*"counters.reaped=0"*) ;;
*)
    echo "smoke: reaped != 0 — a disconnect was miscounted as a slowloris reap" >&2
    echo "$FINAL_PROBE" >&2
    exit 1
    ;;
esac
case "$FINAL_PROBE" in
*"counters.aborted=0"*)
    echo "smoke: aborted = 0 — client-initiated disconnects were not counted as aborts" >&2
    echo "$FINAL_PROBE" >&2
    exit 1
    ;;
esac

echo "smoke: SIGTERM drain"
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
if [ "$STATUS" -ne 0 ]; then
    echo "smoke: memserve exited $STATUS after SIGTERM, want 0" >&2
    exit 1
fi

# --- wheel data plane: high-population sweep -------------------------
# A finite -limit so every stream completes on its own; 64GB DRAM so the
# admission plan fits the full cohort. The sweep brackets each step with
# /metrics fetches, so the asserted line is this step's deltas alone.
echo "smoke: starting wheel-mode memserve on $WHEEL_ADDR"
"$BIN/memserve" -addr "$WHEEL_ADDR" -http "$WHEEL_HTTP_ADDR" -dram 64GB \
    -bitrate 100KB -limit 20KB -read-timeout 5s -write-timeout 2s \
    -drain 5s -quantum 20ms -max-conns 4096 -pacing wheel &
WHEEL_PID=$!

i=0
until "$BIN/memsload" -addr "$WHEEL_ADDR" -stat >/dev/null 2>&1 &&
      "$BIN/memsload" -http-metrics "http://$WHEEL_HTTP_ADDR" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "smoke: wheel server never came up" >&2
        exit 1
    fi
    sleep 0.1
done

echo "smoke: wheel population sweep (100 then 1000 streams)"
SWEEP_OUT="$("$BIN/memsload" -addr "$WHEEL_ADDR" -http-metrics "http://$WHEEL_HTTP_ADDR" \
    -sweep 100,1000 -rate 100KB -duration 5s -sweep-json "$BIN/sweep.json")"
echo "$SWEEP_OUT" | sed 's/^/smoke:   /'
case "$SWEEP_OUT" in
*"sweep streams=1000: admitted=1000 busy=0 errors=0 completed=1000 evicted=0 aborted=0"*) ;;
*)
    echo "smoke: wheel sweep did not complete the 1000-stream cohort cleanly" >&2
    exit 1
    ;;
esac

# The wheel actually drove the cohort: nonzero wheel_fires on the wire.
WHEEL_PROBE="$("$BIN/memsload" -http-metrics "http://$WHEEL_HTTP_ADDR")"
case "$WHEEL_PROBE" in
*"counters.wheel_fires=0"*)
    echo "smoke: wheel plane never fired a stream" >&2
    exit 1
    ;;
esac

echo "smoke: wheel SIGTERM drain"
kill -TERM "$WHEEL_PID"
STATUS=0
wait "$WHEEL_PID" || STATUS=$?
WHEEL_PID=""
if [ "$STATUS" -ne 0 ]; then
    echo "smoke: wheel memserve exited $STATUS after SIGTERM, want 0" >&2
    exit 1
fi
echo "smoke: OK"
