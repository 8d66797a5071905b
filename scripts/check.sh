#!/usr/bin/env sh
# Tier-1 verification gate: formatting, static analysis, full build, the
# test suite under the race detector (race mode exercises the hardened
# parallel experiment drivers) and without it, and an end-to-end smoke run
# of the serving mode (reactiveload driving an ephemeral reactived over
# localhost with decision verification on). Run from anywhere inside the
# repository.
set -eu

cd "$(dirname "$0")/.."

# gofmt -l prints every file whose formatting differs and exits 0 either
# way, so any output fails the gate.
echo "==> gofmt -l ."
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt would reformat:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# The plain build runs what race builds skip: the zero-allocation pins
# (TestApplyFrameSteadyStateAllocs) only hold without the race detector.
echo "==> go test ./..."
go test ./...

# The observability layer, the server and the replication shipper/follower
# share lock-striped and atomic hot paths; run them twice under the race
# detector so scheduling-order races get a second chance to surface.
echo "==> go test -race -count=2 ./internal/obs ./internal/server ./internal/replica"
go test -race -count=2 ./internal/obs ./internal/server ./internal/replica

echo "==> serving-mode smoke (reactiveload vs ephemeral reactived)"
SMOKE_DIR=$(mktemp -d)
DAEMON_PID=""
REPLICA_PID=""
# On failure, preserve the daemon logs, the WAL directories, and the failover
# report for post-mortem when the caller points CHECK_ARTIFACT_DIR somewhere
# (CI uploads them).
cleanup() {
    status=$?
    if [ "$status" -ne 0 ] && [ -n "${CHECK_ARTIFACT_DIR:-}" ]; then
        mkdir -p "$CHECK_ARTIFACT_DIR"
        cp "$SMOKE_DIR"/*.log "$CHECK_ARTIFACT_DIR"/ 2>/dev/null || true
        cp "$SMOKE_DIR"/*.json "$CHECK_ARTIFACT_DIR"/ 2>/dev/null || true
        cp "$SMOKE_DIR"/*.jsonl "$CHECK_ARTIFACT_DIR"/ 2>/dev/null || true
        cp "$SMOKE_DIR"/*.txt "$CHECK_ARTIFACT_DIR"/ 2>/dev/null || true
        for d in "$SMOKE_DIR"/wal*; do
            [ -d "$d" ] && cp -r "$d" "$CHECK_ARTIFACT_DIR/$(basename "$d")" 2>/dev/null || true
        done
    fi
    for pid in "$DAEMON_PID" "$REPLICA_PID"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$SMOKE_DIR"
}
trap cleanup EXIT INT TERM

go build -o "$SMOKE_DIR/reactived" ./cmd/reactived
go build -o "$SMOKE_DIR/reactiveload" ./cmd/reactiveload
go build -o "$SMOKE_DIR/reactivespec" ./cmd/reactivespec

# Random port; the daemon publishes the bound address through -addr-file.
# This smoke runs with span tracing at 1-in-1 so every batch leaves a full
# server-side span tree; reactivespec spans must parse it afterwards.
"$SMOKE_DIR/reactived" \
    -addr 127.0.0.1:0 \
    -addr-file "$SMOKE_DIR/addr" \
    -stream-addr 127.0.0.1:0 \
    -stream-addr-file "$SMOKE_DIR/stream-addr" \
    -stream-unix "$SMOKE_DIR/reactived.sock" \
    -stream-unix-file "$SMOKE_DIR/stream-unix.txt" \
    -snapshot-dir "$SMOKE_DIR/snaps" \
    -snapshot-interval 0 \
    -trace-spans "$SMOKE_DIR/spans-serve.jsonl" \
    -trace-sample 1 >"$SMOKE_DIR/reactived.log" 2>&1 &
DAEMON_PID=$!

i=0
while [ ! -s "$SMOKE_DIR/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "reactived never published its address" >&2
        cat "$SMOKE_DIR/reactived.log" >&2
        exit 1
    fi
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "reactived exited early" >&2
        cat "$SMOKE_DIR/reactived.log" >&2
        exit 1
    }
    sleep 0.1
done
ADDR=$(cat "$SMOKE_DIR/addr")

# check_cursors REPORT BENCH WORKERS: after a stream smoke, the daemon's
# /v1/cursor event counts for the run's worker programs (BENCH@0 ..
# BENCH@WORKERS-1) must add up to the events reactiveload reported in
# REPORT. Failover clients resume from these counts, so every ingest
# transport has to advance them.
json_events() {
    sed -n 's/.*"events": *\([0-9][0-9]*\).*/\1/p' | head -n 1
}
check_cursors() {
    sent=$(json_events <"$1")
    got=0
    w=0
    while [ "$w" -lt "$3" ]; do
        n=$(curl -fsS "http://$ADDR/v1/cursor?program=$2%40$w" | json_events)
        got=$((got + ${n:-0}))
        w=$((w + 1))
    done
    if [ -z "$sent" ] || [ "$got" -ne "$sent" ]; then
        echo "cursor check ($2): daemon cursors count $got events, reactiveload reported ${sent:-none}" >&2
        exit 1
    fi
    echo "cursor check ($2): $got events on $3 worker cursors"
}

"$SMOKE_DIR/reactiveload" \
    -addr "http://$ADDR" \
    -bench gzip \
    -scale 0.02 \
    -concurrency 2 \
    -batch 512 \
    -frames 2 \
    -trace-spans "$SMOKE_DIR/spans-load.jsonl" \
    -verify

# Mixed-kind smoke: four workers round-robin all four speculation kinds
# against the same daemon — branch rides the v1 wire, the rest go through
# /v2 with kind-tagged requests — and -verify holds every decision to a
# per-kind in-process mirror. -policy reactive also exercises the
# policy-pin precheck (identical hash to the daemon's default).
echo "==> mixed-kind smoke (branch,value,memdep,tlspec on one daemon)"
"$SMOKE_DIR/reactiveload" \
    -addr "http://$ADDR" \
    -bench eon \
    -scale 0.02 \
    -concurrency 4 \
    -batch 512 \
    -kind branch,value,memdep,tlspec \
    -policy reactive \
    -verify

# A verified workload over a streaming session (POST /v1/stream upgrade):
# decisions must match the in-process mirror exactly, pinning
# stream-transport equivalence end to end. Each smoke run uses a distinct
# benchmark so its programs hit fresh controllers — the daemon keeps the
# state the previous run trained, and -verify's mirror starts cold.
echo "==> streaming-mode smoke (reactiveload -stream -verify)"
"$SMOKE_DIR/reactiveload" \
    -addr "http://$ADDR" \
    -bench vpr \
    -scale 0.02 \
    -concurrency 2 \
    -batch 512 \
    -stream \
    -window 8 \
    -verify >"$SMOKE_DIR/load-stream-upgrade.json"
cat "$SMOKE_DIR/load-stream-upgrade.json"
check_cursors "$SMOKE_DIR/load-stream-upgrade.json" vpr 2

# And once more over the raw -stream-addr TCP listener (no HTTP upgrade).
"$SMOKE_DIR/reactiveload" \
    -addr "http://$ADDR" \
    -stream-addr "$(cat "$SMOKE_DIR/stream-addr")" \
    -bench mcf \
    -scale 0.02 \
    -concurrency 2 \
    -batch 512 \
    -verify >"$SMOKE_DIR/load-stream-tcp.json"
cat "$SMOKE_DIR/load-stream-tcp.json"
check_cursors "$SMOKE_DIR/load-stream-tcp.json" mcf 2

# And over the unix-domain stream listener: the daemon published its dial
# target ("unix://<path>") through -stream-unix-file, and reactiveload's
# -stream-addr accepts it directly. The .txt target file doubles as the
# post-mortem artifact naming the socket path on failure.
echo "==> unix-socket smoke (reactiveload -verify over unix://)"
"$SMOKE_DIR/reactiveload" \
    -addr "http://$ADDR" \
    -stream-addr "$(cat "$SMOKE_DIR/stream-unix.txt")" \
    -bench bzip2 \
    -scale 0.02 \
    -concurrency 2 \
    -batch 512 \
    -verify >"$SMOKE_DIR/load-stream-unix.json"
cat "$SMOKE_DIR/load-stream-unix.json"
check_cursors "$SMOKE_DIR/load-stream-unix.json" bzip2 2

# The stream speaks one protocol version. Older hellos — and the proto-4
# wire byte for byte — are pinned by internal/server's
# TestStreamProto2InteropByteExact, TestStreamHandshakeProtoMismatch,
# TestStreamHandshakeNegotiatesDown and TestStreamProto4WireByteExact, which
# drive ServeStream over a real TCP listener in the go test steps above.

# Graceful shutdown must drain and leave a final snapshot behind.
kill "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""
if [ ! -f "$SMOKE_DIR/snaps/current.snap" ]; then
    echo "reactived shutdown left no snapshot" >&2
    exit 1
fi
# Graceful shutdown must also have unlinked the unix stream socket.
if [ -e "$SMOKE_DIR/reactived.sock" ]; then
    echo "reactived shutdown left its unix stream socket behind" >&2
    exit 1
fi

# The traced smoke must have left parseable span files on both sides, and
# the analyzer must see traced batches in them (client spans join the same
# traces via the propagated trace IDs).
echo "==> span-trace smoke (reactivespec spans over the serving-smoke files)"
"$SMOKE_DIR/reactivespec" spans \
    "$SMOKE_DIR/spans-serve.jsonl" \
    "$SMOKE_DIR/spans-load.jsonl" >"$SMOKE_DIR/spans-serve-report.txt"
if ! grep -q "traced batches" "$SMOKE_DIR/spans-serve-report.txt" ||
    grep -q "traced batches: 0" "$SMOKE_DIR/spans-serve-report.txt"; then
    echo "span report has no traced batches" >&2
    cat "$SMOKE_DIR/spans-serve-report.txt" >&2
    exit 1
fi

# Crash-recovery smoke: run the daemon with the write-ahead log on
# (fsync=always, so nothing acknowledged may be lost), SIGKILL it in the
# middle of an ingest run, restart it over the same directories, and require
# (a) the restart to report a WAL replay and (b) a verified workload against
# the recovered daemon to pass. Each load uses a bench the daemon has not
# seen, because -verify's in-process mirror starts cold.
echo "==> crash-recovery smoke (SIGKILL mid-ingest, WAL replay on restart)"
"$SMOKE_DIR/reactived" \
    -addr 127.0.0.1:0 \
    -addr-file "$SMOKE_DIR/addr2" \
    -snapshot-dir "$SMOKE_DIR/snaps2" \
    -snapshot-interval 0 \
    -wal-dir "$SMOKE_DIR/wal" \
    -wal-fsync always >"$SMOKE_DIR/reactived-crash.log" 2>&1 &
DAEMON_PID=$!
i=0
while [ ! -s "$SMOKE_DIR/addr2" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "reactived (wal) never published its address" >&2
        cat "$SMOKE_DIR/reactived-crash.log" >&2
        exit 1
    fi
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "reactived (wal) exited early" >&2
        cat "$SMOKE_DIR/reactived-crash.log" >&2
        exit 1
    }
    sleep 0.1
done
ADDR=$(cat "$SMOKE_DIR/addr2")

# A verified load with the WAL on the write path.
"$SMOKE_DIR/reactiveload" \
    -addr "http://$ADDR" \
    -bench gcc \
    -scale 0.02 \
    -concurrency 2 \
    -batch 512 \
    -verify

# SIGKILL the daemon while a second load is mid-flight; the client is
# expected to fail when the connection dies.
"$SMOKE_DIR/reactiveload" \
    -addr "http://$ADDR" \
    -bench parser \
    -scale 0.2 \
    -concurrency 2 \
    -batch 256 >/dev/null 2>&1 &
LOAD_PID=$!
sleep 0.5
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
wait "$LOAD_PID" 2>/dev/null || true

# Restart over the same WAL + snapshot directories: recovery must replay.
"$SMOKE_DIR/reactived" \
    -addr 127.0.0.1:0 \
    -addr-file "$SMOKE_DIR/addr3" \
    -snapshot-dir "$SMOKE_DIR/snaps2" \
    -snapshot-interval 0 \
    -wal-dir "$SMOKE_DIR/wal" \
    -wal-fsync always >"$SMOKE_DIR/reactived-recovered.log" 2>&1 &
DAEMON_PID=$!
i=0
while [ ! -s "$SMOKE_DIR/addr3" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "reactived never recovered after SIGKILL" >&2
        cat "$SMOKE_DIR/reactived-recovered.log" >&2
        exit 1
    fi
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "reactived exited during recovery" >&2
        cat "$SMOKE_DIR/reactived-recovered.log" >&2
        exit 1
    }
    sleep 0.1
done
ADDR=$(cat "$SMOKE_DIR/addr3")

# The pre-crash loads were acknowledged under fsync=always, so recovery
# must have replayed a nonzero tail.
if ! grep "wal: replayed" "$SMOKE_DIR/reactived-recovered.log" | grep -qv "replayed 0 records"; then
    echo "recovered reactived did not report a nonzero WAL replay" >&2
    cat "$SMOKE_DIR/reactived-recovered.log" >&2
    exit 1
fi

# A verified load against the recovered daemon, on a bench the crashed run
# never trained.
"$SMOKE_DIR/reactiveload" \
    -addr "http://$ADDR" \
    -bench twolf \
    -scale 0.02 \
    -concurrency 2 \
    -batch 512 \
    -verify

kill "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""

# Failover smoke: a WAL-shipping primary with a live read-only replica
# attached; reactiveload -failover drives the primary, SIGKILLs it mid-run
# (no drain), promotes the replica over POST /v1/promote, resumes every
# worker from the replica's /v1/cursor, and requires each decision — before
# the crash, re-sent overlap, and the surviving tail — to match its
# in-process mirror bitwise. reactiveload exits nonzero if the kill never
# landed mid-run, so this smoke cannot silently degrade into a plain load.
echo "==> failover smoke (SIGKILL primary mid-run, promote replica, verified resume)"
"$SMOKE_DIR/reactived" \
    -addr 127.0.0.1:0 \
    -addr-file "$SMOKE_DIR/addr-primary" \
    -snapshot-dir "$SMOKE_DIR/snaps-primary" \
    -snapshot-interval 0 \
    -wal-dir "$SMOKE_DIR/wal-primary" \
    -wal-fsync always \
    -replication-addr 127.0.0.1:0 \
    -replication-addr-file "$SMOKE_DIR/repl-addr" \
    -debug-addr 127.0.0.1:0 \
    -debug-addr-file "$SMOKE_DIR/debug-addr" \
    -trace-spans "$SMOKE_DIR/spans-primary.jsonl" \
    -trace-sample 1 >"$SMOKE_DIR/reactived-primary.log" 2>&1 &
DAEMON_PID=$!
i=0
while [ ! -s "$SMOKE_DIR/addr-primary" ] || [ ! -s "$SMOKE_DIR/repl-addr" ] || [ ! -s "$SMOKE_DIR/debug-addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "primary reactived never published its addresses" >&2
        cat "$SMOKE_DIR/reactived-primary.log" >&2
        exit 1
    fi
    kill -0 "$DAEMON_PID" 2>/dev/null || {
        echo "primary reactived exited early" >&2
        cat "$SMOKE_DIR/reactived-primary.log" >&2
        exit 1
    }
    sleep 0.1
done

"$SMOKE_DIR/reactived" \
    -addr 127.0.0.1:0 \
    -addr-file "$SMOKE_DIR/addr-replica" \
    -snapshot-dir "$SMOKE_DIR/snaps-replica" \
    -snapshot-interval 0 \
    -wal-dir "$SMOKE_DIR/wal-replica" \
    -wal-fsync always \
    -trace-spans "$SMOKE_DIR/spans-replica.jsonl" \
    -trace-sample 1 \
    -replica-of "$(cat "$SMOKE_DIR/repl-addr")" >"$SMOKE_DIR/reactived-replica.log" 2>&1 &
REPLICA_PID=$!
i=0
while [ ! -s "$SMOKE_DIR/addr-replica" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "replica reactived never published its address" >&2
        cat "$SMOKE_DIR/reactived-replica.log" >&2
        exit 1
    fi
    kill -0 "$REPLICA_PID" 2>/dev/null || {
        echo "replica reactived exited early" >&2
        cat "$SMOKE_DIR/reactived-replica.log" >&2
        exit 1
    }
    sleep 0.1
done

"$SMOKE_DIR/reactiveload" \
    -addr "http://$(cat "$SMOKE_DIR/addr-primary")" \
    -failover "http://$(cat "$SMOKE_DIR/addr-replica")" \
    -failover-pid "$DAEMON_PID" \
    -failover-after-batches 6 \
    -failover-debug "http://$(cat "$SMOKE_DIR/debug-addr")" \
    -dump-metrics \
    -trace-spans "$SMOKE_DIR/spans-loadgen.jsonl" \
    -bench crafty \
    -scale 0.2 \
    -events 6000 \
    -concurrency 2 \
    -batch 256 >"$SMOKE_DIR/failover-report.json" 2>"$SMOKE_DIR/failover-metrics.txt"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

# -failover-debug must have captured the primary's replication expvars (the
# follower-lag snapshot) in its last instant alive.
if ! grep -q "primary replication expvars at kill time" "$SMOKE_DIR/failover-metrics.txt"; then
    echo "failover run captured no kill-time replication expvars" >&2
    cat "$SMOKE_DIR/failover-metrics.txt" >&2
    exit 1
fi

# The promoted replica must say so in its own log, and still be alive.
if ! grep -q "promoted to primary" "$SMOKE_DIR/reactived-replica.log"; then
    echo "replica log never recorded the promotion" >&2
    cat "$SMOKE_DIR/reactived-replica.log" >&2
    exit 1
fi
kill -0 "$REPLICA_PID" 2>/dev/null || {
    echo "promoted replica is not running" >&2
    cat "$SMOKE_DIR/reactived-replica.log" >&2
    exit 1
}
kill "$REPLICA_PID"
wait "$REPLICA_PID"
REPLICA_PID=""

# The concatenated primary + replica span files must contain at least one
# complete cross-node chain — a traced batch observed through its WAL
# append, the replication ship, and the follower's apply. -require-chain
# makes the analyzer itself fail otherwise, so propagation cannot silently
# rot into single-node traces.
echo "==> cross-node span chain (reactivespec -require-chain spans)"
"$SMOKE_DIR/reactivespec" -require-chain spans \
    "$SMOKE_DIR/spans-primary.jsonl" \
    "$SMOKE_DIR/spans-replica.jsonl" \
    "$SMOKE_DIR/spans-loadgen.jsonl" >"$SMOKE_DIR/spans-failover-report.txt"

# One iteration of every benchmark, so a bench that rots (compile error,
# panic, bad setup) fails the gate long before anyone needs its numbers.
echo "==> benchmark smoke (-benchtime=1x)"
go test -run='^$' -bench=. -benchtime=1x ./...

echo "==> OK"
