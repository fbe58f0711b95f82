#!/usr/bin/env bash
# Server smoke test (wired into ctest; see tools/CMakeLists.txt).
#
# Spawns ropuf_serve on an ephemeral loopback port, points ropuf_cli
# auth-client at it with a pinned synthetic workload, and requires:
#   1. the online verdict digest matches offline `auth-batch` byte-for-byte
#      (same registry, same workload, same thread budget),
#   2. the startup banner reports the same registry epoch in every phase
#      (a fresh server over the same fleet must always come up at epoch 1),
#   3. SIGINT triggers a graceful drain: the server exits 0 on its own.
#
# Runs four phases: single-reactor (--shards 1, the PR-5 shape),
# multi-reactor (--shards 2, which also exercises the --port-file handshake
# contract: the port file must not appear until the listener is bound and
# every shard can take a handed-off connection), a v1/v2 interop phase (one
# v2-capable server serving a v1 client and a `--protocol 2` client
# concurrently — the v1 digest must stay byte-identical and the v2 digest
# must match offline `auth-batch --protocol 2`), and a reload phase that
# serves from an on-disk registry, appends a delta segment with ropuf_cli
# registry-append, sends SIGHUP, compacts the generation in place under the
# live server, and sends SIGHUP again; it requires the server to report each
# new epoch while verdicts for the untouched base devices stay byte-identical
# across both swaps and the rewrite between them.
#
# Usage: server_smoke_test.sh <ropuf_serve> <ropuf_cli> <workdir>
set -euo pipefail

SERVE=$1
CLI=$2
WORKDIR=$3

cd "$WORKDIR"

FLEET="--devices 24 --seed 42"
WORKLOAD="--requests 256 --bits 16 --max-hd 2 --threads 2"

OFFLINE=$("$CLI" auth-batch $FLEET $WORKLOAD)
OFFLINE_DIGEST=$(printf '%s\n' "$OFFLINE" | grep 'verdict digest')
[ -n "$OFFLINE_DIGEST" ] || { echo "FAIL: auth-batch printed no digest"; exit 1; }

# Epoch reported by each phase's startup banner, appended by run_client's
# caller; all entries must agree (a fresh server always starts at epoch 1).
EPOCHS_SEEN=""

# start_server <label> <extra ropuf_serve flags...>
# Starts the server with stdout captured to smoke_log_<label>.txt, waits
# for the port file, and sets SRV (pid), PORT and LOG.
start_server() {
  local LABEL=$1
  shift

  local PORT_FILE="smoke_port_${LABEL}.txt"
  LOG="smoke_log_${LABEL}.txt"
  rm -f "$PORT_FILE" "$LOG"

  "$SERVE" --port 0 --port-file "$PORT_FILE" --threads 2 "$@" >"$LOG" &
  SRV=$!
  trap 'kill -9 $SRV 2>/dev/null || true' EXIT

  # Wait for the port file, but notice a server that died on startup (bad
  # flags, bind failure) instead of burning the full wait on a corpse.
  for _ in $(seq 100); do
    [ -s "$PORT_FILE" ] && break
    if ! kill -0 "$SRV" 2>/dev/null; then
      RC=0
      wait "$SRV" || RC=$?
      echo "FAIL($LABEL): server died before writing its port file (exit status $RC)"
      cat "$LOG" || true
      exit 1
    fi
    sleep 0.1
  done
  [ -s "$PORT_FILE" ] || { echo "FAIL($LABEL): server never wrote its port file"; exit 1; }
  PORT=$(cat "$PORT_FILE")
}

# run_client <label>: auth-client against $PORT; digest must match offline.
run_client() {
  local LABEL=$1
  local ONLINE
  ONLINE=$("$CLI" auth-client --port "$PORT" $FLEET $WORKLOAD)

  local ONLINE_DIGEST
  ONLINE_DIGEST=$(printf '%s\n' "$ONLINE" | grep 'verdict digest')
  [ -n "$ONLINE_DIGEST" ] || { echo "FAIL($LABEL): client printed no digest"; exit 1; }
  if [ "$ONLINE_DIGEST" != "$OFFLINE_DIGEST" ]; then
    echo "FAIL($LABEL): online/offline digest mismatch"
    echo "  online:  $ONLINE_DIGEST"
    echo "  offline: $OFFLINE_DIGEST"
    exit 1
  fi
  if printf '%s\n' "$ONLINE" | grep -q 'degraded answers'; then
    echo "FAIL($LABEL): client saw degraded answers on an idle server"
    exit 1
  fi
  LAST_DIGEST=$ONLINE_DIGEST
}

# stop_server <label>: SIGINT, graceful drain, exit 0.
stop_server() {
  local LABEL=$1
  kill -INT "$SRV"
  for _ in $(seq 100); do
    kill -0 "$SRV" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$SRV" 2>/dev/null; then
    echo "FAIL($LABEL): server did not drain after SIGINT"
    exit 1
  fi
  RC=0
  wait "$SRV" || RC=$?
  [ "$RC" -eq 0 ] || { echo "FAIL($LABEL): server exited rc=$RC"; cat "$LOG"; exit 1; }
  trap - EXIT
}

# note_epoch <label>: record the startup banner's epoch for cross-phase
# comparison. The banner is flushed before the port file is readable, so
# the log always has it by the time the client has run.
note_epoch() {
  local LABEL=$1
  local EPOCH
  EPOCH=$(grep -o 'epoch [0-9]*' "$LOG" | head -1 | grep -o '[0-9]*' || true)
  [ -n "$EPOCH" ] || { echo "FAIL($LABEL): startup banner reported no epoch"; cat "$LOG"; exit 1; }
  EPOCHS_SEEN="${EPOCHS_SEEN}${LABEL}=${EPOCH} "
  STARTUP_EPOCH="epoch $EPOCH"
}

run_phase() {
  local LABEL=$1
  shift
  start_server "$LABEL" $FLEET "$@"
  run_client "$LABEL"
  note_epoch "$LABEL"
  stop_server "$LABEL"
  echo "PASS($LABEL): $LAST_DIGEST (online == offline, $STARTUP_EPOCH, graceful drain)"
}

run_phase single
run_phase sharded --shards 2

# -------------------------------------------------------------- interop phase
# One v2-capable sharded server; a v1 client and a v2 client run
# CONCURRENTLY against it. The v1 digest must stay byte-identical to the
# offline v1 digest (the protocol upgrade is invisible to old clients), and
# the v2 digest must match offline `auth-batch --protocol 2` (proof verdicts
# are nonce-independent, so online and offline digests compare directly).
V2WORKLOAD="--requests 256 --threads 2 --protocol 2"

OFFLINE_V2=$("$CLI" auth-batch $FLEET $V2WORKLOAD)
OFFLINE_V2_DIGEST=$(printf '%s\n' "$OFFLINE_V2" | grep 'verdict digest')
[ -n "$OFFLINE_V2_DIGEST" ] || { echo "FAIL(interop): v2 auth-batch printed no digest"; exit 1; }

start_server interop $FLEET --shards 2
"$CLI" auth-client --port "$PORT" $FLEET $WORKLOAD >smoke_interop_v1.txt &
CLIENT_V1=$!
"$CLI" auth-client --port "$PORT" $FLEET $V2WORKLOAD >smoke_interop_v2.txt &
CLIENT_V2=$!
wait "$CLIENT_V1" || { echo "FAIL(interop): v1 client exited nonzero"; exit 1; }
wait "$CLIENT_V2" || { echo "FAIL(interop): v2 client exited nonzero"; exit 1; }

if ! grep -q 'protocol v2' smoke_interop_v2.txt; then
  echo "FAIL(interop): v2 client fell back to v1 against a v2 server"
  cat smoke_interop_v2.txt
  exit 1
fi
V1_DIGEST=$(grep 'verdict digest' smoke_interop_v1.txt)
if [ "$V1_DIGEST" != "$OFFLINE_DIGEST" ]; then
  echo "FAIL(interop): v1 client digest drifted against a v2 server"
  echo "  online:  $V1_DIGEST"
  echo "  offline: $OFFLINE_DIGEST"
  exit 1
fi
V2_DIGEST=$(grep 'verdict digest' smoke_interop_v2.txt)
if [ "$V2_DIGEST" != "$OFFLINE_V2_DIGEST" ]; then
  echo "FAIL(interop): v2 online/offline digest mismatch"
  echo "  online:  $V2_DIGEST"
  echo "  offline: $OFFLINE_V2_DIGEST"
  exit 1
fi
note_epoch interop
stop_server interop
echo "PASS(interop): v1 $V1_DIGEST / v2 $V2_DIGEST (concurrent clients, one server)"

# --------------------------------------------------------------- reload phase
# Serve from an on-disk registry minted with the SAME fleet knobs (so the
# offline digest still applies), append a delta of brand-new devices, SIGHUP,
# and require: the server reports the bumped epoch, and verdicts for the
# untouched base devices are byte-identical before and after the swap.
REG="smoke_fleet.ropufreg"
rm -f "$REG" "$REG".delta-*
"$CLI" registry-build --out "$REG" $FLEET >/dev/null

start_server reload --registry "$REG"
run_client reload_before
note_epoch reload

"$CLI" registry-append --registry "$REG" --devices 3 --seed 777 >/dev/null
kill -HUP "$SRV"
for _ in $(seq 100); do
  grep -q 'reloaded: epoch' "$LOG" && break
  sleep 0.1
done
if ! grep -q 'reloaded: epoch 2' "$LOG"; then
  echo "FAIL(reload): server never reported the new epoch after SIGHUP"
  cat "$LOG"
  exit 1
fi

# Compact in place under the live server before any client touches epoch 2
# (a client would warm the cache and hide a torn base). The writer replaces
# the base by rename, so the served epoch keeps the generation it mapped.
"$CLI" registry-compact --registry "$REG" >/dev/null
run_client reload_after

# A second SIGHUP picks up the compacted base: epoch 3, same verdicts.
kill -HUP "$SRV"
for _ in $(seq 100); do
  grep -q 'reloaded: epoch 3' "$LOG" && break
  sleep 0.1
done
if ! grep -q 'reloaded: epoch 3' "$LOG"; then
  echo "FAIL(reload): server never reported epoch 3 after compaction and SIGHUP"
  cat "$LOG"
  exit 1
fi
run_client reload_compacted
stop_server reload
echo "PASS(reload): $LAST_DIGEST (digest stable across SIGHUP, in-place compaction, SIGHUP)"

# ------------------------------------------------- cross-phase epoch parity
for ENTRY in $EPOCHS_SEEN; do
  if [ "${ENTRY#*=}" != "1" ]; then
    echo "FAIL: startup epoch drifted across phases: $EPOCHS_SEEN"
    exit 1
  fi
done
echo "PASS(epochs): startup epoch stable across phases ($EPOCHS_SEEN)"
