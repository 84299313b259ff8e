#!/usr/bin/env bash
# Multi-process PAST cluster integration test.
#
# Spawns N past_cli daemons on localhost — one bootstrap, the rest joining
# through it — then drives real insert/lookup/reclaim traffic through the
# control ports:
#
#   1. every daemon reaches active (joined the overlay);
#   2. a bulk file (TCP path) and a small file (UDP path) inserted at node 1
#      are retrievable from other daemons with matching size and CRC;
#   3. after SIGKILLing one replica-holding daemon, lookups still succeed
#      from the survivors (replica failover);
#   4. a reclaim at the inserting daemon makes the file unretrievable.
#
# Usage: cluster_test.sh /path/to/past_cli
set -u

CLI="${1:?usage: cluster_test.sh /path/to/past_cli}"
N=5
# Derive the port block from the PID so parallel ctest runs don't collide.
BASE=$((21000 + ($$ % 2000) * 16))
WORKDIR="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]}"; do
    kill -9 "$pid" 2>/dev/null
  done
  wait 2>/dev/null
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  for i in $(seq 1 $N); do
    echo "--- daemon $i log ---" >&2
    cat "$WORKDIR/daemon$i.log" >&2 2>/dev/null
  done
  exit 1
}

port() { echo $((BASE + $1)); }
ctl_port() { echo $((BASE + 100 + $1)); }
ctl() { # ctl <node> <command...>
  local node=$1
  shift
  "$CLI" ctl "127.0.0.1:$(ctl_port "$node")" "$@"
}

start_daemon() { # start_daemon <i> [join_port]
  local i=$1 join=${2:-}
  local args=(daemon --port "$(port "$i")" --ctl-port "$(ctl_port "$i")"
              --node-seed "$i" --state-dir "$WORKDIR/state$i" --k 3)
  if [ -n "$join" ]; then
    args+=(--join "127.0.0.1:$join")
  fi
  "$CLI" "${args[@]}" >"$WORKDIR/daemon$i.log" 2>&1 &
  PIDS+=($!)
}

wait_active() { # wait_active <i>
  local i=$1
  for _ in $(seq 1 100); do
    if ctl "$i" status 2>/dev/null | grep -q "active=1"; then
      return 0
    fi
    sleep 0.2
  done
  fail "daemon $i never became active"
}

# --- 1. bring up the cluster ---------------------------------------------------

start_daemon 1
wait_active 1
for i in $(seq 2 $N); do
  start_daemon "$i" "$(port 1)"
  wait_active "$i"
done
echo "cluster: $N daemons active"

# --- 2. insert at node 1, look up elsewhere ------------------------------------

# Bulk file: payload far above the UDP threshold, so replicas travel over TCP.
BULK=$(ctl 1 insert bulk.bin 200000 3) || fail "bulk insert: $BULK"
BULK_ID=$(echo "$BULK" | awk '{print $2}')
BULK_CRC=$(echo "$BULK" | awk '{print $3}')
[ -n "$BULK_ID" ] || fail "bulk insert gave no id: $BULK"

# Small file: fits in one UDP datagram end to end.
SMALL=$(ctl 1 insert small.txt 400 3) || fail "small insert: $SMALL"
SMALL_ID=$(echo "$SMALL" | awk '{print $2}')
SMALL_CRC=$(echo "$SMALL" | awk '{print $3}')

for node in 3 5; do
  GOT=$(ctl "$node" lookup "$BULK_ID") || fail "bulk lookup at node $node: $GOT"
  echo "$GOT" | grep -q "size=200000" || fail "bulk size mismatch at node $node: $GOT"
  echo "$GOT" | grep -q "$BULK_CRC" || fail "bulk crc mismatch at node $node: $GOT"
done
GOT=$(ctl 4 lookup "$SMALL_ID") || fail "small lookup: $GOT"
echo "$GOT" | grep -q "$SMALL_CRC" || fail "small crc mismatch: $GOT"
echo "inserts verified across daemons"

# --- 3. kill a replica holder; lookups must survive ----------------------------

VICTIM=""
for i in 2 3 4; do
  if ctl "$i" status | grep -qv "files=0"; then
    VICTIM=$i
    break
  fi
done
[ -n "$VICTIM" ] || VICTIM=2
kill -9 "${PIDS[$((VICTIM - 1))]}" 2>/dev/null
echo "killed daemon $VICTIM"
# Let the victim's ring neighbours notice its heartbeats stop
# (failure_timeout is 3 s in daemon mode), announce the failure to the rest
# of the leaf set, and let replica maintenance run.
sleep 6

for node in 1 5; do
  if [ "$node" = "$VICTIM" ]; then
    continue
  fi
  GOT=$(ctl "$node" lookup "$BULK_ID") || fail "post-kill lookup at node $node: $GOT"
  echo "$GOT" | grep -q "$BULK_CRC" || fail "post-kill crc mismatch at node $node: $GOT"
done
echo "lookups survived daemon kill"

# --- 4. reclaim ----------------------------------------------------------------

GOT=$(ctl 1 reclaim "$SMALL_ID") || fail "reclaim: $GOT"
sleep 1
GOT=$(ctl 5 lookup "$SMALL_ID") && fail "reclaimed file still retrievable: $GOT"
echo "reclaim verified"

echo "PASS"
exit 0
