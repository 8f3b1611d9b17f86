#!/usr/bin/env bash
# Chaos test for cmd/eblowd's durability and auth layer: boot the server with
# a write-ahead log and an API key file, submit a batch of jobs, kill -9 the
# process mid-queue, restart it on the same WAL, and assert that every
# accepted job reaches a terminal state exactly once and that the replayed
# results are bit-identical (by digest) to an uninterrupted run of the same
# batch. Also asserts the auth contract: unauthenticated requests get 401.
set -euo pipefail

cd "$(dirname "$0")/.."

log=$(mktemp)
workdir=$(mktemp -d)
bin=$workdir/eblowd
wal=$workdir/jobs.wal
refwal=$workdir/reference.wal
keys=$workdir/keys.txt
secret=chaos-secret-0001
cleanup() {
  [[ -n "${server_pid:-}" ]] && kill "$server_pid" 2>/dev/null || true
  [[ -n "${dispatcher_pid:-}" ]] && kill "$dispatcher_pid" 2>/dev/null || true
  for pid in ${backend_pids[@]+"${backend_pids[@]}"}; do
    kill "$pid" 2>/dev/null || true
  done
  rm -f "$log" ${backend_logs[@]+"${backend_logs[@]}"} "${dlog:-}"
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building cmd/eblowd"
go build -o "$bin" ./cmd/eblowd
printf 'chaos %s\n' "$secret" >"$keys"

boot() { # boot <wal-path> -> sets $base and $server_pid
  : >"$log"
  "$bin" -addr 127.0.0.1:0 -workers 1 -wal "$1" -auth-keys "$keys" >"$log" 2>&1 &
  server_pid=$!
  base=""
  for _ in $(seq 1 100); do
    base=$(sed -n 's#.*listening on \(http://[0-9.:]*\)#\1#p' "$log" | head -1)
    [[ -n "$base" ]] && break
    kill -0 "$server_pid" 2>/dev/null || { echo "server died:"; cat "$log"; exit 1; }
    sleep 0.1
  done
  [[ -n "$base" ]] || { echo "server never reported its address:"; cat "$log"; exit 1; }
  echo "   serving at $base (wal $1)"
}

acurl() { curl -s -H "Authorization: Bearer $secret" "$@"; }

submit() { # submit <json-body> -> job id
  local resp id
  resp=$(acurl -f "$base/v1/jobs" -d "$1")
  id=$(sed -n 's/.*"id": *"\(j[0-9]*\)".*/\1/p' <<<"$resp" | head -1)
  [[ -n "$id" ]] || { echo "submit failed: $resp" >&2; exit 1; }
  echo "$id"
}

await_digest() { # await_digest <job-id> -> prints the done job's digest
  local job state digest
  for _ in $(seq 1 600); do
    job=$(acurl -f "$base/v1/jobs/$1")
    state=$(sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' <<<"$job" | head -1)
    case "$state" in
      done)
        digest=$(sed -n 's/.*"digest": *"\([0-9a-f]*\)".*/\1/p' <<<"$job" | head -1)
        [[ -n "$digest" ]] || { echo "job $1 done without a digest: $job" >&2; exit 1; }
        echo "$digest"
        return 0
        ;;
      failed|canceled)
        echo "job $1 ended $state: $job" >&2; exit 1 ;;
    esac
    sleep 0.2
  done
  echo "job $1 never finished" >&2; exit 1
}

# The batch: a slow 2D blocker pins the single worker so the rest of the
# batch is still queued when the kill lands.
batch=(
  '{"benchmark": "2D-1", "params": {"seed": 1}}'
  '{"benchmark": "1T-1", "params": {"seed": 1}}'
  '{"benchmark": "1T-2", "params": {"seed": 2}}'
  '{"benchmark": "2T-1", "params": {"seed": 3}}'
  '{"benchmark": "1T-1", "solver": "greedy", "params": {"seed": 4}}'
  '{"benchmark": "1D-1", "params": {"seed": 5}}'
  '{"benchmark": "2T-1", "solver": "greedy", "params": {"seed": 6}}'
)

boot "$wal"

echo "== auth: unauthenticated and wrong-key requests are rejected"
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/jobs")
[[ "$code" == 401 ]] || { echo "unauthenticated request returned $code, want 401"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -H "Authorization: Bearer wrong-secret-9" "$base/v1/jobs")
[[ "$code" == 401 ]] || { echo "wrong key returned $code, want 401"; exit 1; }
echo "   401 for both"

echo "== submitting ${#batch[@]} jobs, then kill -9 mid-queue"
ids=()
for body in "${batch[@]}"; do
  ids+=("$(submit "$body")")
done
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "   killed with ${#ids[@]} jobs accepted (${ids[*]})"

echo "== restarting on the same WAL"
boot "$wal"
grep -q '^eblowd: wal ' "$log" || { echo "restart logged no replay stats:"; cat "$log"; exit 1; }
sed -n 's/^eblowd: \(wal .*\)/   \1/p' "$log" | head -1

count=$(acurl -f "$base/v1/jobs" | grep -o '"id": *"j[0-9]*"' | wc -l)
[[ "$count" == "${#ids[@]}" ]] || { echo "replayed server lists $count jobs, want ${#ids[@]} (no job lost, none duplicated)"; exit 1; }

declare -A replayed
for id in "${ids[@]}"; do
  replayed[$id]=$(await_digest "$id")
  echo "   job $id done, digest ${replayed[$id]:0:12}..."
done
job=$(acurl -f "$base/v1/jobs/${ids[0]}")
grep -q '"key": *"chaos"' <<<"$job" || { echo "replayed job lost its key identity: $job"; exit 1; }

kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "== uninterrupted reference run on a fresh WAL"
boot "$refwal"
ref_ids=()
for body in "${batch[@]}"; do
  ref_ids+=("$(submit "$body")")
done
for i in "${!ref_ids[@]}"; do
  ref_digest=$(await_digest "${ref_ids[$i]}")
  id=${ids[$i]}
  if [[ "$ref_digest" != "${replayed[$id]}" ]]; then
    echo "digest mismatch for batch entry $i: replayed ${replayed[$id]}, reference $ref_digest"
    exit 1
  fi
done
echo "   all ${#ids[@]} digests match the interrupted run"

kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

# ---------------------------------------------------------------------------
# Dispatcher scenario: a 3-node fleet behind eblowd -dispatch. Jobs shard by
# instance shape key, so every 2D-1 submission lands on one backend; that
# backend is kill -9'd while the cohort is mid-race, the survivors must pick
# up its accepted-but-unfinished jobs from the dispatcher's WAL, and after
# the dead node restarts the fleet must list every job exactly once with
# digests bit-identical to an uninterrupted single-node run.
# ---------------------------------------------------------------------------

echo "== dispatcher scenario: 3 backends, kill -9 one mid-race, restart it"

backend_names=(b1 b2 b3)
backend_pids=()
backend_bases=()
backend_logs=()

boot_backend() { # boot_backend <index> <addr> -> fills the backend_* arrays
  local i=$1 addr=$2 blog pid bbase
  blog=$(mktemp)
  "$bin" -addr "$addr" -workers 1 >"$blog" 2>&1 &
  pid=$!
  bbase=""
  for _ in $(seq 1 100); do
    bbase=$(sed -n 's#.*listening on \(http://[0-9.:]*\)#\1#p' "$blog" | head -1)
    [[ -n "$bbase" ]] && break
    kill -0 "$pid" 2>/dev/null || { echo "backend died:"; cat "$blog"; exit 1; }
    sleep 0.1
  done
  [[ -n "$bbase" ]] || { echo "backend never reported its address:"; cat "$blog"; exit 1; }
  backend_pids[$i]=$pid
  backend_bases[$i]=$bbase
  backend_logs[$i]=$blog
  echo "   backend ${backend_names[$i]} at $bbase"
}

for i in 0 1 2; do boot_backend "$i" 127.0.0.1:0; done

# One slow 2D cohort (one routing key -> one backend) plus fast spread-out
# jobs on other shapes.
dbatch=(
  '{"benchmark": "2D-1", "params": {"seed": 11}}'
  '{"benchmark": "2D-1", "params": {"seed": 12}}'
  '{"benchmark": "2D-1", "params": {"seed": 13}}'
  '{"benchmark": "1T-1", "params": {"seed": 14}}'
  '{"benchmark": "1T-2", "params": {"seed": 15}}'
  '{"benchmark": "2T-1", "params": {"seed": 16}}'
)

echo "== uninterrupted single-node reference for the fleet batch"
boot "$workdir/dispatch-reference.wal"
dref_ids=()
for body in "${dbatch[@]}"; do
  dref_ids+=("$(submit "$body")")
done
dref_digests=()
for id in "${dref_ids[@]}"; do
  dref_digests+=("$(await_digest "$id")")
done
kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""
echo "   reference digests recorded for ${#dref_ids[@]} jobs"

dwal=$workdir/dispatch.wal
dlog=$(mktemp)
"$bin" -addr 127.0.0.1:0 \
  -dispatch "b1=${backend_bases[0]},b2=${backend_bases[1]},b3=${backend_bases[2]}" \
  -wal "$dwal" -health-interval 100ms -fail-after 2 -auth-keys "$keys" >"$dlog" 2>&1 &
dispatcher_pid=$!
base=""
for _ in $(seq 1 100); do
  base=$(sed -n 's#.*listening on \(http://[0-9.:]*\)#\1#p' "$dlog" | head -1)
  [[ -n "$base" ]] && break
  kill -0 "$dispatcher_pid" 2>/dev/null || { echo "dispatcher died:"; cat "$dlog"; exit 1; }
  sleep 0.1
done
[[ -n "$base" ]] || { echo "dispatcher never reported its address:"; cat "$dlog"; exit 1; }
echo "   dispatcher at $base"

echo "== submitting ${#dbatch[@]} jobs through the dispatcher"
dids=()
for body in "${dbatch[@]}"; do
  dids+=("$(submit "$body")")
done

# Find the backend that owns the 2D-1 cohort, then kill -9 the whole node
# while the cohort is still racing on its single worker.
blocker=${dids[0]}
owner=""
for _ in $(seq 1 100); do
  owner=$(acurl -f "$base/v1/jobs/$blocker" | sed -n 's/.*"node": *"\(b[0-9]*\)".*/\1/p' | head -1)
  [[ -n "$owner" ]] && break
  sleep 0.1
done
[[ -n "$owner" ]] || { echo "job $blocker was never assigned a node"; exit 1; }
owner_idx=-1
for i in 0 1 2; do
  [[ "${backend_names[$i]}" == "$owner" ]] && owner_idx=$i
done
kill -9 "${backend_pids[$owner_idx]}"
wait "${backend_pids[$owner_idx]}" 2>/dev/null || true
echo "   killed backend $owner (owner of the 2D cohort) with jobs mid-race"

echo "== every job must fail over and finish with the reference digest"
for i in "${!dids[@]}"; do
  digest=$(await_digest "${dids[$i]}")
  if [[ "$digest" != "${dref_digests[$i]}" ]]; then
    echo "digest mismatch for fleet job $i (${dids[$i]}): got $digest, reference ${dref_digests[$i]}"
    exit 1
  fi
  echo "   job ${dids[$i]} done, digest ${digest:0:12}..."
done

echo "== restarting the killed backend; fleet must report 3 alive nodes"
boot_backend "$owner_idx" "${backend_bases[$owner_idx]#http://}"
alive=""
for _ in $(seq 1 100); do
  alive=$(acurl -f "$base/v1/stats" | sed -n 's/.*"aliveNodes": *\([0-9]*\).*/\1/p' | head -1)
  [[ "$alive" == 3 ]] && break
  sleep 0.1
done
[[ "$alive" == 3 ]] || { echo "fleet never returned to 3 alive nodes (got ${alive:-none})"; exit 1; }

# No job lost, none duplicated: the dispatcher's public table still lists
# exactly the accepted batch.
count=$(acurl -f "$base/v1/jobs" | grep -o '"id": *"j[0-9]*"' | wc -l)
[[ "$count" == "${#dids[@]}" ]] || { echo "dispatcher lists $count jobs, want ${#dids[@]} (no job lost, none duplicated)"; exit 1; }
echo "   fleet healthy again, $count jobs listed exactly once"

kill "$dispatcher_pid" 2>/dev/null || true
wait "$dispatcher_pid" 2>/dev/null || true
dispatcher_pid=""

echo "eblowd chaos test passed"
