#!/usr/bin/env bash
# Smoke test for cmd/eblowd: build the server, boot it on a random port,
# submit a small 1D and a small 2D instance over HTTP, and assert both jobs
# complete with feasible plans. Gates the batched job service surface in CI.
set -euo pipefail

cd "$(dirname "$0")/.."

log=$(mktemp)
bindir=$(mktemp -d)
bin=$bindir/eblowd
cleanup() {
  [[ -n "${server_pid:-}" ]] && kill "$server_pid" 2>/dev/null || true
  rm -f "$log"
  rm -rf "$bindir"
}
trap cleanup EXIT

echo "== building cmd/eblowd"
go build -o "$bin" ./cmd/eblowd

echo "== booting on a random port"
"$bin" -addr 127.0.0.1:0 -workers 2 >"$log" 2>&1 &
server_pid=$!

base=""
for _ in $(seq 1 100); do
  base=$(sed -n 's#.*listening on \(http://[0-9.:]*\)#\1#p' "$log" | head -1)
  [[ -n "$base" ]] && break
  kill -0 "$server_pid" 2>/dev/null || { echo "server died:"; cat "$log"; exit 1; }
  sleep 0.1
done
[[ -n "$base" ]] || { echo "server never reported its address:"; cat "$log"; exit 1; }
echo "   serving at $base"

submit() { # submit <json-body> -> job id
  local resp id
  resp=$(curl -sf "$base/v1/jobs" -d "$1")
  id=$(sed -n 's/.*"id": *"\(j[0-9]*\)".*/\1/p' <<<"$resp" | head -1)
  [[ -n "$id" ]] || { echo "submit failed: $resp" >&2; exit 1; }
  echo "$id"
}

await_done() { # await_done <job-id>
  local job state
  for _ in $(seq 1 600); do
    job=$(curl -sf "$base/v1/jobs/$1")
    state=$(sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' <<<"$job" | head -1)
    case "$state" in
      done)
        grep -q '"feasible": *true' <<<"$job" || { echo "job $1 finished without a feasible plan: $job"; exit 1; }
        echo "   job $1 done, feasible"
        return 0
        ;;
      failed|canceled)
        echo "job $1 ended $state: $job"; exit 1 ;;
    esac
    sleep 0.2
  done
  echo "job $1 never finished"; exit 1
}

echo "== submitting a 1D and a 2D job"
id1=$(submit '{"benchmark": "1T-2", "params": {"seed": 1}}')
id2=$(submit '{"benchmark": "2T-1", "solver": "portfolio", "params": {"seed": 1, "deadline": "60s"}}')
await_done "$id1"
await_done "$id2"

echo "== streaming events"
events=$(curl -sfN "$base/v1/jobs/$id1/events")
grep -q '"state":"done"' <<<"$events" || { echo "event stream missing terminal event: $events"; exit 1; }

echo "== cancelling"
id3=$(submit '{"benchmark": "1T-1", "solver": "greedy"}')
curl -sf -X DELETE "$base/v1/jobs/$id3" >/dev/null
state=$(curl -sf "$base/v1/jobs/$id3" | sed -n 's/.*"state": *"\([a-z]*\)".*/\1/p' | head -1)
case "$state" in
  done|canceled) echo "   job $id3 is $state after cancel request" ;;
  *) echo "unexpected state $state after cancel"; exit 1 ;;
esac

echo "eblowd smoke test passed"
