#!/bin/sh
# Streaming-analysis smoke: the live-vs-offline parity bar end to end with
# REAL binaries (DESIGN.md §13).
#
#   1. A ktraced with the streaming tap on (--window-ms=5) watches a
#      4-producer fleet whose kses_smoke producers log heartbeats inline.
#   2. `ktracetool top --socket --once --json` is polled until the live
#      engine has completed windows and the event count has gone stable
#      (everything drained), then the final live snapshot is captured.
#   3. `ktracetool tenants --socket --json` must still list the tenant.
#   4. The daemon takes SIGTERM; `ktracetool top <files>` replays the very
#      same trace files offline with the same window geometry.
#   5. Every completed-window line in the live snapshot must appear
#      VERBATIM in the offline replay — the byte-identical parity the
#      engine's order-insensitive window plane promises. An empty diff of
#      a non-empty set, not a fuzzy comparison.
# Usage: ci/run_streaming_smoke.sh [build-dir]
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

cmake -B "$build" -S "$repo" >/dev/null
cmake --build "$build" -j "$(nproc)" \
      --target ktraced kses_smoke ktracetool >/dev/null

work="$(mktemp -d "${TMPDIR:-/tmp}/ktrace_streaming_smoke.XXXXXX")"
trap 'rm -rf "$work"' EXIT INT TERM
mkdir -p "$work/sessions" "$work/out"
cd "$work"

ktraced="$build/tools/ktraced"
smoke="$build/tools/kses_smoke"
tool="$build/tools/ktracetool"

procs=4
events=8000

"$smoke" create sessions/fleet.kses --procs=$procs --buffer-words=64 \
         --buffers=512 >/dev/null

# A negative window is a usage error (exit 2), not a silently disabled tap
# (the timeout ends a daemon that started anyway).
rc=0; timeout 10 "$ktraced" --dir=sessions --out=out --window-ms=-1 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "streaming_smoke: --window-ms=-1 exited $rc, not 2" >&2; exit 1; }

"$ktraced" --dir=sessions --out=out --socket=ctl.sock \
           --scan-ms=20 --poll-us=500 --window-ms=5 2>daemon.log &
daemon_pid=$!

p=0
pids=""
while [ "$p" -lt "$procs" ]; do
  "$smoke" produce sessions/fleet.kses --proc=$p --events=$events \
           --count-file=fleet.p$p --throttle-every=16 --heartbeat-every=64 &
  pids="$pids $!"
  p=$((p + 1))
done
for pid in $pids; do
  wait "$pid" || { echo 'streaming_smoke: producer failed' >&2; exit 1; }
done

# Poll the live dashboard until the engine has completed windows and the
# observed event count stops moving (the daemon drained everything the
# producers committed).
field() { sed -n "s/.*\"type\":\"top\".*\"$2\":\([0-9][0-9]*\).*/\1/p" "$1" | head -1; }
prev=-1
stable=0
tries=0
while :; do
  "$tool" top --socket=ctl.sock --once --json > live.json \
    || { echo 'streaming_smoke: top --once failed' >&2; exit 1; }
  ev="$(field live.json events)"
  wins="$(field live.json windows_completed)"
  if [ -n "$ev" ] && [ "$ev" = "$prev" ] && [ "${wins:-0}" -ge 3 ]; then
    stable=$((stable + 1))
  else
    stable=0
  fi
  [ "$stable" -ge 2 ] && break
  prev="${ev:-}"
  tries=$((tries + 1))
  [ "$tries" -lt 150 ] || {
    echo 'streaming_smoke: live snapshot never went stable' >&2
    cat live.json >&2
    exit 1
  }
  sleep 0.2
done
printf 'streaming_smoke: live snapshot stable (%s events, %s windows)\n' \
       "$ev" "$wins"

# Every snapshot line must be valid JSON (the CI contract of --json).
python3 - live.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    for n, line in enumerate(f, 1):
        if line.strip():
            json.loads(line)
EOF
echo 'streaming_smoke: live NDJSON valid'

# The tenant listing shares the formatter contract.
"$tool" tenants --socket=ctl.sock --json | grep -q '"name":"fleet"' \
  || { echo 'streaming_smoke: tenants --json did not list the tenant' >&2; exit 1; }

kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo 'streaming_smoke: daemon exited non-zero' >&2; exit 1; }

# Offline replay of the same files, same window geometry, same tenant name.
"$tool" top out/fleet.g*.ktrc --window-ms=5 --tenant=fleet --json > post.json

# Parity: completed live window lines must appear verbatim offline.
grep '"type":"window"' live.json | sort > live_windows
grep '"type":"window"' post.json | sort > post_windows
[ -s live_windows ] || {
  echo 'streaming_smoke: live snapshot had no completed windows' >&2
  exit 1
}
comm -23 live_windows post_windows > live_only
if [ -s live_only ]; then
  echo 'streaming_smoke: live window lines missing from offline replay:' >&2
  cat live_only >&2
  exit 1
fi
printf 'streaming_smoke: %s live window line(s) reproduced offline verbatim\n' \
       "$(wc -l < live_windows | tr -d ' ')"

echo 'streaming_smoke: all stages passed'
