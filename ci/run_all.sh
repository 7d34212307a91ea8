#!/bin/sh
# The whole verification gauntlet in one command:
#   1. tier-1 build (-Werror) + full ctest suite (plain toolchain)
#   2. ASan+UBSan build + full ctest suite (UBSan without recovery, so
#      undefined behaviour aborts the test instead of only printing; plus
#      float-cast-overflow, which -fsanitize=undefined leaves out)
#   3. TSan build + `concurrent`-labelled tests (ci/run_tsan.sh)
#   4. monitor smoke: heartbeat trace -> ktracetool monitor --json
#   5. crash smoke: fork/SIGKILL recovery harness across 20 seeds
#   6. daemon smoke: ktraced fleet — seeded kills, corruption, quarantine,
#      SIGTERM mid-drain + restart, exactly-once verified end to end
#   7. decode-bench smoke: bench/run_decode_bench.sh --quick (small
#      workload, throughput floor, compressed-to-raw decode ratio floor,
#      bit-identical configs)
#   8. streaming smoke: live ktraced dashboard vs offline replay — every
#      completed live window line reproduced byte-identically
#   9. replay smoke: record an SDET run, replay it bit-identically, and
#      check what-if divergence reports are deterministic
#  10. storage smoke: rotation chain under load, then a full simulated
#      disk — emergency, reclaim, recovery, exactly-once survival
#  11. pipebench smoke: the pipeline benchmark builds against these
#      sources, prints every metric, and passes its gates (and each gate
#      fires on damaged input) — a src/ change that breaks the benchmark's
#      API fails here, not at the next benchmark run
#  12. daemon tap check: bench/run_daemon_bench.sh --quick — one tenant
#      drained with ktraced's shipped live tap and without; fails when the
#      tap-on drain rate is below the bench's floor ratio to tap-off
# Usage: ci/run_all.sh [build-dir-prefix]
# Build trees land at <prefix>, <prefix>-asan, <prefix>-tsan
# (default: build, build-asan, build-tsan at the repo root).
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
prefix="${1:-$repo/build}"

echo "==> [1/12] tier-1: plain build + ctest (warnings are errors)"
cmake -B "$prefix" -S "$repo" -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$prefix" -j "$(nproc)"
(cd "$prefix" && ctest --output-on-failure)

echo "==> [2/12] ASan+UBSan build + ctest (a UBSan report fails its test)"
cmake -B "$prefix-asan" -S "$repo" -DKTRACE_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      "-DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined -fsanitize=float-cast-overflow -fno-sanitize-recover=float-cast-overflow"
cmake --build "$prefix-asan" -j "$(nproc)"
(cd "$prefix-asan" && ctest --output-on-failure)

echo "==> [3/12] TSan: concurrent-labelled tests"
"$repo/ci/run_tsan.sh" "$prefix-tsan"

echo "==> [4/12] monitor smoke"
"$repo/ci/run_monitor_smoke.sh" "$prefix"

echo "==> [5/12] crash-recovery smoke (20 seeds)"
"$repo/ci/run_crash_smoke.sh" "$prefix" 20

echo "==> [6/12] daemon smoke (ktraced fleet, kills + restart)"
"$repo/ci/run_daemon_smoke.sh" "$prefix"

echo "==> [7/12] decode-bench smoke (--quick, throughput floor)"
"$repo/bench/run_decode_bench.sh" "$prefix" --quick

echo "==> [8/12] streaming smoke (live vs offline window parity)"
"$repo/ci/run_streaming_smoke.sh" "$prefix"

echo "==> [9/12] replay smoke (record -> bit-identical replay -> what-if)"
"$repo/ci/run_replay_smoke.sh" "$prefix"

echo "==> [10/12] storage smoke (rotation, ENOSPC emergency, reclaim)"
"$repo/ci/run_storage_smoke.sh" "$prefix"

echo "==> [11/12] pipebench smoke (benchmark build, metrics, gates)"
(cd "$repo" && python3 pipebench/run.py --smoke)

echo "==> [12/12] daemon tap check (--quick, tap-on/tap-off drain floor)"
"$repo/bench/run_daemon_bench.sh" "$prefix" --quick

echo "run_all: all twelve stages passed"
