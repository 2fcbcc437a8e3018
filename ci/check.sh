#!/usr/bin/env bash
# Full verification, in escalating tiers:
#   1. Release build + tier-1 tests (the fast gate), then the full suite.
#   2. Bench smoke + regression gate: the report-emitting benches run
#      with small iteration counts, their reports merge into BENCH_7.json
#      at the repo root, and ci/compare_bench.py fails the stage if any
#      throughput metric regressed >15% vs the committed baseline (the
#      first run commits the baseline; the comparator self-tests first).
#      bench_server rides along at a CI-sized connection count.
#   2b. Server stage: the loopback smoke test (1k connections, pipelined
#      requests, clean shutdown, zero leaked fds; ctest label `server`)
#      in the Release build and again under ThreadSanitizer.
#   3. Deterministic-simulation stage: the model checker sweeps seeded
#      schedules of the HDD workload under fault injection (seed count
#      overridable via HDD_SIM_SEEDS; failing seeds print a replay
#      command of the form HDD_SIM_FIRST_SEED=<seed> HDD_SIM_SEEDS=1 ...).
#      The garbage-collection sweep (SimExplore.GcSweepSparesEveryReader)
#      runs HDD_SIM_SEEDS/4 seeds per driver, so the sim, asan and tsan
#      stages below size it with their own HDD_SIM_SEEDS.
#   3b. Dist stage: the sharded deployment (src/dist). Seeded sweeps of
#      the N-node cluster under message faults, cluster crashes, and the
#      stale-bound canary (HDD_SIM_DIST_* knobs), plus the socket smoke
#      test that execs two real `hdd_server --shard` processes over TCP.
#      bench_dist rides in the bench stage, gated against BENCH_8.json.
#   3c. Perfbench stage: builds the served benchmark (perfbench/ is its
#      own CMake package over src/, so no other stage compiles it) and
#      smoke-runs each of its three workloads for 2 s; served_bench exits
#      non-zero on a build failure or a failed correctness check.
#   4. AddressSanitizer+UBSan build + tests, with a reduced sim corpus.
#   5. ThreadSanitizer build + tests. The concurrency suite (stress, fuzz,
#      concurrent oracle, sim) must be race-free; the sim sweep runs with
#      a reduced seed corpus since TSan is ~10x slower.
#
# Usage: ci/check.sh [jobs]
# Knobs: HDD_CHECK_STAGES=release,bench,server,sim,crash,dist,perfbench,asan,tsan
#          subset of stages to run
#        HDD_SKIP_TSAN=1   skip the TSan stage (slow / unsupported hosts)
#        HDD_SKIP_ASAN=1   skip the ASan+UBSan stage
set -euo pipefail

cd "$(dirname "$0")/.."
# nproc is Linux coreutils; fall back for macOS/BSD hosts.
JOBS="${1:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 2)}"
SIM_SEEDS="${HDD_SIM_SEEDS:-2000}"
SIM_SEEDS_TSAN="${HDD_SIM_SEEDS_TSAN:-100}"
SIM_SEEDS_ASAN="${HDD_SIM_SEEDS_ASAN:-200}"
CRASH_SEEDS="${HDD_SIM_CRASH_SEEDS:-2000}"
# Online re-decomposition sweeps (drift-driven Restructure under load,
# tests/test_sim_explore.cc SimExplore.Redecomp*). One knob scales the
# main drift sweep; the epoch/canary/crash variants keep their in-test
# defaults in the sim stage and shrink under the sanitizers.
REDECOMP_SEEDS="${HDD_SIM_REDECOMP_SEEDS:-500}"
# Distributed sweeps (tests/test_dist_sim.cc): message-fault, cluster
# crash, stale-bound canary. Shrunk under the sanitizers below.
DIST_SEEDS="${HDD_SIM_DIST_SEEDS:-500}"
DIST_CRASH_SEEDS="${HDD_SIM_DIST_CRASH_SEEDS:-200}"
DIST_CANARY_SEEDS="${HDD_SIM_DIST_CANARY_SEEDS:-150}"
STAGES="${HDD_CHECK_STAGES:-release,bench,server,sim,crash,dist,perfbench,asan,tsan}"

want() { [[ ",$STAGES," == *",$1,"* ]]; }

if want release; then
  echo "=== Release build ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j "$JOBS"
  echo "=== Tier-1 tests (fast gate) ==="
  (cd build && ctest --output-on-failure -j "$JOBS" -L tier1)
  echo "=== Full Release suite ==="
  (cd build && ctest --output-on-failure -j "$JOBS" -LE sim)
fi

if want bench; then
  echo "=== Bench smoke + regression gate ==="
  python3 ci/compare_bench.py self-test
  REPORTS=build/bench-reports
  mkdir -p "$REPORTS"
  # Iteration counts sized for smoke, not precision; best-of repetition
  # plus the reports' calibration rows absorb host noise. Single-threaded
  # rows only: with more workers than cores the numbers are scheduler
  # luck (the full thread sweep belongs on a multi-core host).
  HDD_BENCH_TXNS="${HDD_BENCH_TXNS_SCALING:-4000}" \
    HDD_BENCH_THREADS="${HDD_BENCH_THREADS:-1}" \
    HDD_BENCH_REPS="${HDD_BENCH_REPS:-7}" \
    ./build/bench/bench_scaling --report="$REPORTS/scaling.json"
  # bench_wal keeps its own thread list: group commit only batches with
  # overlapping committers, so a t1-only run would pin mean_batch at 1
  # and measure nothing (see EXPERIMENTS.md).
  HDD_BENCH_TXNS="${HDD_BENCH_TXNS_WAL:-2000}" \
    HDD_BENCH_WAL_THREADS="${HDD_BENCH_WAL_THREADS:-1,4}" \
    HDD_BENCH_REPS="${HDD_BENCH_REPS:-3}" \
    ./build/bench/bench_wal --report="$REPORTS/wal.json"
  HDD_BENCH_TXNS="${HDD_BENCH_TXNS_OBS:-10000}" \
    HDD_BENCH_REPS="${HDD_BENCH_REPS:-9}" \
    ./build/bench/bench_obs_overhead --report="$REPORTS/obs_overhead.json"
  # Network front end, CI-sized: 1k loopback connections through the
  # forked driver (the standalone default is 10k; see bench_server.cc).
  HDD_BENCH_SERVER_CONNS="${HDD_BENCH_SERVER_CONNS:-1000}" \
    HDD_BENCH_SERVER_REQS="${HDD_BENCH_SERVER_REQS:-10}" \
    ./build/bench/bench_server --report="$REPORTS/server.json"
  python3 ci/compare_bench.py merge "$REPORTS/current.json" \
    "$REPORTS"/scaling.json "$REPORTS"/wal.json \
    "$REPORTS"/obs_overhead.json "$REPORTS"/server.json
  python3 ci/compare_bench.py compare \
    --baseline BENCH_7.json --current "$REPORTS/current.json" \
    --threshold "${HDD_BENCH_THRESHOLD:-0.15}"
  # Sharded deployment, CI-sized; the binary itself exits non-zero unless
  # HDD registration messages are 0 while SDD-1-lite's are > 0, so the
  # paper's zero-registration claim is re-asserted on every run. The
  # socket row runs real loopback TCP; its own gate_tolerance widens the
  # throughput gate accordingly. Gated against its own baseline.
  HDD_BENCH_DIST_TXNS="${HDD_BENCH_DIST_TXNS:-2000}" \
    HDD_BENCH_DIST_SOCKET_TXNS="${HDD_BENCH_DIST_SOCKET_TXNS:-300}" \
    HDD_BENCH_REPS="${HDD_BENCH_REPS:-3}" \
    ./build/bench/bench_dist --report="$REPORTS/dist.json"
  python3 ci/compare_bench.py compare \
    --baseline BENCH_8.json --current "$REPORTS/dist.json" \
    --threshold "${HDD_BENCH_THRESHOLD:-0.15}"
fi

if want server; then
  echo "=== Server stage: loopback smoke, Release ==="
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build build -j "$JOBS" --target test_net_smoke
  (cd build && ctest --output-on-failure -L server)
  if [[ "${HDD_SKIP_TSAN:-0}" != 1 ]]; then
    echo "=== Server stage: loopback smoke, TSan ==="
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DHDD_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "$JOBS" --target test_net_smoke
    (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
      ctest --output-on-failure -L server)
  fi
fi

if want sim; then
  echo "=== Simulation sweep ($SIM_SEEDS seeds, $REDECOMP_SEEDS redecomp) ==="
  (cd build && HDD_SIM_SEEDS="$SIM_SEEDS" \
    HDD_SIM_REDECOMP_SEEDS="$REDECOMP_SEEDS" \
    ctest --output-on-failure -L sim)
fi

if want dist; then
  echo "=== Dist stage ($DIST_SEEDS fault / $DIST_CRASH_SEEDS crash / $DIST_CANARY_SEEDS canary seeds) ==="
  # Seeded distributed sweeps plus the socket deployment smoke (in-process
  # shard pair with the fd-leak assert, and two real `hdd_server --shard`
  # processes driven over TCP; ctest label `dist`).
  (cd build && HDD_SIM_DIST_SEEDS="$DIST_SEEDS" \
    HDD_SIM_DIST_CRASH_SEEDS="$DIST_CRASH_SEEDS" \
    HDD_SIM_DIST_CANARY_SEEDS="$DIST_CANARY_SEEDS" \
    ctest --output-on-failure -L dist)
fi

if want crash; then
  echo "=== Crash-recovery stage ($CRASH_SEEDS crash seeds) ==="
  # WAL unit tier plus the on-disk kill -9 smoke test
  # (tests/test_wal_crash_process.cc: forked child, SIGKILL, real files).
  (cd build && ctest --output-on-failure -j "$JOBS" \
    -R 'test_wal_(format|recovery|crash_process)')
  # Process-crash sweep: seeded schedules killed at arbitrary yield
  # points; every crash must recover exactly the committed prefix and the
  # combined pre/post-crash history must stay 1SR, and the lost-ack
  # canary (WalOptions::mutation_skip_commit_sync) must be caught with a
  # replayable seed. Knob: HDD_SIM_CRASH_SEEDS.
  (cd build && HDD_SIM_CRASH_SEEDS="$CRASH_SEEDS" \
    ./tests/test_sim_explore --gtest_filter='SimExplore.Wal*')
fi

if want perfbench; then
  echo "=== Perfbench stage: served benchmark build + smoke ==="
  # A src/ API change that breaks perfbench/ (ServerOptions::backend,
  # ShardServer::transport().counters(), ...) fails here, not only in the
  # benchmark pipeline. Each run prints its JSON result line.
  for workload in served_chain8_reads served_durable_hot sharded_2node; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 \
      --trace 0
  done
fi

if want asan && [[ "${HDD_SKIP_ASAN:-0}" != 1 ]]; then
  echo "=== AddressSanitizer+UBSan build ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHDD_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS"
  echo "=== AddressSanitizer+UBSan tests ==="
  # UBSan findings abort loudly; the sim sweep shrinks because ASan is
  # ~2x slower and the corpus is about memory errors, not schedules.
  (cd build-asan && \
    ASAN_OPTIONS="halt_on_error=1:detect_leaks=0" \
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    HDD_SIM_SEEDS="$SIM_SEEDS_ASAN" HDD_SIM_CANARY_SEEDS=50 \
    HDD_SIM_CRASH_SEEDS=200 HDD_SIM_CRASH_PERCOMMIT_SEEDS=50 \
    HDD_SIM_WAL_CANARY_SEEDS=50 HDD_SIM_EPOCH_SEEDS=200 \
    HDD_SIM_EPOCH_CANARY_SEEDS=50 HDD_SIM_EPOCH_CRASH_SEEDS=100 \
    HDD_SIM_REDECOMP_SEEDS=60 HDD_SIM_REDECOMP_EPOCH_SEEDS=40 \
    HDD_SIM_REDECOMP_CANARY_SEEDS=30 HDD_SIM_REDECOMP_CRASH_SEEDS=40 \
    HDD_SIM_DIST_SEEDS=100 HDD_SIM_DIST_CRASH_SEEDS=50 \
    HDD_SIM_DIST_CANARY_SEEDS=30 \
    ctest --output-on-failure -j "$JOBS")
fi

if want tsan && [[ "${HDD_SKIP_TSAN:-0}" != 1 ]]; then
  echo "=== ThreadSanitizer build ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHDD_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS"
  echo "=== ThreadSanitizer tests ==="
  # halt_on_error so any reported race fails the suite loudly; the sim
  # sweep shrinks to keep the TSan stage's runtime sane.
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
    HDD_SIM_SEEDS="$SIM_SEEDS_TSAN" HDD_SIM_CANARY_SEEDS=50 \
    HDD_SIM_CRASH_SEEDS=200 HDD_SIM_CRASH_PERCOMMIT_SEEDS=50 \
    HDD_SIM_WAL_CANARY_SEEDS=50 HDD_SIM_EPOCH_SEEDS=100 \
    HDD_SIM_EPOCH_CANARY_SEEDS=50 HDD_SIM_EPOCH_CRASH_SEEDS=100 \
    HDD_SIM_REDECOMP_SEEDS=40 HDD_SIM_REDECOMP_EPOCH_SEEDS=30 \
    HDD_SIM_REDECOMP_CANARY_SEEDS=20 HDD_SIM_REDECOMP_CRASH_SEEDS=30 \
    HDD_SIM_DIST_SEEDS=60 HDD_SIM_DIST_CRASH_SEEDS=40 \
    HDD_SIM_DIST_CANARY_SEEDS=20 \
    ctest --output-on-failure -j "$JOBS")
fi

echo "=== All checks passed ==="
