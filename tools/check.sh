#!/usr/bin/env bash
# Repository check, suite by suite — the same entry points CI calls:
#
#   lint     eafe_lint invariant checker (token rules + include-graph
#            layering against tools/lint/layers.spec), the header
#            self-containment target (every src/**/*.h compiled
#            standalone under -Werror), and clang-tidy as a gated ctest
#            (self-skips when not installed) in build/
#   debug    build + full ctest (all labels) in build/
#   release  Release build + perf smokes in build-release/: micro_tree
#            --smoke (tree, shared-binner forest, gbdt booster, and
#            model-store round-trip serving gates, plus the binning gate:
#            FeatureBinner::Extend equals a full Fit bit for bit), the
#            MinHash SIMD dispatch smoke (micro_hashing --simd-smoke: the
#            AVX2 tier bit-identical to its oracle + speed floors), a forced
#            EAFE_SIMD=scalar rerun of the simd-labeled ctest suite to
#            prove the fallback tier stays green, the golden search, forest
#            and booster digests under EAFE_SIMD=scalar (their pinned values
#            hold at every tier), and the pipelined-search smoke
#            (fig9_scalability --pipeline-smoke: --threads 1 and --threads
#            4 searches bit-identical on an n>=10k point, the pooled one
#            >= 1.8x faster on multi-core machines, one comparison after
#            >= 1.5 s of warm-up per side,
#            BENCH_pipeline.json line schema-checked)
#   asan     full ctest under AddressSanitizer in build-asan/
#   ubsan    full ctest under UndefinedBehaviorSanitizer in build-ubsan/
#   tsan     every test labeled `tsan` under ThreadSanitizer in build-tsan/
#   serve    end-to-end eafe_server gate in build-release/: train a
#            fixture model, start the server, eafe_loadgen --smoke
#            (bit-identity vs direct FlatPredictor), a load run that
#            snapshots QPS/p50/p99 into BENCH_serve.json, a forced
#            overload that must shed instead of stall, and
#            bench_schema_check over every BENCH_*.json
#   bench    the end-to-end benchmark's own correctness smoke in
#            build-bench/: builds eafe_e2e through e2ebench/hook.cmake
#            and runs its `bench`-labeled ctests (every workload at
#            smoke scale: repeated searches bit-identical, replayed CV
#            equal to TaskEvaluator::Score, served replies equal to
#            FlatPredictor; the trace recorder's unit tests); no timing
#            gates
#
# All suites configure with -DEAFE_WERROR=ON: the warning wall
# (-Wall -Wextra -Wshadow -Wconversion) is kept clean, so a new warning is
# a failure here and in CI, not background noise.
#
# Usage:
#   tools/check.sh                     # all suites
#   tools/check.sh --suite tsan       # one suite
#   tools/check.sh --label ml         # debug suite, ml-labeled tests only
#   tools/check.sh --no-tsan          # all suites except tsan
#
# Test selection is label-driven (see eafe_add_test in tests/CMakeLists.txt):
# the tsan suite discovers its targets from the `tsan` label instead of a
# hardcoded binary list, so newly labeled tests are picked up automatically.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
suites="lint debug release asan ubsan tsan serve bench"
suite="all"
label=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --suite)
      suite="$2"
      case " ${suites} all no-tsan " in
        *" ${suite} "*) ;;
        *)
          echo "unknown suite: '${suite}' (expected one of: ${suites}," \
               "all, no-tsan)" >&2
          exit 2 ;;
      esac
      shift 2 ;;
    --label|-L) label="$2"; shift 2 ;;
    --no-tsan) suite="no-tsan"; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

# ctest -L args for an exact label match (empty label selects everything).
label_args() {
  [[ -n "$1" ]] && printf -- "-L ^%s$" "$1"
}

# Test names carrying a label in a configured tree; names equal the
# executable targets eafe_add_test registers, so the list also drives
# which targets to build.
labeled_tests() {
  # ctest right-aligns test numbers ("Test  #4:" vs "Test #14:"), so the
  # whitespace between "Test" and "#" varies with the number width.
  ctest --test-dir "$1" -N -L "^$2$" 2>/dev/null |
    sed -n 's/^ *Test *#[0-9]*: //p'
}

run_lint() {
  echo "== lint: eafe_lint + header self-containment + clang-tidy (${root}/build) =="
  cmake -B "${root}/build" -S "${root}" -DEAFE_WERROR=ON >/dev/null
  # eafe_header_check is the self-containment gate: one generated TU per
  # src/**/*.h, compiled under the -Werror wall — a header that leans on
  # its includer's includes fails right here.
  cmake --build "${root}/build" -j "${jobs}" \
    --target eafe_lint eafe_lint_test bench_schema_check eafe_header_check
  # Direct run first for readable output; --format=github makes findings
  # annotate PR diffs inline when running inside GitHub Actions.
  lint_format="plain"
  [[ -n "${GITHUB_ACTIONS:-}" ]] && lint_format="github"
  "${root}/build/tools/eafe_lint" --root "${root}" --format="${lint_format}"
  ctest --test-dir "${root}/build" --output-on-failure --timeout 1800 \
    -L '^lint$'
}

run_debug() {
  echo "== debug: build + ctest (${root}/build) =="
  cmake -B "${root}/build" -S "${root}" -DEAFE_WERROR=ON >/dev/null
  cmake --build "${root}/build" -j "${jobs}"
  # shellcheck disable=SC2046
  ctest --test-dir "${root}/build" --output-on-failure --timeout 600 \
    -j "${jobs}" $(label_args "${label}")
}

run_release() {
  echo "== release: tree perf + serving round-trip smoke (${root}/build-release) =="
  # An explicit Release tree so the smoke gates measure optimized code even
  # when the default tree was configured with another build type. --smoke
  # covers histogram-vs-exact fits, shared-binner forests, the booster,
  # the save->load->flat-predict round trip (bit-identity + speed floor),
  # and the binning gate (Extend == Fit bit for bit; timings reported).
  cmake -B "${root}/build-release" -S "${root}" \
    -DCMAKE_BUILD_TYPE=Release -DEAFE_WERROR=ON >/dev/null
  cmake --build "${root}/build-release" -j "${jobs}" \
    --target micro_tree micro_hashing eafe_simd_test fig9_scalability \
             bench_schema_check eafe_search_pipeline_test eafe_ml_test
  "${root}/build-release/bench/micro_tree" --smoke
  # MinHash SIMD dispatch smoke: the signatures from the full-scan and
  # pruned argmins must be the same bits at both tiers, and the AVX2
  # variants must clear their speed floors (pruned CCWS >= 2x the full
  # scan, ICWS >= 1.2x). The MinHash argmins are the only kernels with an
  # AVX2 tier.
  # BENCH_simd.json snapshots micro_hashing's full --simd grid.
  "${root}/build-release/bench/micro_hashing" --simd-smoke
  # Forced-fallback rerun: the simd-labeled dispatch-equivalence tests
  # must stay green with every specialized tier disabled.
  EAFE_SIMD=scalar ctest --test-dir "${root}/build-release" \
    --output-on-failure --timeout 600 -L '^simd$'
  # The golden digests claim to hold at every SIMD tier; the simd-labeled
  # tests above check each kernel alone, these check whole searches and
  # forest and booster fits, so a caller that branches on the active tier
  # fails here.
  EAFE_SIMD=scalar "${root}/build-release/tests/eafe_search_pipeline_test" \
    --gtest_filter='*GoldenSearchDigest*'
  EAFE_SIMD=scalar "${root}/build-release/tests/eafe_ml_test" \
    --gtest_filter='GoldenDigestTest.*'
  # Pipelined-search smoke: a 10k-sample search at --threads 1 and at
  # --threads 4 must be bit-identical; on >=4-core machines the pooled
  # run must also be >= 1.8x faster (best of 3 after >= 1.5 s of warm-up
  # each, one comparison). The fresh BENCH_pipeline.json line must pass
  # the schema gate (serial_seconds/pooled_seconds/speedup keys).
  rm -f "${root}/BENCH_pipeline.json"
  "${root}/build-release/bench/fig9_scalability" --pipeline-smoke \
    --threads 4 --out "${root}/BENCH_pipeline.json"
  "${root}/build-release/tools/bench_schema_check" \
    "${root}/BENCH_pipeline.json"
}

run_asan() {
  echo "== asan: full ctest under AddressSanitizer (${root}/build-asan) =="
  cmake -B "${root}/build-asan" -S "${root}" \
    -DEAFE_SANITIZE=address \
    -DEAFE_WERROR=ON \
    -DEAFE_BUILD_BENCHMARKS=OFF \
    -DEAFE_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "${root}/build-asan" -j "${jobs}"
  # shellcheck disable=SC2046
  ctest --test-dir "${root}/build-asan" --output-on-failure --timeout 600 \
    -j "${jobs}" $(label_args "${label}")
}

run_ubsan() {
  echo "== ubsan: full ctest under UBSan (${root}/build-ubsan) =="
  cmake -B "${root}/build-ubsan" -S "${root}" \
    -DEAFE_SANITIZE=undefined \
    -DEAFE_WERROR=ON \
    -DEAFE_BUILD_BENCHMARKS=OFF \
    -DEAFE_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "${root}/build-ubsan" -j "${jobs}"
  # Recovery is compiled out (-fno-sanitize-recover=all), so any violation
  # aborts the test; print_stacktrace makes the abort actionable.
  # shellcheck disable=SC2046
  UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir "${root}/build-ubsan" --output-on-failure --timeout 600 \
    -j "${jobs}" $(label_args "${label}")
}

run_tsan() {
  echo "== tsan: tsan-labeled tests under ThreadSanitizer (${root}/build-tsan) =="
  cmake -B "${root}/build-tsan" -S "${root}" \
    -DEAFE_SANITIZE=thread \
    -DEAFE_WERROR=ON \
    -DEAFE_BUILD_BENCHMARKS=OFF \
    -DEAFE_BUILD_EXAMPLES=OFF >/dev/null
  local targets
  targets="$(labeled_tests "${root}/build-tsan" tsan)"
  if [[ -z "${targets}" ]]; then
    echo "no tests carry the tsan label" >&2
    exit 1
  fi
  # shellcheck disable=SC2086
  cmake --build "${root}/build-tsan" -j "${jobs}" --target ${targets}
  ctest --test-dir "${root}/build-tsan" --output-on-failure --timeout 600 \
    -j "${jobs}" -L '^tsan$'
}

# Launch an eafe_server in the background, wait for its port file, and
# record its pid for teardown. Usage: start_server <portfile> <args...>
serve_pids=""
start_server() {
  local portfile="$1"
  shift
  rm -f "${portfile}"
  "${root}/build-release/tools/eafe_server" --port-file "${portfile}" "$@" &
  serve_pids="${serve_pids} $!"
  for _ in $(seq 1 100); do
    [[ -s "${portfile}" ]] && return 0
    if ! kill -0 "${serve_pids##* }" 2>/dev/null; then
      echo "eafe_server exited before publishing its port" >&2
      return 1
    fi
    sleep 0.1
  done
  echo "eafe_server never published its port" >&2
  return 1
}

stop_servers() {
  local pid
  for pid in ${serve_pids}; do
    kill "${pid}" 2>/dev/null || true
    wait "${pid}" 2>/dev/null || true
  done
  serve_pids=""
}

run_serve() {
  echo "== serve: eafe_server end-to-end gate (${root}/build-release) =="
  cmake -B "${root}/build-release" -S "${root}" \
    -DCMAKE_BUILD_TYPE=Release -DEAFE_WERROR=ON >/dev/null
  cmake --build "${root}/build-release" -j "${jobs}" \
    --target eafe_cli eafe_server eafe_loadgen bench_schema_check

  local work
  work="$(mktemp -d "${TMPDIR:-/tmp}/eafe_serve.XXXXXX")"
  # The server must come down even when a gate in between fails — a
  # leaked daemon would wedge later CI steps on the same port/runner.
  trap 'stop_servers; rm -rf "${work}"' EXIT

  # Fixture: the deterministic classification table the configure step
  # writes for the CLI tests, trained through the same CLI users run.
  "${root}/build-release/tools/eafe" save-model \
    --data "${root}/build-release/tests/cli_fixture.csv" --label y \
    --task classification --out "${work}/model.eafe"

  # Gate 1: smoke — handshake, model listing, metrics exposition, and
  # bit-identical single-row predictions vs a direct FlatPredictor.
  start_server "${work}/server.port" --model-file "${work}/model.eafe"
  "${root}/build-release/tools/eafe_loadgen" \
    --port-file "${work}/server.port" --model-file "${work}/model.eafe" \
    --smoke

  # Gate 2: load run — snapshots QPS/p50/p99 into BENCH_serve.json at
  # the repo root, where the schema gate and CI artifact upload find it.
  rm -f "${root}/BENCH_serve.json"
  "${root}/build-release/tools/eafe_loadgen" \
    --port-file "${work}/server.port" --model-file "${work}/model.eafe" \
    --connections 8 --requests 200 --out "${root}/BENCH_serve.json"
  stop_servers

  # Gate 3: forced overload — a one-deep queue behind a deliberately
  # slow executor must shed with a retry hint, never stall the burst.
  start_server "${work}/overload.port" --model-file "${work}/model.eafe" \
    --queue-limit 1 --debug-batch-sleep-ms 40
  "${root}/build-release/tools/eafe_loadgen" \
    --port-file "${work}/overload.port" --model-file "${work}/model.eafe" \
    --requests 64 --expect-shed
  stop_servers

  # Gate 4: every committed snapshot plus the fresh serve line must
  # satisfy the bench schema.
  "${root}/build-release/tools/bench_schema_check" "${root}"/BENCH_*.json

  trap - EXIT
  rm -rf "${work}"
}

run_bench() {
  echo "== bench: end-to-end benchmark smoke (${root}/build-bench) =="
  # The benchmark's targets come in through its CMake hook, which adds
  # e2ebench/targets.cmake after the root CMakeLists.txt; no repo build
  # file names them.
  cmake -B "${root}/build-bench" -S "${root}" \
    -DCMAKE_BUILD_TYPE=Release -DEAFE_WERROR=ON \
    -DCMAKE_PROJECT_INCLUDE="${root}/e2ebench/hook.cmake" >/dev/null
  cmake --build "${root}/build-bench" -j "${jobs}" \
    --target eafe_e2e eafe_e2e_trace_test
  ctest --test-dir "${root}/build-bench" --output-on-failure --timeout 600 \
    -L '^bench$'
}

case "${suite}" in
  lint) run_lint ;;
  debug) run_debug ;;
  release) run_release ;;
  asan) run_asan ;;
  ubsan) run_ubsan ;;
  tsan) run_tsan ;;
  serve) run_serve ;;
  bench) run_bench ;;
  no-tsan)
    run_lint; run_debug; run_release; run_asan; run_ubsan; run_serve
    run_bench ;;
  all)
    run_lint; run_debug; run_release; run_asan; run_ubsan; run_tsan
    run_serve; run_bench ;;
esac

echo "== check.sh: OK =="
