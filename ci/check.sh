#!/usr/bin/env bash
# Full verification pipeline — everything a PR must survive, in order:
#
#   1. -Werror configure + build (RelWithDebInfo preset)
#   2. full test suite under ASan+UBSan (Debug, CCVC_DCHECK live);
#      the python-only `sa` label runs once, in step 11
#   3. clang-tidy over src/            (skipped if the tool is absent)
#      + gcc -fanalyzer report         (informational, never fails)
#   4. cppcheck over src/              (skipped if the tool is absent)
#   5. tools/ccvc_lint.py protocol lint (per-rule selftests run under
#      the `lint` ctest label in step 2)
#   6. fuzzer smoke runs (seed corpus + 20k mutations, sanitized build)
#   7. chaos property suite under ASan+UBSan (fault injection + recovery)
#   8. bench pipeline smoke: bench_main → bench_report.py (schema
#      round-trip) + validation of the committed BENCH_results.json
#      and of the committed perf history BENCH_trajectory.json
#   9. bounded model checking: ccvc_mc exhaustive sweep + §6 ablation +
#      formula-mutation self-validation, plus the `model` ctest label
#  10. wire-schema gate: ccvc_schema --check (docs/schema.json,
#      PROTOCOL.md table, fuzz dictionaries, boundary round-trips)
#      plus the `schema` ctest label (golden bytes, bound rejects,
#      negative compiles, --check mutation test)
#  11. cross-TU dataflow gate, the `sa` ctest label: tools/ccvc_sa
#      --check with all seven checkers (wire-taint,
#      exception-discipline, single-writer, atomics-order,
#      hot-path-budget, blocking-graph, liveness-discipline; generated
#      docs ATOMICS.md / HOTPATH.md / BLOCKING.md byte-gated), the
#      tools/sa_mutation.sh corpus, and the tests/sa/ fixture selftest
#  12. failover under ThreadSanitizer: the hot-standby replication,
#      fail-stop, and promotion paths (engine failover tests, the
#      chaos failover/backpressure sweeps, and the scripted failover
#      scenario) rebuilt and re-run with -fsanitize=thread
#  13. threaded runtime under ThreadSanitizer: the pipelined notifier
#      (src/runtime/) — MPSC rings, batch assembly, drain protocol —
#      re-run with -fsanitize=thread: the sim-equivalence suite
#      (byte-identical snapshots vs the deterministic backend across
#      seeds and N) plus the closed-loop chaos sweep on real threads
#
# Any finding exits non-zero.  Optional tools that are not installed are
# reported as SKIPPED, not failed, so the pipeline works on GCC-only
# images; install clang-tidy/cppcheck to widen coverage.
#
# Usage: ci/check.sh [-jN]

set -u -o pipefail

cd "$(dirname "$0")/.."
JOBS="${1:--j$(nproc)}"
FAILURES=0

step() {
  printf '\n=== %s ===\n' "$1"
}

fail() {
  printf 'FAILED: %s\n' "$1"
  FAILURES=$((FAILURES + 1))
}

step "1/13 configure + build, -Werror (relwithdebinfo)"
cmake --preset relwithdebinfo >/dev/null &&
  cmake --build --preset relwithdebinfo "$JOBS" ||
  fail "-Werror build"

step "2/13 full suite under ASan+UBSan (Debug; DCHECK contracts live)"
cmake --preset asan-ubsan >/dev/null &&
  cmake --build --preset asan-ubsan "$JOBS" &&
  ctest --preset asan-ubsan "$JOBS" -LE "fuzz_smoke|chaos|model|sa" ||
  fail "asan-ubsan test suite"

step "3/13 clang-tidy (+ gcc -fanalyzer, informational)"
if command -v clang-tidy >/dev/null 2>&1; then
  cmake --build build-relwithdebinfo --target tidy || fail "clang-tidy"
else
  echo "SKIPPED: clang-tidy not installed"
fi
# gcc -fanalyzer is experimental for C++ (GCC 12): log its findings so
# they are visible in CI output, but never fail the pipeline on them.
# (grep reads to EOF rather than -q's early exit: under pipefail an
# early exit SIGPIPEs cmake and fails the pipeline on a *match*.)
if cmake --build build-relwithdebinfo --target help 2>/dev/null |
    grep '^\.\.\. fanalyzer' >/dev/null; then
  cmake --build build-relwithdebinfo --target fanalyzer 2>&1 | tail -n 60 ||
    echo "NOTE: gcc -fanalyzer reported findings (informational only)"
else
  echo "SKIPPED: gcc -fanalyzer target unavailable (needs GCC >= 12)"
fi

step "4/13 cppcheck"
if command -v cppcheck >/dev/null 2>&1; then
  cmake --build build-relwithdebinfo --target cppcheck || fail "cppcheck"
else
  echo "SKIPPED: cppcheck not installed"
fi

step "5/13 protocol lint (tools/ccvc_lint.py)"
python3 tools/ccvc_lint.py --root "$PWD" --compiler "${CXX:-c++}" ||
  fail "ccvc_lint"

step "6/13 fuzz smoke (sanitized, seed corpus + 20k runs each)"
ctest --preset asan-ubsan -L fuzz_smoke || fail "fuzz smoke"

step "7/13 chaos property suite (sanitized fault injection + recovery)"
ctest --preset asan-ubsan "$JOBS" -L chaos || fail "chaos suite"

step "8/13 bench pipeline smoke + BENCH_results.json schema check"
cmake --build build-relwithdebinfo "$JOBS" --target bench_main >/dev/null &&
  python3 tools/bench_report.py --build-dir build-relwithdebinfo \
    --mode smoke --output "$(mktemp -t bench_smoke.XXXXXX.json)" &&
  python3 tools/bench_report.py --check BENCH_results.json &&
  python3 tools/bench_report.py --check-trajectory BENCH_trajectory.json ||
  fail "bench pipeline"

step "9/13 bounded model checking (ccvc_mc + model-label tests)"
cmake --build build-relwithdebinfo "$JOBS" --target ccvc_mc model_tests \
    >/dev/null &&
  ./build-relwithdebinfo/src/analysis/ccvc_mc all &&
  ctest --test-dir build-relwithdebinfo "$JOBS" -L model ||
  fail "model checking"

step "10/13 wire-schema gate (ccvc_schema --check + schema-label tests)"
cmake --build build-relwithdebinfo "$JOBS" --target ccvc_schema wire_tests \
    >/dev/null &&
  ./build-relwithdebinfo/src/analysis/ccvc_schema --check --root "$PWD" &&
  ctest --test-dir build-relwithdebinfo "$JOBS" -L schema ||
  fail "wire-schema gate"

step "11/13 cross-TU dataflow gate (ccvc_sa, mutation corpus, selftest)"
ctest --test-dir build-relwithdebinfo "$JOBS" -L sa || fail "ccvc_sa gate"

step "12/13 failover under TSan (hot-standby promotion + chaos sweep)"
cmake --preset tsan >/dev/null &&
  cmake --build --preset tsan "$JOBS" \
    --target engine_tests chaos_tests scenario_player >/dev/null &&
  ctest --test-dir build-tsan "$JOBS" \
    -R "Failover|HotStandby|scenario_chaos_failover" ||
  fail "tsan failover"

step "13/13 threaded runtime under TSan (equivalence + chaos sweep)"
cmake --build --preset tsan "$JOBS" --target runtime_tests >/dev/null &&
  ctest --test-dir build-tsan "$JOBS" -L runtime ||
  fail "tsan threaded runtime"

printf '\n'
if [ "$FAILURES" -ne 0 ]; then
  printf '%d step(s) FAILED\n' "$FAILURES"
  exit 1
fi
echo "all checks passed"
