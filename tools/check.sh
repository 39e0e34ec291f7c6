#!/usr/bin/env bash
# Sanitizer gate: configures a dedicated build tree with ASan+UBSan, builds
# everything, and runs the full test suite under instrumentation. The TSan
# variant for the parallel evaluation engine is one flag away:
#
#   tools/check.sh              # address,undefined (default)
#   tools/check.sh thread       # ThreadSanitizer
#
# The build tree defaults to build-sanitize-<config> next to the sources;
# set CSTUNER_BUILD_DIR to put it elsewhere (CI uses this to share the
# ccache-warmed tree between steps).
#
# Configure/build failures abort immediately (nothing later can run).
# The test and fault-storm stages both run even if one fails, and every
# stage's exit code is accumulated into the final status, so one red stage
# cannot mask another.
set -uo pipefail

SANITIZE="${1:-address,undefined}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${CSTUNER_BUILD_DIR:-${ROOT}/build-sanitize-${SANITIZE//,/+}}"

status=0
failed=()

# run_stage <name> <command...>: runs the command, records a failure in
# $status/$failed, and returns the command's exit code so callers can still
# abort on stages that later stages depend on.
run_stage() {
  local name="$1"
  shift
  echo "== ${name}"
  "$@"
  local rc=$?
  if [[ ${rc} -ne 0 ]]; then
    echo "== ${name}: FAILED (exit ${rc})" >&2
    status=1
    failed+=("${name}")
  else
    echo "== ${name}: ok"
  fi
  return "${rc}"
}

run_stage "configure(${SANITIZE})" cmake -B "${BUILD}" -S "${ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCSTUNER_SANITIZE="${SANITIZE}" || exit 1
run_stage "build" cmake --build "${BUILD}" -j "$(nproc)" || exit 1

# halt_on_error makes a sanitizer finding fail the ctest run instead of
# scrolling past; detect_leaks stays on for the ASan configuration.
export ASAN_OPTIONS="halt_on_error=1:strict_string_checks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1"

run_stage "tests" ctest --test-dir "${BUILD}" --output-on-failure \
  -j "$(nproc)" || true

# Fault-storm gate: the end-to-end tune must converge and exit cleanly while
# a fifth of all evaluations are failing (docs/fault-tolerance.md), still
# under the sanitizers — retry/backoff, quarantine and the failure-stats
# reporting all run hot on this path.
fault_storm() {
  CSTUNER_FAULT_RATE=0.2 "${BUILD}/tools/cstuner" tune j3d7pt \
    --budget 20 --universe 2000 --json > /dev/null
}
run_stage "fault-storm(CSTUNER_FAULT_RATE=0.2)" fault_storm || true

# Rank-kill chaos gate (docs/fault-tolerance.md, "Distributed failures"):
# first the deterministic recovery suites — recoverable minimpi, GA ring
# healing/elite adoption, kill-plan scheduling, survival acceptance — under
# the sanitizers and a 20% eval-fault rate, then an end-to-end 4-island
# tune that loses an island at generation 2 while evaluations are failing.
chaos_tests() {
  CSTUNER_FAULT_RATE=0.2 ctest --test-dir "${BUILD}" --output-on-failure \
    -j "$(nproc)" \
    -R 'MiniMpiRecoverable|IslandGaSurvival|SurvivalFixture|FaultInjector\.KillPlan|cli_tune_kill'
}
run_stage "chaos-tests(rank-kill/ring-heal)" chaos_tests || true

# Concurrency-repeat gate (docs/threading.md): the suites that drive one
# Evaluator, one thread pool or one minimpi context from several threads
# at once — concurrent overlapping batches, worker-count determinism, rank
# deaths, island GA migration, survival acceptance — rerun until one fails
# (at most 20 times each), so an interleaving-dependent race has twenty
# chances to show instead of one.
concurrency_repeat() {
  ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)" \
    -R 'EvaluatorBatch|ParallelEval|MiniMpi|IslandGa|SurvivalFixture' \
    --repeat until-fail:20
}
run_stage "concurrency-repeat(until-fail:20)" concurrency_repeat || true

# Serve recovery gate (docs/serving.md): the daemon's concurrent session
# scheduling, drain/park/re-adopt resume and deadline isolation run under
# the sanitizers (the TSan configuration is the interesting one — sessions
# are real threads sharing the admission controller and warm store), then
# the cross-process smoke kills a live daemon and diffs the recovered
# results byte for byte.
serve_tests() {
  ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)" \
    -R 'SessionManagerTest|Admission\.|WarmStoreTest|cli_serve_smoke'
}
run_stage "serve-tests(kill/recover/overload)" serve_tests || true

# Optimizer-zoo gate (docs/optimizers.md): the pluggable-searcher suite —
# worker determinism, regression pins against the pre-refactor searchers,
# journal-replay resume, tournament byte-stability, the zoo CLI paths —
# under the sanitizers while a fifth of all evaluations are failing.
optimizer_suite() {
  CSTUNER_FAULT_RATE=0.2 ctest --test-dir "${BUILD}" --output-on-failure \
    -j "$(nproc)" \
    -R 'Registry\.|ZooFixture|Tournament\.|MetaTuner\.|ResumeTest|cli_tune_optimizer|cli_tournament'
}
run_stage "optimizer-suite(zoo under fault storm)" optimizer_suite || true

rank_kill_storm() {
  CSTUNER_FAULT_RATE=0.2 "${BUILD}/tools/cstuner" tune j3d7pt \
    --universe 8000 --islands 4 --kill-rank 1@2 --min-islands 1 \
    --json > /dev/null
}
run_stage "rank-kill-storm(--kill-rank 1@2)" rank_kill_storm || true

# I/O-chaos gate (docs/durability.md): the Vfs fault layer, the protocol
# fuzzer's 10k-frame storm and the crash-consistency sweep — power cuts
# after every k-th Vfs operation of a tune and a serve run, restart,
# recover, assert bit-identical resume / clean re-adoption — all under the
# sanitizers, where a torn-state bug shows up as a concrete read of freed
# or uninitialized memory instead of silent corruption.
io_chaos_tests() {
  ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)" \
    -R 'FaultVfs|RealVfs|ParentDir|CheckpointOnFaultVfs|ServeFuzzFixture|crash_sweep_smoke'
}
run_stage "io-chaos(fault-vfs/fuzzer/crash-sweep)" io_chaos_tests || true

io_chaos_sweep() {
  "${BUILD}/tools/crash_sweep" --mode all --stride 7 --budget 0.5 \
    --universe 200 --json > /dev/null
}
run_stage "io-chaos-sweep(--stride 7)" io_chaos_sweep || true

if [[ ${status} -ne 0 ]]; then
  echo "sanitize(${SANITIZE}): FAILED stages: ${failed[*]}" >&2
else
  echo "sanitize(${SANITIZE}): all stages clean"
fi
exit "${status}"
