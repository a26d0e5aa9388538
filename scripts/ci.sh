#!/usr/bin/env bash
# Tier-1 verification: lint, configure, build, run the test suite, and
# guard against build artifacts ever being committed again (PR 1
# accidentally committed the CMake cache and object files).
#
#   scripts/ci.sh                    # the regular tier-1 gate
#   scripts/ci.sh --sanitize=address # + ASan/UBSan tree in build-san/
#                                    #   (full suite, fuzz, smokes)
#   scripts/ci.sh --sanitize=thread  # + TSan tree in build-tsan/
#                                    #   (concurrency-heavy subset + race
#                                    #   stress, bounded runtime)
#   scripts/ci.sh --sanitize        # alias for --sanitize=address
set -euo pipefail

cd "$(dirname "$0")/.."

sanitize=""
case "${1:-}" in
  --sanitize|--sanitize=address)
    sanitize=address
    shift
    ;;
  --sanitize=thread)
    sanitize=thread
    shift
    ;;
  --sanitize=*)
    echo "error: unknown sanitize mode '${1#--sanitize=}'" \
         "(address or thread)" >&2
    exit 2
    ;;
esac

# --- Repo-invariant lint (always, before any build) -----------------------
# Pure-Python source checks (tools/lint/lint.py): raw numeric parses,
# fatal errors in recoverable paths, unordered containers in
# determinism-critical dirs, naked mutex locks, raw RNG, duplicate
# cache-counter categories. Self-test first so a broken linter can
# never silently pass the tree.
python3 tools/lint/lint.py --self-test
python3 tools/lint/lint.py

# --- Guard: no build artifacts in the index -------------------------------
if git ls-files | grep -E '^build/|\.o$' >/dev/null; then
  echo "error: build artifacts are tracked by git:" >&2
  git ls-files | grep -E '^build/|\.o$' | head >&2
  echo "(add them to .gitignore and 'git rm --cached' them)" >&2
  exit 1
fi

# --- Tier-1 verify --------------------------------------------------------
cmake -B build -S .
cmake --build build -j "$(nproc)"

# --- Static analysis (best-effort) ----------------------------------------
# The curated .clang-tidy check set over the library sources, replaying
# the exact compile lines from the exported compile_commands.json.
# Skipped with a notice when clang-tidy is not installed (the container
# ships only GCC); the repo linter above always runs.
if command -v clang-tidy >/dev/null 2>&1; then
  mapfile -t tidy_sources < <(git ls-files 'src/*.cpp')
  clang-tidy -p build --quiet "${tidy_sources[@]}"
else
  echo "note: clang-tidy not installed; skipping static-analysis pass"
fi

# --- Test-suite run + temp-dir hygiene guard ------------------------------
# Checkpoint/serialization tests create scratch files; they must stay
# under build/ (the ctest working directory). Snapshot the working tree
# before the suite and fail if anything outside build/ changed -- a
# leaked temp file would otherwise dirty every contributor checkout
# silently. --ignored=matching keeps gitignored leaks visible too
# (*.ckpt and quickstart-ckpt/ are ignored precisely because they are
# expected OUTSIDE the repo tree; build/ and bench JSON are the only
# sanctioned ignored outputs).
snapshot_tree() {
  git status --porcelain --ignored=matching | grep -vE '^!! (build|build-san|build-tsan)/|^!! BENCH_' || true
}
tree_before=$(snapshot_tree)
(cd build && ctest --output-on-failure --repeat until-pass:1 -j "$(nproc)")
tree_after=$(snapshot_tree)
if [[ "$tree_before" != "$tree_after" ]]; then
  echo "error: the test suite wrote outside build/:" >&2
  diff <(printf '%s\n' "$tree_before") <(printf '%s\n' "$tree_after") >&2 || true
  exit 1
fi

# (The incremental fast path has no smoke of its own: the ctest suite
# above runs IncrementalEquivalenceTest, which checks its prices and
# features against the from-scratch references and its memo and
# price-reuse traffic. Nor does GEMM: the call shape alone decides
# streaming vs packed, and GemmTest checks both drivers and the pack
# arena in the suite above and, under ASan/UBSan, in the
# --sanitize=address pass.)

# --- Striped-memo smoke check ---------------------------------------------
# The memo micro-bench in smoke mode: hammers the lock-striped shared
# memo from 4 threads at 1 shard (the global-lock baseline) and 16
# shards, asserting deterministic values, exact
# hits+misses+duplicates accounting, the capacity bound, and -- when the
# global lock actually contended -- that striping reduced contended
# acquisitions.
./build/example_memo_smoke

# --- Fuzz smoke -----------------------------------------------------------
# The deterministic fuzz engine at CI scale: 10k seed-derived parser
# inputs through the import gate plus 200 random-action episodes, zero
# tolerated violations. Each input is persisted to
# tests/fuzz/corpus/.inflight.mlir before it runs; a hard crash leaves
# it behind, and we promote it to a checked-in crash case so the next
# FuzzTest.CorpusReplays run covers it forever.
fuzz_corpus=tests/fuzz/corpus
if ! ./build/example_fuzz_smoke --inputs 10000 --episodes 200 \
      --corpus "$fuzz_corpus"; then
  if [[ -f "$fuzz_corpus/.inflight.mlir" ]]; then
    crash="$fuzz_corpus/crash-$(date +%Y%m%d%H%M%S).mlir"
    mv "$fuzz_corpus/.inflight.mlir" "$crash"
    echo "error: fuzz smoke died; offending input saved to $crash" >&2
  fi
  exit 1
fi

# --- Serving smoke --------------------------------------------------------
# The schedule server end to end: train one tiny iteration, freeze it
# to a checkpoint, load it into a ScheduleServer, and serve a request
# mix covering every guarded edge -- well-formed modules, a malformed
# module (import-gate rejection), concurrent clients (answers must be
# bitwise-identical to sequential serving), and an over-capacity burst
# (clean immediate rejection, never a hang). Scratch checkpoint lives
# under build/ and is removed on exit.
./build/example_serve_smoke --requests 8 --ckpt build/serve_smoke.ckpt

# --- ASan/UBSan pass (opt-in: --sanitize[=address]) -----------------------
# A second tree under ASan+UBSan: the whole test suite plus a reduced
# fuzz campaign, halt-on-error. Kept out of the default gate because the
# instrumented build roughly doubles CI time.
if [[ "$sanitize" == address ]]; then
  cmake -B build-san -S . -DMLIRRL_SANITIZE="address;undefined" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-san -j "$(nproc)"
  (cd build-san &&
     ASAN_OPTIONS=abort_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
     ctest --output-on-failure -j "$(nproc)")
  ASAN_OPTIONS=abort_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
    ./build-san/example_fuzz_smoke --inputs 2000 --episodes 50 \
    --corpus "$fuzz_corpus"
  # (The SIMD micro-kernels, both GEMM drivers and the pack arena run
  # under ASan+UBSan in GemmTest, and the incremental fast path in
  # IncrementalEquivalenceTest, both part of the suite above: a vector
  # lane read out of bounds or a panel overrun past the padded row
  # stride is an immediate report, and LeakSanitizer fails the test
  # binary if a pack-scratch allocation outlives its thread's arena.)
  # The serving path under the sanitizers (reduced request count): the
  # worker thread, promise/future handoff, and checkpoint reload are
  # the lifetime-heavy code in this tree.
  ASAN_OPTIONS=abort_on_error=1 UBSAN_OPTIONS=halt_on_error=1 \
    ./build-san/example_serve_smoke --requests 4 \
    --ckpt build-san/serve_smoke.ckpt
fi

# --- TSan pass (opt-in: --sanitize=thread) --------------------------------
# A third tree under ThreadSanitizer, restricted to the
# concurrency-heavy subset: the striped-memo and cost-cache tests, the
# full serving suite (including the reload and three-way race hammers),
# the determinism matrix (thread-count sweeps), and the dedicated TSan
# stress test. halt_on_error=1 turns the first report into a failure;
# there is no suppression file -- the repo's benign sharing is already
# expressed as relaxed atomics, so every report is treated as a real
# bug. TSan costs roughly an order of magnitude at runtime, which is
# why this is a subset (the tests themselves also shrink iteration
# counts via support/TsanAnnotations.h) and why the whole pass runs
# under one ctest timeout per test instead of an open-ended suite.
if [[ "$sanitize" == thread ]]; then
  cmake -B build-tsan -S . -DMLIRRL_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$(nproc)"
  tsan_subset='support/TsanStressTest|support/StatsTest|perf/StripedLruTest|perf/CostCacheTest|serve/ServeTest|serve/ServeReloadTest|serve/ServeRaceTest|rl/DeterminismMatrixTest|rl/ParallelDeterminismTest'
  (cd build-tsan &&
     TSAN_OPTIONS=halt_on_error=1 \
     ctest --output-on-failure --timeout 900 -j "$(nproc)" \
           -R "$tsan_subset")
  # The two concurrency smokes in reduced form: the striped memo from
  # many threads and the server worker pool end to end.
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/example_memo_smoke
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/example_serve_smoke --requests 4 \
    --ckpt build-tsan/serve_smoke.ckpt
fi
