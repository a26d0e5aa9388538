//===- bench_checks.cpp - Cost of always-on post-transform checks -----------===//
//
// The environment validates every applied action through
// transforms/PostTransformChecks. This bench measures the two check
// entry points in isolation: the per-step candidate gate the
// environment runs on every action, and the full-state form tests and
// the fuzz harness run. Numbers feed the DESIGN note in PERF.md.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "transforms/Apply.h"
#include "transforms/PostTransformChecks.h"
#include "transforms/ScheduleState.h"

#include <benchmark/benchmark.h>

using namespace mlirrl;

namespace {

/// A module with a fusable chain so fusion/tiling/interchange all fire.
Module chainModule() {
  Module M("bench_checks");
  Builder B(M);
  std::string X = B.declareInput({128, 256});
  std::string W = B.declareInput({256, 64});
  B.relu(B.matmul(X, W));
  return M;
}

/// The per-step gate on its own: validate one candidate schedule.
void BM_CheckCandidateAction(benchmark::State &State) {
  Module M = chainModule();
  OpSchedule Sched;
  Sched.Transforms = {Transformation::tiledParallelization({16, 0, 0}),
                      Transformation::interchange({1, 0, 2}),
                      Transformation::tiling({4, 4, 8}),
                      Transformation::vectorization()};
  std::string Err;
  for (auto _ : State) {
    bool Ok = checkCandidateAction(M, 0, Sched, Err);
    benchmark::DoNotOptimize(Ok);
  }
}

/// The full-state form tests and the fuzz harness run.
void BM_VerifyScheduleState(benchmark::State &State) {
  Module M = chainModule();
  ScheduleState SS(M);
  SS.apply(1, Transformation::tiledFusion({8, 0}), 0);
  SS.apply(1, Transformation::vectorization());
  materializeModule(M, SS.getSchedule());
  std::string Err;
  for (auto _ : State) {
    bool Ok = verifyScheduleState(SS, Err);
    benchmark::DoNotOptimize(Ok);
  }
}

} // namespace

BENCHMARK(BM_CheckCandidateAction)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VerifyScheduleState)->Unit(benchmark::kMicrosecond);
BENCHMARK_MAIN();
