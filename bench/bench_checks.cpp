//===- bench_checks.cpp - Cost of always-on post-transform checks -----------===//
//
// PR 6 makes the environment validate every applied action through
// transforms/PostTransformChecks (EnvConfig::PostTransformChecks, on by
// default). This bench measures what that buys us in per-step and
// per-episode time: identical scripted random episodes with the checks
// on vs off, plus the two check entry points in isolation. Numbers feed
// the DESIGN note in PERF.md.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "env/Environment.h"
#include "ir/Builder.h"
#include "perf/Runner.h"
#include "transforms/PostTransformChecks.h"

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

/// An in-range random action: every field valid for \p Config, so steps
/// mostly apply and the per-step check actually runs (out-of-range
/// actions would be rejected before the check and measure nothing).
AgentAction validRandomAction(Rng &R, const EnvConfig &Config) {
  AgentAction A;
  A.Kind = static_cast<TransformKind>(R.nextBounded(NumTransformKinds));
  A.TileSizeIdx.resize(Config.MaxLoops);
  for (unsigned &Idx : A.TileSizeIdx)
    Idx = static_cast<unsigned>(R.nextBounded(Config.TileCandidates.size()));
  A.EnumeratedChoice =
      static_cast<unsigned>(R.nextBounded(3 * Config.MaxLoops + 1));
  A.PointerChoice = static_cast<unsigned>(R.nextBounded(Config.MaxLoops));
  A.FlatChoice = static_cast<unsigned>(R.nextBounded(64));
  return A;
}

/// Runs scripted random episodes and reports per-step time. The action
/// stream depends only on the seed, so the checked and unchecked
/// variants replay bitwise-identical episodes.
void episodeBench(benchmark::State &State, bool Checks) {
  Module M = chainModule();
  Runner Eval(MachineModel::xeonE5_2680v4());
  EnvConfig Config = EnvConfig::laptop();
  Config.PostTransformChecks = Checks;
  uint64_t Steps = 0;
  for (auto _ : State) {
    Rng R(4242);
    Environment Env(Config, Eval, M);
    unsigned Guard = 0;
    while (!Env.isDone() && ++Guard < 4000) {
      Environment::StepOutcome Out = Env.step(validRandomAction(R, Config));
      benchmark::DoNotOptimize(Out.Reward);
      ++Steps;
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(Steps));
}

void BM_EpisodeChecked(benchmark::State &State) {
  episodeBench(State, /*Checks=*/true);
}

void BM_EpisodeUnchecked(benchmark::State &State) {
  episodeBench(State, /*Checks=*/false);
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
  SS.materializeAll();
  std::string Err;
  for (auto _ : State) {
    bool Ok = verifyScheduleState(SS, Err);
    benchmark::DoNotOptimize(Ok);
  }
}

/// One full PPO training iteration on the fixed operator dataset with
/// the checks on (Arg 1, the default) vs off (Arg 0): the end-to-end
/// number, where policy inference and pricing dwarf the per-step gate.
void BM_TrainIterationChecks(benchmark::State &State) {
  MlirRlOptions Options = bench::standardOptions(/*Iterations=*/0);
  Options.Env.PostTransformChecks = State.range(0) != 0;
  MlirRl Sys(Options);
  std::vector<Module> Data = bench::operatorTrainingSet();
  Sys.trainer().trainIteration(Data);
  bench::resetCacheStats();
  for (auto _ : State) {
    PpoIterationStats Stats = Sys.trainer().trainIteration(Data);
    benchmark::DoNotOptimize(Stats.MeanEpisodeReward);
  }
}

} // namespace

BENCHMARK(BM_EpisodeChecked)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_EpisodeUnchecked)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_CheckCandidateAction)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VerifyScheduleState)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TrainIterationChecks)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_MAIN();
