//===- EpisodeSweepTest.cpp - Parameterized episode invariants ---------------===//
//
// Episode-level invariants swept over configurations and seeds: every
// combination of interchange mode, reward mode and action space must
// produce terminating episodes whose assembled schedules replay to the
// reported speedup, with masks respected throughout.
//
//===----------------------------------------------------------------------===//

#include "baselines/RandomSearch.h"
#include "datasets/Sequences.h"
#include "env/Environment.h"
#include "perf/Runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

using namespace mlirrl;

namespace {

using ConfigPoint = std::tuple<int /*interchange*/, int /*reward*/,
                               int /*space*/, uint64_t /*seed*/>;

class ConfigSweep : public ::testing::TestWithParam<ConfigPoint> {
protected:
  EnvConfig makeConfig() const {
    auto [Inter, Reward, Space, Seed] = GetParam();
    (void)Seed;
    EnvConfig C = EnvConfig::laptop();
    C.Interchange = static_cast<InterchangeMode>(Inter);
    C.Reward = static_cast<RewardMode>(Reward);
    C.ActionSpace = static_cast<ActionSpaceMode>(Space);
    return C;
  }
  uint64_t seed() const { return std::get<3>(GetParam()); }
};

} // namespace

TEST_P(ConfigSweep, RandomEpisodesTerminateWithConsistentRewards) {
  EnvConfig Config = makeConfig();
  Runner Run(MachineModel::xeonE5_2680v4());
  Rng R(seed());
  Module M = generateOperatorSequence(R);

  // Drive the episode with random masked actions via randomSearch's
  // machinery (one episode).
  RandomSearchResult Result =
      randomSearch(RolloutEngine(Config, Run), M, 1, seed());
  EXPECT_GT(Result.Speedup, 0.0);
  EXPECT_NEAR(Run.speedup(M, Result.Schedule), Result.Speedup, 1e-9);
}

TEST_P(ConfigSweep, RewardsSumToLogSpeedup) {
  // In both reward modes the summed rewards of an episode equal the
  // final log-speedup (terminal in Final mode; telescoping in
  // Immediate mode).
  EnvConfig Config = makeConfig();
  if (Config.ActionSpace == ActionSpaceMode::Flat)
    GTEST_SKIP() << "covered by the multi-discrete points";
  Runner Run(MachineModel::xeonE5_2680v4());
  Rng R(seed() ^ 0x77);
  Module M = generateOperatorSequence(R);

  Environment Env(Config, Run, M);
  Rng ActionRng(seed());
  double Total = 0.0;
  unsigned Guard = 0;
  while (!Env.isDone()) {
    ASSERT_LT(++Guard, 500u);
    // Reuse the random-search action sampler indirectly: step with
    // NoTransformation interleaved with one tiling, keeping it simple
    // and mask-legal.
    AgentAction A;
    if (ActionRng.nextBernoulli(0.5) &&
        Env.observe().TransformMask[static_cast<unsigned>(
            TransformKind::TiledParallelization)] > 0) {
      A.Kind = TransformKind::TiledParallelization;
      A.TileSizeIdx.assign(Config.MaxLoops, 3);
    } else if (Env.observe().InPointerSequence) {
      A.Kind = TransformKind::Interchange;
      A.PointerChoice = static_cast<unsigned>(
          ActionRng.sampleWeighted(Env.observe().InterchangeMask));
    } else {
      A.Kind = TransformKind::NoTransformation;
    }
    Total += Env.step(A).Reward;
  }
  EXPECT_NEAR(Total, std::log(Env.currentSpeedup()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ConfigSweep,
    ::testing::Combine(::testing::Values(0, 1), // interchange mode
                       ::testing::Values(0, 1), // reward mode
                       ::testing::Values(0, 1), // action space
                       ::testing::Values(3u, 17u)));
