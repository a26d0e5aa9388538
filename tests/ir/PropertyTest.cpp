//===- PropertyTest.cpp - Parameterized property sweeps ---------------------===//
//
// Property-style invariants swept across seeds with parameterized gtest:
//  * every module any generator produces verifies and round-trips
//    through the textual format;
//  * random legal schedules preserve total work (no fusion) and produce
//    nests the cost model prices positively;
//  * random episodes always terminate with a replayable schedule.
//
//===----------------------------------------------------------------------===//

#include "baselines/RandomSearch.h"
#include "datasets/Dataset.h"
#include "datasets/Models.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "perf/CostModel.h"
#include "perf/Runner.h"
#include "transforms/Apply.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace mlirrl;

namespace {

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

std::vector<Module> modulesForSeed(uint64_t Seed) {
  Rng R(Seed);
  std::vector<Module> Out;
  Out.push_back(generateOperatorSequence(R));
  Out.push_back(generateLqcdKernel(R, 12));
  DnnDatasetCounts Tiny;
  Tiny.Matmul = Tiny.Conv2d = Tiny.Maxpool = Tiny.Add = Tiny.Relu = 1;
  for (Module &M : generateDnnOperatorDataset(R, Tiny))
    Out.push_back(std::move(M));
  return Out;
}

} // namespace

TEST_P(SeedSweep, GeneratedModulesVerifyAndRoundTrip) {
  for (const Module &M : modulesForSeed(GetParam())) {
    std::string Error;
    ASSERT_TRUE(verifyModule(M, Error)) << M.getName() << ": " << Error;
    std::string Printed = printModule(M);
    Expected<Module> Reparsed = parseModule(Printed);
    ASSERT_TRUE(Reparsed) << Reparsed.getError() << "\n" << Printed;
    EXPECT_EQ(printModule(*Reparsed), Printed) << M.getName();
    EXPECT_TRUE(verifyModule(*Reparsed, Error)) << Error;
  }
}

TEST_P(SeedSweep, RandomSchedulesPreserveWorkWithoutFusion) {
  Rng R(GetParam() ^ 0xabcdef);
  for (const Module &M : modulesForSeed(GetParam())) {
    for (unsigned OpIdx = 0; OpIdx < M.getNumOps(); ++OpIdx) {
      const LinalgOp &Op = M.getOp(OpIdx);
      unsigned N = Op.getNumLoops();
      OpTransformState State(Op);
      OpSchedule Sched;
      // A random mix of tilings and interchanges.
      for (int Step = 0; Step < 3; ++Step) {
        Transformation T;
        if (R.nextBernoulli(0.5)) {
          std::vector<int64_t> Sizes(N, 0);
          for (int64_t &S : Sizes)
            if (R.nextBernoulli(0.5))
              S = int64_t(1) << R.nextInt(0, 6);
          T = Transformation::tiling(Sizes);
        } else {
          std::vector<unsigned> Perm(N);
          for (unsigned I = 0; I < N; ++I)
            Perm[I] = I;
          R.shuffle(Perm);
          T = Transformation::interchange(Perm);
        }
        if (State.apply(T).Applied)
          Sched.Transforms.push_back(T);
      }
      LoopNest Nest = materializeLoopNest(M, OpIdx, Sched);
      // Tiling and interchange never change total work when tile sizes
      // divide; with non-dividing tiles boundary rounding only adds, by
      // less than 2x per tiled dimension (deep nests compound).
      EXPECT_GE(Nest.getTotalFlops(), Op.getFlops()) << M.getName();
      EXPECT_LE(Nest.getTotalFlops(), Op.getFlops() * 16) << M.getName();
      // The model must price it as strictly positive, finite time.
      CostModel Model(MachineModel::xeonE5_2680v4());
      double T = Model.estimateNest(Nest).TotalSeconds;
      EXPECT_GT(T, 0.0);
      EXPECT_TRUE(std::isfinite(T));
    }
  }
}

TEST_P(SeedSweep, RandomEpisodesTerminateAndReplay) {
  Runner Run(MachineModel::xeonE5_2680v4());
  Rng R(GetParam());
  Module M = generateOperatorSequence(R);
  RandomSearchResult Result = randomSearch(
      RolloutEngine(EnvConfig::laptop(), Run), M, /*Episodes=*/3, GetParam());
  // The best schedule replays to exactly the reported speedup.
  EXPECT_NEAR(Run.speedup(M, Result.Schedule), Result.Speedup, 1e-9);
  EXPECT_GT(Result.Speedup, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

namespace {

class ModelSweep : public ::testing::TestWithParam<int> {};

Module modelForIndex(int Index) {
  switch (Index) {
  case 0:
    return makeResNet18();
  case 1:
    return makeVgg16();
  default:
    return makeMobileNetV2();
  }
}

} // namespace

TEST_P(ModelSweep, ModelsRoundTripThroughText) {
  Module M = modelForIndex(GetParam());
  std::string Printed = printModule(M);
  Expected<Module> Reparsed = parseModule(Printed);
  ASSERT_TRUE(Reparsed) << Reparsed.getError();
  EXPECT_EQ(Reparsed->getNumOps(), M.getNumOps());
  EXPECT_EQ(printModule(*Reparsed), Printed);
}

TEST_P(ModelSweep, BaselineMaterializesEveryOp) {
  Module M = modelForIndex(GetParam());
  std::vector<LoopNest> Nests = materializeBaseline(M);
  EXPECT_EQ(Nests.size(), M.getNumOps());
  int64_t Flops = 0;
  for (const LoopNest &Nest : Nests)
    Flops += Nest.getTotalFlops();
  EXPECT_EQ(Flops, M.getTotalFlops());
}

INSTANTIATE_TEST_SUITE_P(Models, ModelSweep, ::testing::Values(0, 1, 2));
