//===- BaselinesTest.cpp - Tests for the comparison systems ------------------===//

#include "baselines/HalideRl.h"
#include "baselines/LibraryOracle.h"
#include "baselines/Mullapudi.h"
#include "baselines/RandomSearch.h"
#include "datasets/DnnOps.h"
#include "datasets/Lqcd.h"
#include "ir/Builder.h"
#include "perf/Runner.h"
#include "transforms/Apply.h"

#include <gtest/gtest.h>

using namespace mlirrl;

namespace {

struct BaselineFixture : ::testing::Test {
  MachineModel Machine = MachineModel::xeonE5_2680v4();
  CostModel Model{Machine};

  double baselineSeconds(const Module &M) {
    return Model.estimateModule(materializeBaseline(M));
  }
};

} // namespace

TEST_F(BaselineFixture, PyTorchBeatsUnoptimizedOnMatmul) {
  Module M = makeMatmulModule(512, 512, 512);
  LibraryOracle Torch(Machine, LibraryProfile::pytorchEager());
  double Speedup = baselineSeconds(M) / Torch.timeModule(M);
  // Library GEMM vs scalar chained baseline: hundreds of times faster.
  EXPECT_GT(Speedup, 50.0);
  EXPECT_LT(Speedup, 5000.0);
}

TEST_F(BaselineFixture, TorchCompileAtLeastAsFastAsEager) {
  LibraryOracle Eager(Machine, LibraryProfile::pytorchEager());
  LibraryOracle Compiled(Machine, LibraryProfile::pytorchCompile());
  for (const OperatorBenchmark &B : makeOperatorBenchmarks())
    EXPECT_LE(Compiled.timeModule(B.M), Eager.timeModule(B.M) * 1.001)
        << B.OperatorName << " " << B.SizeName;
}

TEST_F(BaselineFixture, CompileFusesElementwiseChains) {
  Module M("chain");
  {
    Builder B(M);
    std::string X = B.declareInput({4096, 4096});
    std::string R = B.relu(X);
    B.sigmoid(R);
  }
  LibraryOracle Eager(Machine, LibraryProfile::pytorchEager());
  LibraryOracle Compiled(Machine, LibraryProfile::pytorchCompile());
  // Fusion removes one full pass over the 64 MiB intermediate.
  EXPECT_LT(Compiled.timeModule(M), Eager.timeModule(M) * 0.75);
}

TEST_F(BaselineFixture, OverheadDominatesTinyOps) {
  Module M = makeAddModule({8, 8});
  LibraryOracle Torch(Machine, LibraryProfile::pytorchEager());
  // A tiny add is pure dispatch overhead for the framework.
  EXPECT_GT(Torch.timeModule(M), 9e-6);
}

TEST_F(BaselineFixture, HalideRlVectorizesPooling) {
  Module M = makeMaxpoolModule(1, 64, 112, 112, 2, 2);
  HalideRlBaseline Halide(Machine);
  double Best = 0.0;
  HalideDirectives D = Halide.bestDirectives(M, 0, &Best);
  EXPECT_TRUE(D.Vectorize); // MLIR cannot, Halide can (Sec. VII-C1)
  EXPECT_LT(Best, baselineSeconds(M));
}

TEST_F(BaselineFixture, HalideRlWeakOnMatmulStrongOnElementwise) {
  HalideRlBaseline Halide(Machine);
  // Elementwise: near the parallel-bandwidth bound.
  Module Add = makeAddModule({4096, 4096});
  double AddSpeedup = baselineSeconds(Add) / Halide.timeModule(Add);
  EXPECT_GT(AddSpeedup, 4.0);
  // Matmul: no reduction tiling, so far below the library oracle.
  Module Mm = makeMatmulModule(1024, 1024, 1024);
  LibraryOracle Torch(Machine, LibraryProfile::pytorchEager());
  EXPECT_GT(Torch.timeModule(Mm) * 2.0 < Halide.timeModule(Mm)
                ? Halide.timeModule(Mm) / Torch.timeModule(Mm)
                : 99.0,
            2.0);
}

TEST_F(BaselineFixture, MullapudiSpeedsUpLqcd) {
  Module M = makeDibaryonDibaryon(12);
  MullapudiAutoscheduler Sched(Machine);
  double Speedup = baselineSeconds(M) / Sched.timeModule(M);
  EXPECT_GT(Speedup, 1.0);
}

TEST_F(BaselineFixture, MullapudiPicksFittingTiles) {
  Module M = makeMatmulModule(1024, 1024, 1024);
  MullapudiAutoscheduler Sched(Machine);
  HalideDirectives D = Sched.scheduleOp(M, 0);
  EXPECT_TRUE(D.Parallel);
  EXPECT_TRUE(D.Vectorize);
  EXPECT_GT(D.PureTile, 0);
}

TEST_F(BaselineFixture, RandomSearchFindsSpeedupAndIsDeterministic) {
  Module M = makeMatmulModule(256, 256, 256);
  Runner Run(Machine);
  RolloutEngine Engine(EnvConfig::laptop(), Run);
  RandomSearchResult A = randomSearch(Engine, M, /*Episodes=*/30, 7);
  RandomSearchResult B = randomSearch(Engine, M, /*Episodes=*/30, 7);
  EXPECT_GT(A.Speedup, 1.5);
  EXPECT_DOUBLE_EQ(A.Speedup, B.Speedup);
  EXPECT_EQ(A.EpisodesUsed, 30u);
}

TEST_F(BaselineFixture, RandomSearchScheduleReplays) {
  Module M = makeMatmulModule(256, 256, 256);
  Runner Run(Machine);
  RandomSearchResult R = randomSearch(RolloutEngine(EnvConfig::laptop(), Run),
                                      M, /*Episodes=*/20, 3);
  // The returned schedule must reproduce the reported speedup.
  EXPECT_NEAR(Run.speedup(M, R.Schedule), R.Speedup, 1e-9);
}
