//===- CostCacheTest.cpp - Schedule memoization of the cost model -----------===//

#include "ir/Builder.h"
#include "perf/CostModel.h"
#include "transforms/Apply.h"

#include <gtest/gtest.h>

using namespace mlirrl;

namespace {

struct CostCacheFixture : ::testing::Test {
  MachineModel Machine = MachineModel::xeonE5_2680v4();
  CostModel Model{Machine};
  Module MM{"mm"};

  void SetUp() override {
    Builder B(MM);
    std::string A = B.declareInput({256, 256});
    std::string Bv = B.declareInput({256, 256});
    B.matmul(A, Bv);
  }

  LoopNest nestWith(std::initializer_list<Transformation> Ts) {
    OpSchedule S;
    S.Transforms = Ts;
    return materializeLoopNest(MM, 0, S);
  }
};

bool bitIdentical(const TimeBreakdown &X, const TimeBreakdown &Y) {
  return X.ComputeSeconds == Y.ComputeSeconds && X.L1Seconds == Y.L1Seconds &&
         X.L2Seconds == Y.L2Seconds && X.L3Seconds == Y.L3Seconds &&
         X.DramSeconds == Y.DramSeconds &&
         X.LoopOverheadSeconds == Y.LoopOverheadSeconds &&
         X.ForkSeconds == Y.ForkSeconds && X.TotalSeconds == Y.TotalSeconds;
}

} // namespace

TEST_F(CostCacheFixture, HitReturnsBitIdenticalBreakdown) {
  LoopNest Nest = nestWith({Transformation::tiling({16, 16, 16})});
  TimeBreakdown First = Model.estimateNest(Nest);
  TimeBreakdown Second = Model.estimateNest(Nest);
  EXPECT_TRUE(bitIdentical(First, Second));

  HitMissCounters C = Model.getCacheCounters();
  EXPECT_EQ(C.Misses, 1u);
  EXPECT_EQ(C.Hits, 1u);
  EXPECT_DOUBLE_EQ(C.hitRate(), 0.5);
}

TEST_F(CostCacheFixture, RematerializedScheduleStillHits) {
  // The key is structural, so a nest rebuilt from the same schedule (a
  // fresh materialization, as Environment::step does each step) hits.
  TimeBreakdown First =
      Model.estimateNest(nestWith({Transformation::tiling({8, 8, 8})}));
  TimeBreakdown Second =
      Model.estimateNest(nestWith({Transformation::tiling({8, 8, 8})}));
  EXPECT_TRUE(bitIdentical(First, Second));
  EXPECT_EQ(Model.getCacheCounters().Hits, 1u);
}

TEST_F(CostCacheFixture, DifferentSchedulesDoNotCollide) {
  double T1 = Model.estimateNest(nestWith({Transformation::tiling({8, 8, 8})}))
                  .TotalSeconds;
  double T2 =
      Model.estimateNest(nestWith({Transformation::tiling({32, 32, 32})}))
          .TotalSeconds;
  double T3 = Model
                  .estimateNest(nestWith(
                      {Transformation::tiledParallelization({32, 32, 0})}))
                  .TotalSeconds;
  EXPECT_EQ(Model.getCacheCounters().Misses, 3u);
  EXPECT_NE(T1, T2);
  EXPECT_NE(T2, T3);

  uint64_t H1 = hashLoopNest(nestWith({Transformation::tiling({8, 8, 8})}));
  uint64_t H2 = hashLoopNest(nestWith({Transformation::tiling({32, 32, 32})}));
  uint64_t H3 = hashLoopNest(
      nestWith({Transformation::interchange({2, 0, 1})}));
  EXPECT_NE(H1, H2);
  EXPECT_NE(H1, H3);
  EXPECT_NE(H2, H3);
}

TEST_F(CostCacheFixture, CachedEqualsUncachedPricing) {
  LoopNest Nest = nestWith({Transformation::tiledParallelization({4, 8, 0}),
                            Transformation::vectorization()});
  TimeBreakdown Cached = Model.estimateNest(Nest);
  CostModel Fresh(Machine); // no shared cache state
  TimeBreakdown Direct = Fresh.estimateNest(Nest);
  EXPECT_TRUE(bitIdentical(Cached, Direct));
}

TEST_F(CostCacheFixture, ClearCacheDropsEntriesKeepsCounters) {
  LoopNest Nest = nestWith({Transformation::tiling({16, 16, 16})});
  Model.estimateNest(Nest);
  Model.estimateNest(Nest);
  Model.clearCache();
  Model.estimateNest(Nest); // miss again after clear
  HitMissCounters C = Model.getCacheCounters();
  EXPECT_EQ(C.Misses, 2u);
  EXPECT_EQ(C.Hits, 1u);
  Model.resetCacheCounters();
  EXPECT_EQ(Model.getCacheCounters().total(), 0u);
}
