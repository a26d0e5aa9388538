//===- PostTransformChecksTest.cpp - The invariant pass itself ------------===//
//
// The pass must accept everything the engine legally produces and
// reject hand-corrupted states and schedules: illegal replay sequences,
// underivable fused producers, tampered nests, and stale ScheduleState
// caches. checkCandidateAction is the per-step gate the environment
// runs; verifyScheduleState is the full-state form tests and the fuzz
// harness run.
//
//===----------------------------------------------------------------------===//

#include "transforms/PostTransformChecks.h"

#include "ir/Builder.h"
#include "transforms/Apply.h"

#include <gtest/gtest.h>

using namespace mlirrl;

namespace {

struct ChainFixture : ::testing::Test {
  Module M{"chain"};
  std::string X, W, H, A;

  void SetUp() override {
    Builder B(M);
    X = B.declareInput({64, 96});
    W = B.declareInput({96, 32});
    H = B.matmul(X, W); // op 0, bounds (64, 32, 96)
    A = B.relu(H);      // op 1, bounds (64, 32)
  }
};

OpSchedule schedOf(std::initializer_list<Transformation> Ts) {
  OpSchedule S;
  S.Transforms = Ts;
  return S;
}

} // namespace

TEST_F(ChainFixture, LegalStatesPass) {
  OpTransformState S(M.getOp(0));
  ASSERT_TRUE(S.apply(Transformation::tiling({8, 8, 0})).Applied);
  ASSERT_TRUE(S.apply(Transformation::interchange({1, 0, 2})).Applied);
  std::string Err;
  EXPECT_TRUE(checkTransformState(S, Err)) << Err;
}

TEST_F(ChainFixture, LegalCandidatesPass) {
  std::string Err;
  EXPECT_TRUE(checkCandidateAction(M, 0, OpSchedule(), Err)) << Err;
  EXPECT_TRUE(checkCandidateAction(
      M, 0,
      schedOf({Transformation::tiledParallelization({16, 0, 0}),
               Transformation::tiling({4, 4, 8}),
               Transformation::vectorization()}),
      Err))
      << Err;
}

TEST_F(ChainFixture, IllegalReplaySequenceRejected) {
  // The engine rejects transforming past vectorization; a schedule that
  // claims to must not survive the gate.
  std::string Err;
  EXPECT_FALSE(checkCandidateAction(
      M, 0,
      schedOf({Transformation::vectorization(),
               Transformation::tiling({8, 8, 0})}),
      Err));
  EXPECT_FALSE(Err.empty());
}

TEST_F(ChainFixture, BadPermutationArityRejected) {
  std::string Err;
  EXPECT_FALSE(checkCandidateAction(
      M, 0, schedOf({Transformation::interchange({1, 0})}), Err));
  EXPECT_FALSE(checkCandidateAction(
      M, 0, schedOf({Transformation::interchange({0, 0, 0})}), Err));
}

TEST_F(ChainFixture, UnderivableFusedProducerRejected) {
  // Op 1 (relu) reads op 0's result, so fusing 0 into 1 is derivable --
  // but the reverse direction is not: op 0 does not read op 1.
  OpSchedule Fused = schedOf({Transformation::tiledFusion({8, 0, 0})});
  Fused.FusedProducers = {1};
  std::string Err;
  EXPECT_FALSE(checkCandidateAction(M, 0, Fused, Err));
  EXPECT_FALSE(Err.empty());

  OpSchedule Legal = schedOf({Transformation::tiledFusion({8, 0})});
  Legal.FusedProducers = {0};
  EXPECT_TRUE(checkCandidateAction(M, 1, Legal, Err)) << Err;
}

TEST_F(ChainFixture, ProducerIndexOutOfRangeRejected) {
  OpSchedule Fused = schedOf({Transformation::tiledFusion({8, 0})});
  Fused.FusedProducers = {7};
  std::string Err;
  EXPECT_FALSE(checkCandidateAction(M, 1, Fused, Err));
  Fused.FusedProducers = {1}; // the op itself
  EXPECT_FALSE(checkCandidateAction(M, 1, Fused, Err));
}

TEST_F(ChainFixture, TamperedNestRejected) {
  OpSchedule Sched = schedOf({Transformation::tiling({8, 8, 0})});
  Expected<LoopNest> Nest = materializeLoopNestChecked(M, 0, Sched);
  ASSERT_TRUE(static_cast<bool>(Nest)) << Nest.getError();
  std::string Err;
  ASSERT_TRUE(checkLoopNest(M, 0, Sched, *Nest, Err)) << Err;

  {
    // Corrupt a trip count.
    LoopNest Bad = *Nest;
    ASSERT_FALSE(Bad.OuterBand.empty());
    Bad.OuterBand[0].TripCount += 1;
    EXPECT_FALSE(checkLoopNest(M, 0, Sched, Bad, Err));
  }
  {
    // Mark a reduction loop parallel.
    LoopNest Bad = *Nest;
    bool Flipped = false;
    for (ScheduledLoop &L : Bad.OuterBand)
      if (L.Kind == IteratorKind::Reduction && !Flipped) {
        L.Parallel = true;
        Flipped = true;
      }
    if (Flipped)
      EXPECT_FALSE(checkLoopNest(M, 0, Sched, Bad, Err));
  }
  {
    // Vectorize a non-innermost loop.
    LoopNest Bad = *Nest;
    ASSERT_FALSE(Bad.Bodies.empty());
    ASSERT_GE(Bad.Bodies.back().Loops.size(), 2u);
    Bad.Bodies.back().Loops.front().Vectorized = true;
    EXPECT_FALSE(checkLoopNest(M, 0, Sched, Bad, Err));
  }
}

TEST_F(ChainFixture, CleanScheduleStateVerifies) {
  ScheduleState State(M);
  State.apply(1, Transformation::tiledFusion({8, 0}), 0);
  State.apply(1, Transformation::vectorization());
  materializeModule(M, State.getSchedule());
  std::string Err;
  EXPECT_TRUE(verifyScheduleState(State, Err)) << Err;
}

TEST_F(ChainFixture, CorruptFusedAwayBookkeepingRejected) {
  ScheduleState State(M);
  // Hand-corrupt the schedule: op 0 marked fused away, but no live op
  // claims it. ScheduleState never produces this; the check must see it.
  const_cast<ModuleSchedule &>(State.getSchedule()).FusedAway.push_back(0);
  std::string Err;
  EXPECT_FALSE(verifyScheduleState(State, Err));
  EXPECT_FALSE(Err.empty());
}

TEST_F(ChainFixture, OversizedVectorizationRejected) {
  // An innermost trip past the unroll limit (512): the engine masks it,
  // and a schedule claiming it must not survive the gate either.
  Module M2("wide");
  Builder B2(M2);
  B2.relu(B2.declareInput({4, 600}));
  std::string Err;
  EXPECT_FALSE(checkCandidateAction(
      M2, 0, schedOf({Transformation::vectorization()}), Err));
  EXPECT_FALSE(Err.empty());
}
