//===- EnvironmentTest.cpp - Tests for the episode state machine ------------===//

#include "env/Environment.h"

#include "datasets/DnnOps.h"
#include "ir/Builder.h"
#include "perf/Runner.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace mlirrl;

namespace {

struct EnvFixture : ::testing::Test {
  EnvConfig Config = EnvConfig::laptop();
  MachineModel Machine = MachineModel::xeonE5_2680v4();
  Runner Run{Machine};

  AgentAction tiled(TransformKind Kind, std::vector<unsigned> Idx) {
    AgentAction A;
    A.Kind = Kind;
    A.TileSizeIdx = std::move(Idx);
    return A;
  }
  AgentAction simple(TransformKind Kind) {
    AgentAction A;
    A.Kind = Kind;
    return A;
  }
};

} // namespace

TEST_F(EnvFixture, StartsAtLastOpWithMasks) {
  Module M = makeMatmulModule(128, 128, 128);
  Environment Env(Config, Run, M);
  EXPECT_FALSE(Env.isDone());
  EXPECT_EQ(Env.getCurrentOp(), 0);
  const Observation &Obs = Env.observe();
  EXPECT_EQ(Obs.NumLoops, 3u);
  // No producer: fusion masked.
  EXPECT_DOUBLE_EQ(
      Obs.TransformMask[static_cast<unsigned>(TransformKind::TiledFusion)],
      0.0);
  // Tiling allowed.
  EXPECT_DOUBLE_EQ(
      Obs.TransformMask[static_cast<unsigned>(TransformKind::Tiling)], 1.0);
  // Innermost trip 128 <= 512 and matmul passes preconditions.
  EXPECT_DOUBLE_EQ(
      Obs.TransformMask[static_cast<unsigned>(TransformKind::Vectorization)],
      1.0);
}

TEST_F(EnvFixture, VectorizationMaskedForLargeInnerLoop) {
  Module M = makeMatmulModule(64, 64, 1024); // innermost d2 = 1024 > 512
  Environment Env(Config, Run, M);
  EXPECT_DOUBLE_EQ(
      Env.observe()
          .TransformMask[static_cast<unsigned>(TransformKind::Vectorization)],
      0.0);
}

TEST_F(EnvFixture, VectorizationMaskedForPooling) {
  Module M = makeMaxpoolModule(1, 16, 32, 32, 2, 2);
  Environment Env(Config, Run, M);
  EXPECT_DOUBLE_EQ(
      Env.observe()
          .TransformMask[static_cast<unsigned>(TransformKind::Vectorization)],
      0.0);
}

TEST_F(EnvFixture, NoTransformationEndsEpisodeOnSingleOp) {
  Module M = makeMatmulModule(64, 64, 64);
  Environment Env(Config, Run, M);
  auto Out = Env.step(simple(TransformKind::NoTransformation));
  EXPECT_TRUE(Out.Done);
  EXPECT_TRUE(Env.isDone());
  // No optimization: speedup 1, reward log(1) = 0.
  EXPECT_NEAR(Out.Reward, 0.0, 1e-9);
}

TEST_F(EnvFixture, FinalRewardIsLogSpeedup) {
  Module M = makeMatmulModule(256, 256, 256);
  Environment Env(Config, Run, M);
  // Parallelize then stop.
  Env.step(tiled(TransformKind::TiledParallelization, {4, 4, 0}));
  auto Out = Env.step(simple(TransformKind::NoTransformation));
  ASSERT_TRUE(Out.Done);
  double Speedup = Env.currentSpeedup();
  EXPECT_GT(Speedup, 1.0);
  EXPECT_NEAR(Out.Reward, std::log(Speedup), 1e-9);
}

TEST_F(EnvFixture, TauLimitEndsOperation) {
  Module M = makeMatmulModule(256, 256, 256);
  Environment Env(Config, Run, M);
  // Burn tau steps with tilings; episode must finish by the limit.
  for (unsigned I = 0; I < Config.MaxScheduleLength; ++I) {
    EXPECT_FALSE(Env.isDone());
    Env.step(tiled(TransformKind::Tiling, {3, 3, 3}));
  }
  EXPECT_TRUE(Env.isDone());
}

TEST_F(EnvFixture, IllegalActionWastesStepWithoutEffect) {
  Module M = makeMatmulModule(256, 256, 256);
  Environment Env(Config, Run, M);
  // All-zero tiling is rejected by the engine.
  Env.step(tiled(TransformKind::Tiling, {0, 0, 0}));
  EXPECT_FALSE(Env.isDone());
  Env.step(simple(TransformKind::NoTransformation));
  EXPECT_TRUE(Env.isDone());
  EXPECT_TRUE(Env.getSchedule().OpSchedules.empty());
}

TEST_F(EnvFixture, VisitsOpsInReverseOrder) {
  Module M("chain");
  Builder B(M);
  std::string X = B.declareInput({4096, 64});
  std::string R = B.relu(X);   // op 0
  std::string S = B.sigmoid(R); // op 1
  (void)S;
  Environment Env(Config, Run, M);
  EXPECT_EQ(Env.getCurrentOp(), 1);
  Env.step(simple(TransformKind::NoTransformation));
  EXPECT_EQ(Env.getCurrentOp(), 0);
  Env.step(simple(TransformKind::NoTransformation));
  EXPECT_TRUE(Env.isDone());
}

TEST_F(EnvFixture, FusionConsumesProducerAndSkipsIt) {
  Module M("chain");
  Builder B(M);
  std::string X = B.declareInput({4096, 64});
  std::string R = B.relu(X);
  B.sigmoid(R);
  Environment Env(Config, Run, M);
  // Producer available at the consumer.
  EXPECT_DOUBLE_EQ(
      Env.observe()
          .TransformMask[static_cast<unsigned>(TransformKind::TiledFusion)],
      1.0);
  Env.step(tiled(TransformKind::TiledFusion, {4, 4}));
  auto Out = Env.step(simple(TransformKind::NoTransformation));
  // The fused producer is not visited separately.
  EXPECT_TRUE(Out.Done);
  EXPECT_TRUE(Env.getSchedule().isFusedAway(0));
  ASSERT_EQ(Env.getSchedule().OpSchedules.count(1), 1u);
  EXPECT_EQ(Env.getSchedule().OpSchedules.at(1).FusedProducers,
            (std::vector<unsigned>{0}));
}

TEST_F(EnvFixture, FusionMaskedForSharedProducer) {
  // A producer with two consumers must not be fused.
  Module M("shared");
  Builder B(M);
  std::string X = B.declareInput({256, 256});
  std::string P = B.relu(X);   // op 0, consumed twice
  std::string A = B.sigmoid(P); // op 1
  B.add(P, A);                  // op 2
  Environment Env(Config, Run, M);
  EXPECT_EQ(Env.getCurrentOp(), 2);
  // op 1 is a producer candidate (exclusively consumed); op 0 is not,
  // but the mask only reports whether *some* candidate exists.
  EXPECT_DOUBLE_EQ(
      Env.observe()
          .TransformMask[static_cast<unsigned>(TransformKind::TiledFusion)],
      1.0);
  // Fuse op1; then op0 feeds both the group (via op1) and ... it is
  // consumed by group members only (op1 and op2), so it becomes legal.
  Env.step(tiled(TransformKind::TiledFusion, {8, 8}));
  EXPECT_DOUBLE_EQ(
      Env.observe()
          .TransformMask[static_cast<unsigned>(TransformKind::TiledFusion)],
      1.0);
}

TEST_F(EnvFixture, LevelPointerSequenceForcesInterchange) {
  Module M = makeMatmulModule(128, 128, 128);
  Environment Env(Config, Run, M);
  AgentAction Start = simple(TransformKind::Interchange);
  Start.PointerChoice = 2; // place loop 2 at position 0
  Env.step(Start);
  const Observation &Obs = Env.observe();
  EXPECT_TRUE(Obs.InPointerSequence);
  // Only interchange allowed.
  for (unsigned K = 0; K < NumTransformKinds; ++K) {
    double Expected = K == static_cast<unsigned>(TransformKind::Interchange)
                          ? 1.0
                          : 0.0;
    EXPECT_DOUBLE_EQ(Obs.TransformMask[K], Expected);
  }
  // Loop 2 already taken.
  EXPECT_DOUBLE_EQ(Obs.InterchangeMask[2], 0.0);
  EXPECT_DOUBLE_EQ(Obs.InterchangeMask[0], 1.0);

  AgentAction Next = simple(TransformKind::Interchange);
  Next.PointerChoice = 0;
  Env.step(Next);
  Next.PointerChoice = 1;
  Env.step(Next);
  // Sequence complete: the interchange is applied as one transformation.
  EXPECT_FALSE(Env.observe().InPointerSequence);
  Env.step(simple(TransformKind::NoTransformation));
  ASSERT_TRUE(Env.isDone());
  const OpSchedule &S = Env.getSchedule().OpSchedules.at(0);
  ASSERT_EQ(S.Transforms.size(), 1u);
  EXPECT_EQ(S.Transforms[0].Kind, TransformKind::Interchange);
  EXPECT_EQ(S.Transforms[0].Permutation,
            (std::vector<unsigned>{2, 0, 1}));
}

TEST_F(EnvFixture, EnumeratedInterchangeAppliesSwap) {
  EnvConfig Enumerated = Config;
  Enumerated.Interchange = InterchangeMode::Enumerated;
  Module M = makeMatmulModule(128, 128, 128);
  Environment Env(Enumerated, Run, M);
  AgentAction A = simple(TransformKind::Interchange);
  A.EnumeratedChoice = 0; // swap levels (0, 1)
  Env.step(A);
  Env.step(simple(TransformKind::NoTransformation));
  const OpSchedule &S = Env.getSchedule().OpSchedules.at(0);
  ASSERT_EQ(S.Transforms.size(), 1u);
  EXPECT_EQ(S.Transforms[0].Permutation,
            (std::vector<unsigned>{1, 0, 2}));
}

TEST_F(EnvFixture, ImmediateRewardTelescopesToFinal) {
  EnvConfig Immediate = Config;
  Immediate.Reward = RewardMode::Immediate;
  Module M = makeMatmulModule(256, 256, 256);

  Environment Env(Immediate, Run, M);
  double Total = 0.0;
  Total += Env.step(tiled(TransformKind::TiledParallelization, {4, 4, 0}))
               .Reward;
  Total += Env.step(tiled(TransformKind::Tiling, {0, 0, 5})).Reward;
  Total += Env.step(simple(TransformKind::NoTransformation)).Reward;
  EXPECT_TRUE(Env.isDone());
  EXPECT_NEAR(Total, std::log(Env.currentSpeedup()), 1e-9);
}

TEST_F(EnvFixture, ImmediateRewardCostsMoreMeasurement) {
  Module M = makeMatmulModule(256, 256, 256);
  EnvConfig Immediate = Config;
  Immediate.Reward = RewardMode::Immediate;

  Environment FinalEnv(Config, Run, M);
  Environment ImmedEnv(Immediate, Run, M);
  for (Environment *E : {&FinalEnv, &ImmedEnv}) {
    E->step(tiled(TransformKind::Tiling, {4, 4, 0}));
    E->step(tiled(TransformKind::Tiling, {0, 0, 4}));
    E->step(simple(TransformKind::NoTransformation));
  }
  EXPECT_GT(ImmedEnv.getMeasurementSeconds(),
            FinalEnv.getMeasurementSeconds());
}

TEST_F(EnvFixture, FlatModeDecodesActions) {
  EnvConfig Flat = Config;
  Flat.ActionSpace = ActionSpaceMode::Flat;
  Module M = makeMatmulModule(256, 256, 256);
  Environment Env(Flat, Run, M);
  const Observation &Obs = Env.observe();
  ASSERT_FALSE(Obs.FlatMask.empty());
  std::vector<FlatAction> Actions = buildFlatActionList(Flat);
  // Pick a uniform tiling action.
  unsigned Choice = 0;
  for (unsigned I = 0; I < Actions.size(); ++I)
    if (Actions[I].Kind == TransformKind::Tiling &&
        Flat.TileCandidates[Actions[I].TileSizeIdx] == 8)
      Choice = I;
  AgentAction A;
  A.FlatChoice = Choice;
  Env.step(A);
  // Stop via the flat no-transformation action.
  for (unsigned I = 0; I < Actions.size(); ++I)
    if (Actions[I].Kind == TransformKind::NoTransformation)
      A.FlatChoice = I;
  Env.step(A);
  ASSERT_TRUE(Env.isDone());
  const OpSchedule &S = Env.getSchedule().OpSchedules.at(0);
  ASSERT_EQ(S.Transforms.size(), 1u);
  EXPECT_EQ(S.Transforms[0].Kind, TransformKind::Tiling);
  EXPECT_EQ(S.Transforms[0].TileSizes,
            (std::vector<int64_t>{8, 8, 8}));
}

TEST_F(EnvFixture, TheoreticalFlatSizeFormula) {
  ActionSpaceInfo Info(Config);
  // |A| = 3 M^N + N! + 2 for N = 3, M = 8: 3*512 + 6 + 2 = 1544.
  EXPECT_DOUBLE_EQ(Info.flatTheoreticalSize(3), 1544.0);
}

//===----------------------------------------------------------------------===//
// Robustness: finished episodes, malformed actions and the
// post-transform check gate must degrade gracefully, never fatally.
//===----------------------------------------------------------------------===//

#include "support/Stats.h"
#include "transforms/PostTransformChecks.h"

TEST_F(EnvFixture, StepAfterDoneIsInert) {
  Module M = makeMatmulModule(64, 64, 64);
  Environment Env(Config, Run, M);
  Env.step(simple(TransformKind::NoTransformation));
  ASSERT_TRUE(Env.isDone());

  uint64_t Before =
      robustnessCounter(RobustnessEvent::StepAfterDone).Misses.load();
  ModuleSchedule Frozen = Env.getSchedule();
  auto Out = Env.step(tiled(TransformKind::Tiling, {4, 4, 0}));
  EXPECT_TRUE(Out.Done);
  EXPECT_DOUBLE_EQ(Out.Reward, 0.0);
  EXPECT_TRUE(Env.isDone());
  // The frozen schedule did not move, and the event was counted.
  EXPECT_EQ(Env.getSchedule().toString(), Frozen.toString());
  EXPECT_EQ(robustnessCounter(RobustnessEvent::StepAfterDone).Misses.load(),
            Before + 1);
}

TEST_F(EnvFixture, MalformedFlatActionWastesStep) {
  Config.ActionSpace = ActionSpaceMode::Flat;
  Module M = makeMatmulModule(64, 64, 64);
  Environment Env(Config, Run, M);

  AgentAction A;
  A.Kind = TransformKind::Tiling;
  A.FlatChoice = 1u << 30; // far past the flat action list
  ModuleSchedule Before = Env.getSchedule();
  auto Out = Env.step(A);
  EXPECT_FALSE(Env.isDone());
  EXPECT_FALSE(Out.Done);
  EXPECT_EQ(Env.getSchedule().toString(), Before.toString());

  // The episode still finishes normally afterwards.
  while (!Env.isDone())
    Env.step(simple(TransformKind::NoTransformation));
}

TEST_F(EnvFixture, LegalScriptPassesChecksWithOraclePrices) {
  // The post-transform checks never fire on legal actions, so the whole
  // trajectory -- every immediate reward included -- is the one the
  // from-scratch oracle prices, and no check failure is recorded.
  std::vector<AgentAction> Script = {
      tiled(TransformKind::TiledParallelization, {4, 4, 0}),
      tiled(TransformKind::Tiling, {0, 0, 5}),
      simple(TransformKind::Vectorization),
  };
  Config.Reward = RewardMode::Immediate;
  Module M = makeMatmulModule(128, 256, 192);
  Environment Env(Config, Run, M);
  Runner Oracle(Machine);
  double Previous = Oracle.timeBaseline(M);
  uint64_t FailuresBefore =
      robustnessCounter(RobustnessEvent::PostTransformCheckFailed)
          .Misses.load();
  for (size_t I = 0; I < Script.size(); ++I) {
    ASSERT_FALSE(Env.isDone()) << "step " << I;
    double Reward = Env.step(Script[I]).Reward;
    double Now = Oracle.timeModule(M, Env.getSchedule());
    EXPECT_EQ(Reward, std::log(Previous / Now)) << "step " << I;
    Previous = Now;
  }
  EXPECT_TRUE(Env.isDone());
  EXPECT_EQ(robustnessCounter(RobustnessEvent::PostTransformCheckFailed)
                .Misses.load(),
            FailuresBefore);
}

TEST_F(EnvFixture, StateVerifiesAfterEveryScriptedStep) {
  Module M("fuse");
  {
    Builder B(M);
    std::string X = B.declareInput({96, 48});
    std::string W = B.declareInput({48, 64});
    B.relu(B.matmul(X, W));
  }
  Environment Env(Config, Run, M);
  std::vector<AgentAction> Script = {
      tiled(TransformKind::TiledFusion, {4, 4}),
      tiled(TransformKind::Tiling, {8, 0, 0}),
      simple(TransformKind::NoTransformation),
      tiled(TransformKind::TiledParallelization, {2, 2, 0}),
      simple(TransformKind::Vectorization),
  };
  for (const AgentAction &A : Script) {
    if (Env.isDone())
      break;
    Env.step(A);
    std::string Err;
    EXPECT_TRUE(verifyScheduleState(
        const_cast<ScheduleState &>(Env.getState()), Err))
        << Err;
  }
}
