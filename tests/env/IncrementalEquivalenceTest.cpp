//===- IncrementalEquivalenceTest.cpp - incremental == from-scratch ---------===//
//
// The property behind the ScheduleState transaction layer, checked
// mechanically over every dataset generator: the environment's
// incremental pricing (dirty-op re-pricing) and delta featurization are
// bitwise-indistinguishable from the from-scratch references kept in
// src/. Episodes run on randomized masked action sequences; after every
// step each price the environment measured equals Runner::timeModule
// on its schedule, and the observation's consumer and producer vectors
// equal Featurizer::featurize on the current op and history. At the end
// the speedup equals timeBaseline / timeModule. Both reward modes are
// swept -- Immediate is the mode whose every step prices the module, so
// it is where stale caches would surface.
//
//===----------------------------------------------------------------------===//

#include "datasets/Dataset.h"
#include "datasets/Models.h"
#include "datasets/Sequences.h"
#include "env/Environment.h"
#include "perf/Runner.h"
#include "support/Rng.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace mlirrl;

namespace {

struct Corpus {
  const char *Name;
  std::vector<Module> (*Build)();
  RewardMode Reward;
};

std::vector<Module> dnnOperators() {
  Rng R(31);
  return generateDnnOperatorDataset(R, DnnDatasetCounts::scaled(0.01));
}

std::vector<Module> evaluationModel() {
  // One full model: many ops, deep producer chains (fusion-heavy).
  return {makeMobileNetV2()};
}

std::vector<Module> lqcdKernels() {
  Rng R(32);
  return generateLqcdDataset(R, 4);
}

std::vector<Module> operatorSequences() {
  Rng R(33);
  return generateSequenceDataset(R, 6);
}

/// A uniformly random action under the observation's masks (the same
/// sampling scheme randomSearch uses).
AgentAction randomMaskedAction(const Observation &Obs,
                               const EnvConfig &Config, Rng &R) {
  AgentAction A;
  if (Obs.InPointerSequence) {
    A.Kind = TransformKind::Interchange;
    A.PointerChoice =
        static_cast<unsigned>(R.sampleWeighted(Obs.InterchangeMask));
    return A;
  }
  A.Kind = static_cast<TransformKind>(R.sampleWeighted(Obs.TransformMask));
  switch (A.Kind) {
  case TransformKind::Tiling:
  case TransformKind::TiledParallelization:
  case TransformKind::TiledFusion:
    A.TileSizeIdx.resize(Config.MaxLoops);
    for (unsigned &Idx : A.TileSizeIdx)
      Idx = static_cast<unsigned>(R.nextBounded(Config.NumTileSizes));
    break;
  case TransformKind::Interchange:
    A.PointerChoice =
        static_cast<unsigned>(R.sampleWeighted(Obs.InterchangeMask));
    A.EnumeratedChoice = A.PointerChoice;
    break;
  case TransformKind::Vectorization:
  case TransformKind::NoTransformation:
    break;
  }
  return A;
}

void expectSameVector(const std::vector<double> &A,
                      const std::vector<double> &B, const char *What,
                      unsigned Step) {
  ASSERT_EQ(A.size(), B.size()) << What << " at step " << Step;
  for (size_t I = 0; I < A.size(); ++I)
    ASSERT_EQ(A[I], B[I]) << What << "[" << I << "] at step " << Step;
}

/// The observation's feature vectors against from-scratch featurize()
/// on the current op and history (the producer candidate with an empty
/// history, or zeros when there is none).
void expectFeaturesMatchOracle(const Environment &Env, unsigned Step) {
  const Featurizer &Feat = Env.getFeaturizer();
  const Module &M = Env.getModule();
  const Observation &Obs = Env.observe();
  expectSameVector(
      Obs.Consumer,
      Feat.featurize(M, M.getOp(Env.getCurrentOp()), Env.getHistory()),
      "Consumer", Step);
  int Producer = Env.findProducerCandidate();
  expectSameVector(Obs.Producer,
                   Producer >= 0 ? Feat.featurize(M, M.getOp(Producer),
                                                  ActionHistory())
                                 : Feat.zeroVector(),
                   "Producer", Step);
}

class IncrementalEquivalenceFixture
    : public ::testing::TestWithParam<Corpus> {};

/// The sweep itself, over any (thread-safe, deterministic) evaluator:
/// the environment measures through \p Eval, and \p Oracle prices every
/// measured schedule from scratch.
void runOracleSweep(const Corpus &Param, Evaluator &Eval, Runner &Oracle) {
  std::vector<Module> Corpus = Param.Build();
  ASSERT_FALSE(Corpus.empty());

  EnvConfig Config = EnvConfig::laptop();
  Config.Reward = Param.Reward;

  uint64_t Seed = 0x1234;
  unsigned Measured = 0;
  for (const Module &M : Corpus) {
    Environment Env(Config, Eval, M);
    Rng R(Seed++);
    const double Baseline = Oracle.timeBaseline(M);
    ASSERT_EQ(Env.getMeasurementSeconds(), Baseline) << M.getName();

    unsigned Step = 0;
    expectFeaturesMatchOracle(Env, Step);
    while (!Env.isDone()) {
      double Before = Env.getMeasurementSeconds();
      Env.step(randomMaskedAction(Env.observe(), Config, R));
      ++Step;
      // A step that priced the module added exactly that price to the
      // accounting; it must be the from-scratch price of the schedule
      // the step left behind.
      if (Env.getMeasurementSeconds() != Before) {
        ++Measured;
        ASSERT_EQ(Env.getMeasurementSeconds(),
                  Before + Oracle.timeModule(M, Env.getSchedule()))
            << M.getName() << " price at step " << Step;
      }
      if (!Env.isDone())
        expectFeaturesMatchOracle(Env, Step);
      ASSERT_LT(Step, 10000u) << "runaway episode";
    }
    EXPECT_EQ(Env.currentSpeedup(),
              Baseline / Oracle.timeModule(M, Env.getSchedule()))
        << M.getName();
  }
  // Final mode prices at the end of an episode; Immediate after every
  // effective step.
  EXPECT_GT(Measured, 0u);
}

} // namespace

TEST_P(IncrementalEquivalenceFixture, EpisodesMatchOracleBitwise) {
  Runner Eval(MachineModel::xeonE5_2680v4());
  runOracleSweep(GetParam(), Eval, Eval);
}

TEST_P(IncrementalEquivalenceFixture,
       EpisodesMatchOracleThroughSharedStripedMemo) {
  // The same sweep with the environment pricing through a shared
  // lock-striped CachingEvaluator: the baseline answers from the
  // whole-program memo, every step from the per-op memo, and hit-vs-miss
  // must never change a returned price. A fresh oracle (outside the
  // memo) prices the same schedules.
  Runner Inner(MachineModel::xeonE5_2680v4());
  CachingEvaluator Shared(Inner, /*Capacity=*/1u << 12, /*Shards=*/8);
  Runner Oracle(MachineModel::xeonE5_2680v4());
  runOracleSweep(GetParam(), Shared, Oracle);
  // The sweep actually exercised both memo tables.
  EXPECT_GT(Shared.getOpCounters().total(), 0u);
  EXPECT_GT(Shared.getCounters().total(), 0u);
}

TEST(IncrementalFastPath, ImmediateEpisodesReuseCachedWork) {
  // The incremental path must not silently regress to from-scratch
  // behavior while staying bitwise-correct: Immediate-reward episodes
  // over a multi-op module through a memoizing evaluator must hit the
  // per-op memo, reuse clean ops' cached prices, and materialize far
  // fewer nests than ops x steps.
  EnvConfig Config = EnvConfig::laptop();
  Config.Reward = RewardMode::Immediate;
  Runner Model(MachineModel::xeonE5_2680v4());
  CachingEvaluator Eval(Model);

  Rng ModuleRng(5);
  Module M = generateOperatorSequence(ModuleRng);
  while (M.getNumOps() < 3)
    M = generateOperatorSequence(ModuleRng);

  CacheStatsRegistry::CategoryStats ReuseBefore =
      CacheStatsRegistry::instance().categoryStats("state.price_reuse");
  uint64_t Steps = 0, Materialized = 0;
  ModuleSchedule LastSchedule;
  for (unsigned E = 0; E < 3; ++E) {
    Environment Env(Config, Eval, M);
    Rng ActionRng(Rng::deriveSeed(99, E));
    while (!Env.isDone()) {
      Env.step(randomMaskedAction(Env.observe(), Config, ActionRng));
      ++Steps;
    }
    Materialized += Env.getState().counters().NestMaterializations;
    LastSchedule = Env.getSchedule();
  }
  CacheStatsRegistry::CategoryStats ReuseAfter =
      CacheStatsRegistry::instance().categoryStats("state.price_reuse");

  EXPECT_GT(Eval.getOpCounters().total(), 0u) << "op memo consulted";
  EXPECT_GT(Eval.getOpCounters().Hits.load(), 0u) << "op memo hit";
  EXPECT_GT(ReuseAfter.Hits, ReuseBefore.Hits) << "clean-op prices reused";
  EXPECT_LT(Materialized, Steps * M.getNumOps());

  // The incremental price of the last schedule, replayed into a fresh
  // transaction state, equals the from-scratch price bitwise.
  Runner Oracle(MachineModel::xeonE5_2680v4());
  ScheduleState Replay(M);
  for (const auto &[OpIdx, OpSched] : LastSchedule.OpSchedules) {
    unsigned Fused = 0;
    for (const Transformation &T : OpSched.Transforms) {
      int Producer = -1;
      if (T.Kind == TransformKind::TiledFusion &&
          Fused < OpSched.FusedProducers.size())
        Producer = static_cast<int>(OpSched.FusedProducers[Fused++]);
      Replay.apply(OpIdx, T, Producer);
    }
  }
  EXPECT_EQ(Oracle.timeState(Replay), Oracle.timeModule(M, LastSchedule));
}

INSTANTIATE_TEST_SUITE_P(
    DatasetGenerators, IncrementalEquivalenceFixture,
    ::testing::Values(
        Corpus{"DnnOperatorsFinal", dnnOperators, RewardMode::Final},
        Corpus{"DnnOperatorsImmediate", dnnOperators, RewardMode::Immediate},
        Corpus{"ModelFinal", evaluationModel, RewardMode::Final},
        Corpus{"ModelImmediate", evaluationModel, RewardMode::Immediate},
        Corpus{"LqcdFinal", lqcdKernels, RewardMode::Final},
        Corpus{"LqcdImmediate", lqcdKernels, RewardMode::Immediate},
        Corpus{"SequencesFinal", operatorSequences, RewardMode::Final},
        Corpus{"SequencesImmediate", operatorSequences,
               RewardMode::Immediate}),
    [](const ::testing::TestParamInfo<Corpus> &Info) {
      return std::string(Info.param.Name);
    });
