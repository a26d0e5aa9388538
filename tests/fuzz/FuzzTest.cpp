//===- FuzzTest.cpp - Deterministic fuzzing as a regression test ----------===//
//
// The fuzz engine at ctest scale: a fixed-seed campaign over the import
// gate and the environment must finish with zero invariant violations,
// the campaign must be bit-deterministic, and every input ever checked
// into tests/fuzz/corpus/ must replay cleanly (rejected with a
// diagnostic or accepted with a finite baseline -- never a crash).
// scripts/ci.sh runs the same engine at ~10x scale via example_fuzz_smoke.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"

#include "perf/MachineModel.h"
#include "perf/Runner.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace mlirrl;

namespace {

std::string violationReport(const FuzzStats &Stats) {
  std::string Out;
  for (const FuzzViolation &V : Stats.Violations)
    Out += "[" + V.Stage + "] " + V.Message + "\ninput:\n" + V.Input + "\n";
  return Out;
}

TEST(FuzzTest, GateCampaignFindsNothing) {
  FuzzOptions Opts;
  Opts.Seed = 20260808;
  Opts.ParserInputs = 1500;
  Opts.Episodes = 0;
  FuzzStats Stats = runFuzzCampaign(Opts);

  EXPECT_TRUE(Stats.ok()) << violationReport(Stats);
  EXPECT_EQ(Stats.ParserInputs, 1500u);
  // The generator must exercise both sides of the gate.
  EXPECT_GT(Stats.Accepted, 50u) << Stats.summary();
  EXPECT_GT(Stats.Rejected, 200u) << Stats.summary();
}

TEST(FuzzTest, EpisodeCampaignFindsNothing) {
  FuzzOptions Opts;
  Opts.Seed = 4242;
  Opts.ParserInputs = 200;
  Opts.Episodes = 25;
  FuzzStats Stats = runFuzzCampaign(Opts);

  EXPECT_TRUE(Stats.ok()) << violationReport(Stats);
  EXPECT_EQ(Stats.Episodes, 25u);
  EXPECT_GT(Stats.Steps, 25u) << Stats.summary();
}

TEST(FuzzTest, CampaignIsDeterministic) {
  FuzzOptions Opts;
  Opts.Seed = 7;
  Opts.ParserInputs = 300;
  Opts.Episodes = 5;
  FuzzStats A = runFuzzCampaign(Opts);
  FuzzStats B = runFuzzCampaign(Opts);

  EXPECT_EQ(A.Accepted, B.Accepted);
  EXPECT_EQ(A.Rejected, B.Rejected);
  EXPECT_EQ(A.Steps, B.Steps);
  EXPECT_EQ(A.Violations.size(), B.Violations.size());
  for (unsigned I = 0; I < 50; ++I)
    EXPECT_EQ(makeFuzzInput(Opts.Seed, I), makeFuzzInput(Opts.Seed, I));
}

TEST(FuzzTest, InputsDifferAcrossIndicesAndSeeds) {
  // Not a strict requirement of correctness, but a collapsed generator
  // would silently gut the campaign's coverage.
  EXPECT_NE(makeFuzzInput(1, 0), makeFuzzInput(1, 1));
  EXPECT_NE(makeFuzzInput(1, 0), makeFuzzInput(2, 0));
}

TEST(FuzzTest, CorpusReplays) {
  namespace fs = std::filesystem;
  fs::path Corpus = fs::path(MLIRRL_SOURCE_DIR) / "tests" / "fuzz" / "corpus";
  ASSERT_TRUE(fs::is_directory(Corpus)) << Corpus;

  Runner Eval(MachineModel::xeonE5_2680v4());
  ImportLimits Limits; // production limits, not the tightened fuzz ones
  FuzzStats Stats;
  unsigned Files = 0, Accepted = 0;
  for (const fs::directory_entry &Entry : fs::directory_iterator(Corpus)) {
    if (!Entry.is_regular_file())
      continue;
    std::ifstream In(Entry.path());
    ASSERT_TRUE(In.good()) << Entry.path();
    std::ostringstream Buf;
    Buf << In.rdbuf();
    ++Files;
    if (fuzzOneInput(Buf.str(), Eval, Limits, Stats))
      ++Accepted;
    EXPECT_TRUE(Stats.ok()) << Entry.path() << "\n" << violationReport(Stats);
  }
  EXPECT_GE(Files, 7u) << "corpus went missing";
  // valid-chain.mlir must stay on the accept side.
  EXPECT_GE(Accepted, 1u);
}

TEST(FuzzTest, EpisodesOverAnImportedModule) {
  // Direct episode fuzzing over a known-good import, independent of the
  // campaign's acceptance rate.
  std::string Source = R"(module @direct {
    %x = tensor<24x48xf32>
    %w = tensor<48x16xf32>
    %h = linalg.matmul {
      bounds = [24, 16, 48],
      iterators = [parallel, parallel, reduction],
      maps = [(d0, d1, d2) -> (d0, d2), (d0, d1, d2) -> (d2, d1),
              (d0, d1, d2) -> (d0, d1)],
      arith = {mul: 1, add: 1}
    } ins(%x, %w) : tensor<24x16xf32>
    %a = linalg.relu {
      bounds = [24, 16],
      iterators = [parallel, parallel],
      maps = [(d0, d1) -> (d0, d1), (d0, d1) -> (d0, d1)],
      arith = {max: 1}
    } ins(%h) : tensor<24x16xf32>
  })";
  Expected<Module> M = importModule(Source, fuzzImportLimits());
  ASSERT_TRUE(static_cast<bool>(M)) << M.getError();

  Runner Eval(MachineModel::xeonE5_2680v4());
  FuzzStats Stats;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed)
    fuzzOneEpisode(*M, Seed, Eval, 4000, Stats);
  EXPECT_TRUE(Stats.ok()) << violationReport(Stats);
  EXPECT_EQ(Stats.Episodes, 10u);
}

} // namespace
