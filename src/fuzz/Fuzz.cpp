//===- Fuzz.cpp -----------------------------------------------------------===//

#include "fuzz/Fuzz.h"

#include "env/Environment.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "perf/Runner.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "transforms/PostTransformChecks.h"

#include <algorithm>
#include <cmath>

using namespace mlirrl;

//===----------------------------------------------------------------------===//
// Seed sources
//===----------------------------------------------------------------------===//

namespace {

/// Small valid modules the mutator starts from. Each parses, verifies
/// and sanitizes under fuzzImportLimits().
const char *SeedSources[] = {
    // Plain matmul.
    R"(module @seed_matmul {
  %A = tensor<64x32xf32>
  %B = tensor<32x48xf32>
  %C = linalg.matmul {
    bounds = [64, 48, 32],
    iterators = [parallel, parallel, reduction],
    maps = [(d0, d1, d2) -> (d0, d2), (d0, d1, d2) -> (d2, d1),
            (d0, d1, d2) -> (d0, d1)],
    arith = {mul: 1, add: 1}
  } ins(%A, %B) : tensor<64x48xf32>
})",
    // Fusable matmul + relu chain.
    R"(module @seed_chain {
  %x = tensor<32x96xf32>
  %w = tensor<96x24xf32>
  %h = linalg.matmul {
    bounds = [32, 24, 96],
    iterators = [parallel, parallel, reduction],
    maps = [(d0, d1, d2) -> (d0, d2), (d0, d1, d2) -> (d2, d1),
            (d0, d1, d2) -> (d0, d1)],
    arith = {mul: 1, add: 1}
  } ins(%x, %w) : tensor<32x24xf32>
  %a = linalg.relu {
    bounds = [32, 24],
    iterators = [parallel, parallel],
    maps = [(d0, d1) -> (d0, d1), (d0, d1) -> (d0, d1)],
    arith = {max: 1}
  } ins(%h) : tensor<32x24xf32>
})",
    // Degenerate 1-D reduction (single loop, non-dividing trip).
    R"(module @seed_sum {
  %v = tensor<193xf32>
  %s = linalg.reduce {
    bounds = [193],
    iterators = [reduction],
    maps = [(d0) -> (d0), (d0) -> (0)],
    arith = {add: 1}
  } ins(%v) : tensor<1xf32>
})",
    // Elementwise over an awkward odd shape.
    R"(module @seed_odd {
  %t = tensor<7x31xf32>
  %r = linalg.relu {
    bounds = [7, 31],
    iterators = [parallel, parallel],
    maps = [(d0, d1) -> (d0, d1), (d0, d1) -> (d0, d1)],
    arith = {max: 1}
  } ins(%t) : tensor<7x31xf32>
})",
};
constexpr unsigned NumSeedSources = sizeof(SeedSources) / sizeof(char *);

/// Boundary numbers the mutator splices over digit runs: zero, negatives,
/// every cap in ImportLimits, and values past int64 midpoints.
const char *BoundaryNumbers[] = {
    "0",        "1",        "2",         "16777215",  "16777216",
    "16777217", "8388608",  "4294967296", "-1",       "-8",
    "9223372036854775807", "99999999999999999999", "511", "512", "513",
};
constexpr unsigned NumBoundaryNumbers =
    sizeof(BoundaryNumbers) / sizeof(char *);

const char GarbageAlphabet[] =
    "abcdxz0189%<>[]{}(),:=@*+- \n\t_.#$\\\"'^~|&;";

} // namespace

//===----------------------------------------------------------------------===//
// Input generation
//===----------------------------------------------------------------------===//

ImportLimits mlirrl::fuzzImportLimits() {
  ImportLimits L;
  L.MaxSourceBytes = 1u << 16;
  L.MaxTokens = 1u << 13;
  L.MaxOps = 6;
  L.MaxValues = 32;
  L.MaxLoops = 6;
  L.MaxDimSize = 512;
  L.MaxIterationSpace = int64_t(1) << 24;
  L.MaxAffineTerms = 16;
  return L;
}

namespace {

std::string mutateSource(Rng &R) {
  std::string S = SeedSources[R.nextBounded(NumSeedSources)];
  unsigned Rounds = 1 + static_cast<unsigned>(R.nextBounded(8));
  for (unsigned I = 0; I < Rounds && !S.empty(); ++I) {
    switch (R.nextBounded(7)) {
    case 0: { // Flip one byte to a random printable.
      S[R.choiceIndex(S)] =
          GarbageAlphabet[R.nextBounded(sizeof(GarbageAlphabet) - 1)];
      break;
    }
    case 1: { // Insert a short garbage run.
      size_t At = R.nextBounded(S.size() + 1);
      std::string Run;
      for (unsigned J = 0, N = 1 + R.nextBounded(6); J < N; ++J)
        Run += GarbageAlphabet[R.nextBounded(sizeof(GarbageAlphabet) - 1)];
      S.insert(At, Run);
      break;
    }
    case 2: { // Delete a span.
      size_t At = R.choiceIndex(S);
      S.erase(At, 1 + R.nextBounded(16));
      break;
    }
    case 3: { // Duplicate a span (grows nesting/op counts).
      size_t At = R.choiceIndex(S);
      size_t Len = std::min<size_t>(1 + R.nextBounded(32), S.size() - At);
      S.insert(At, S.substr(At, Len));
      break;
    }
    case 4: { // Splice the tail of another seed source.
      const std::string Other = SeedSources[R.nextBounded(NumSeedSources)];
      S = S.substr(0, R.nextBounded(S.size() + 1)) +
          Other.substr(R.nextBounded(Other.size()));
      break;
    }
    case 5: { // Replace a digit run with a boundary number.
      size_t At = S.find_first_of("0123456789", R.choiceIndex(S));
      if (At == std::string::npos)
        break;
      size_t End = S.find_first_not_of("0123456789", At);
      if (End == std::string::npos)
        End = S.size();
      S.replace(At, End - At,
                BoundaryNumbers[R.nextBounded(NumBoundaryNumbers)]);
      break;
    }
    case 6: { // Truncate.
      S.resize(R.nextBounded(S.size() + 1));
      break;
    }
    }
  }
  return S;
}

/// A structurally random module: correct by construction most of the
/// time (so the accepted path gets real coverage), with deliberate
/// flaws and cap-busting shapes mixed in.
std::string makeStructuredSource(Rng &R) {
  static const int64_t Sizes[] = {1,  2,   3,   5,   7,    8,   16,
                                  31, 64,  100, 128, 511,  512, 513,
                                  1024, 100000};
  auto Size = [&] {
    return Sizes[R.nextBounded(sizeof(Sizes) / sizeof(Sizes[0]))];
  };

  // The flaw injected into this module, if any.
  enum Flaw { None, BoundMismatch, UndefinedOperand, RankMismatch };
  Flaw F = R.nextBernoulli(0.25)
               ? static_cast<Flaw>(1 + R.nextBounded(3))
               : None;

  std::string S = "module @fuzz {\n";
  struct Val {
    std::string Name;
    int64_t Rows, Cols;
  };
  std::vector<Val> Vals;
  unsigned NumOps = 1 + static_cast<unsigned>(R.nextBounded(4));
  unsigned NextId = 0;
  auto Fresh = [&](int64_t Rows, int64_t Cols) {
    Val V{"%v" + std::to_string(NextId++), Rows, Cols};
    S += formatString("  %s = tensor<%lldx%lldxf32>\n", V.Name.c_str(),
                      static_cast<long long>(Rows),
                      static_cast<long long>(Cols));
    Vals.push_back(V);
    return V;
  };

  for (unsigned Op = 0; Op < NumOps; ++Op) {
    bool Matmul = R.nextBernoulli(0.5);
    std::string Result = "%v" + std::to_string(NextId++);
    if (Matmul) {
      int64_t M = Size(), N = Size(), K = Size();
      Val A = (Vals.empty() || R.nextBernoulli(0.5))
                  ? Fresh(M, K)
                  : Vals[R.choiceIndex(Vals)];
      M = A.Rows;
      K = A.Cols;
      Val B = Fresh(K, N);
      if (F == BoundMismatch && Op + 1 == NumOps)
        ++K; // bounds no longer match the operand shapes
      std::string InA = (F == UndefinedOperand && Op + 1 == NumOps)
                            ? "%undefined"
                            : A.Name;
      S += formatString(
          "  %s = linalg.matmul {\n"
          "    bounds = [%lld, %lld, %lld],\n"
          "    iterators = [parallel, parallel, reduction],\n"
          "    maps = [(d0, d1, d2) -> (d0, d2), (d0, d1, d2) -> (d2, d1),\n"
          "            (d0, d1, d2) -> (d0, d1)],\n"
          "    arith = {mul: 1, add: 1}\n"
          "  } ins(%s, %s) : tensor<%lldx%lldxf32>\n",
          Result.c_str(), static_cast<long long>(M),
          static_cast<long long>(N), static_cast<long long>(K), InA.c_str(),
          B.Name.c_str(), static_cast<long long>(M),
          static_cast<long long>(N));
      Vals.push_back(Val{Result, M, N});
    } else {
      Val In = Vals.empty() ? Fresh(Size(), Size()) : Vals[R.choiceIndex(Vals)];
      const char *OutMap =
          (F == RankMismatch && Op + 1 == NumOps) ? "(d0)" : "(d0, d1)";
      S += formatString(
          "  %s = linalg.relu {\n"
          "    bounds = [%lld, %lld],\n"
          "    iterators = [parallel, parallel],\n"
          "    maps = [(d0, d1) -> (d0, d1), (d0, d1) -> %s],\n"
          "    arith = {max: 1}\n"
          "  } ins(%s) : tensor<%lldx%lldxf32>\n",
          Result.c_str(), static_cast<long long>(In.Rows),
          static_cast<long long>(In.Cols), OutMap, In.Name.c_str(),
          static_cast<long long>(In.Rows), static_cast<long long>(In.Cols));
      Vals.push_back(Val{Result, In.Rows, In.Cols});
    }
  }
  S += "}\n";
  return S;
}

std::string makeGarbage(Rng &R) {
  std::string S;
  size_t Len = R.nextBounded(512);
  for (size_t I = 0; I < Len; ++I)
    S += R.nextBernoulli(0.9)
             ? GarbageAlphabet[R.nextBounded(sizeof(GarbageAlphabet) - 1)]
             : static_cast<char>(R.nextBounded(256));
  return S;
}

} // namespace

std::string mlirrl::makeFuzzInput(uint64_t Seed, unsigned Index) {
  Rng R(Rng::deriveSeed(Seed, Index));
  double Pick = R.nextDouble();
  if (Pick < 0.50)
    return mutateSource(R);
  if (Pick < 0.85)
    return makeStructuredSource(R);
  return makeGarbage(R);
}

//===----------------------------------------------------------------------===//
// One gate input
//===----------------------------------------------------------------------===//

std::optional<Module> mlirrl::fuzzOneInput(const std::string &Input,
                                           Evaluator &Eval,
                                           const ImportLimits &Limits,
                                           FuzzStats &Stats) {
  ++Stats.ParserInputs;
  auto Fail = [&](const std::string &Msg) {
    Stats.Violations.push_back(FuzzViolation{"parser", Input, Msg});
  };

  Expected<Module> Imported = importModule(Input, Limits);
  if (!Imported) {
    ++Stats.Rejected;
    if (Imported.getError().empty())
      Fail("rejection without a diagnostic");
    return std::nullopt;
  }
  ++Stats.Accepted;
  Module M = *Imported;

  // Accepted => the module re-verifies and re-sanitizes (the gate is
  // idempotent) ...
  std::string Err;
  if (!verifyModule(M, Err)) {
    Fail("accepted module fails re-verification: " + Err);
    return std::nullopt;
  }
  if (!sanitizeModule(M, Limits, Err)) {
    Fail("accepted module fails re-sanitization: " + Err);
    return std::nullopt;
  }

  // ... the unoptimized baseline materializes ...
  Expected<std::vector<LoopNest>> Baseline =
      materializeModuleChecked(M, ModuleSchedule());
  if (!Baseline) {
    Fail("accepted module has no legal baseline: " + Baseline.getError());
    return std::nullopt;
  }

  // ... and its price is finite and positive.
  double Seconds = Eval.timeNests(*Baseline);
  if (!std::isfinite(Seconds) || Seconds <= 0.0) {
    Fail(formatString("accepted module prices to %g", Seconds));
    return std::nullopt;
  }
  return M;
}

//===----------------------------------------------------------------------===//
// One episode
//===----------------------------------------------------------------------===//

namespace {

/// A raw action: fields drawn over ranges that straddle the valid
/// bounds, so in-range and out-of-range values both occur. The
/// environment must take all of them without crashing.
AgentAction randomAction(Rng &R, const EnvConfig &Config) {
  AgentAction A;
  A.Kind = static_cast<TransformKind>(R.nextBounded(NumTransformKinds));
  A.TileSizeIdx.resize(R.nextBounded(Config.MaxLoops + 2));
  for (unsigned &Idx : A.TileSizeIdx)
    Idx = static_cast<unsigned>(
        R.nextBounded(Config.TileCandidates.size() + 2));
  A.EnumeratedChoice =
      static_cast<unsigned>(R.nextBounded(3 * Config.MaxLoops + 1));
  A.PointerChoice =
      static_cast<unsigned>(R.nextBounded(Config.MaxLoops + 2));
  A.FlatChoice = static_cast<unsigned>(R.nextBounded(128));
  return A;
}

} // namespace

void mlirrl::fuzzOneEpisode(const Module &M, uint64_t EpisodeSeed,
                            Evaluator &Eval, unsigned MaxSteps,
                            FuzzStats &Stats) {
  ++Stats.Episodes;
  Rng R(EpisodeSeed);

  // Draw the configuration: every ablation axis.
  EnvConfig Config = EnvConfig::laptop();
  Config.ActionSpace = R.nextBernoulli(0.5) ? ActionSpaceMode::MultiDiscrete
                                            : ActionSpaceMode::Flat;
  Config.Interchange = R.nextBernoulli(0.5) ? InterchangeMode::LevelPointers
                                            : InterchangeMode::Enumerated;
  Config.Reward =
      R.nextBernoulli(0.75) ? RewardMode::Final : RewardMode::Immediate;

  auto Fail = [&](const std::string &Msg) {
    Stats.Violations.push_back(FuzzViolation{
        "episode",
        formatString("seed=%llu\n",
                     static_cast<unsigned long long>(EpisodeSeed)) +
            printModule(M),
        Msg});
  };

  Environment Env(Config, Eval, M);
  unsigned Steps = 0;
  while (!Env.isDone() && Steps < MaxSteps) {
    Environment::StepOutcome Out = Env.step(randomAction(R, Config));
    ++Steps;
    ++Stats.Steps;
    if (!std::isfinite(Out.Reward)) {
      Fail(formatString("non-finite reward %g at step %u", Out.Reward,
                        Steps));
      return;
    }
    // The state the step left behind must satisfy every schedule
    // invariant. getNest only fills caches, so the cast is safe.
    std::string Err;
    if (!verifyScheduleState(const_cast<ScheduleState &>(Env.getState()),
                             Err)) {
      Fail(formatString("state invariant broken at step %u: ", Steps) + Err);
      return;
    }
  }

  if (!Env.isDone()) {
    Fail(formatString("episode still live after %u steps", MaxSteps));
    return;
  }

  double Speedup = Env.currentSpeedup();
  if (!std::isfinite(Speedup) || Speedup <= 0.0) {
    Fail(formatString("final speedup is %g", Speedup));
    return;
  }

  // A finished episode must take further actions inertly.
  Environment::StepOutcome Post = Env.step(randomAction(R, Config));
  if (!Post.Done || Post.Reward != 0.0)
    Fail("step after done is not inert");
}

//===----------------------------------------------------------------------===//
// Campaign
//===----------------------------------------------------------------------===//

std::string FuzzStats::summary() const {
  return formatString(
      "%u parser inputs (%u accepted, %u rejected), %u episodes, "
      "%llu steps, %zu violations",
      ParserInputs, Accepted, Rejected, Episodes,
      static_cast<unsigned long long>(Steps), Violations.size());
}

FuzzStats mlirrl::runFuzzCampaign(
    const FuzzOptions &Opts,
    const std::function<void(unsigned, const std::string &)> &InputHook) {
  FuzzStats Stats;
  ImportLimits Limits = fuzzImportLimits();
  Runner Eval(MachineModel::xeonE5_2680v4());

  // Phase 1: the gate. Keep a bounded pool of accepted modules, biased
  // toward small ones so phase 2 stays cheap.
  std::vector<Module> Pool;
  for (unsigned I = 0; I < Opts.ParserInputs; ++I) {
    std::string Input = makeFuzzInput(Opts.Seed, I);
    if (InputHook)
      InputHook(I, Input);
    std::optional<Module> M = fuzzOneInput(Input, Eval, Limits, Stats);
    if (M && Pool.size() < 64)
      Pool.push_back(std::move(*M));
  }

  // Phase 2: episodes. Fall back to the seed sources if mutation was
  // too destructive to leave a pool.
  if (Pool.empty()) {
    for (const char *Src : SeedSources)
      if (std::optional<Module> M =
              fuzzOneInput(Src, Eval, Limits, Stats))
        Pool.push_back(std::move(*M));
  }
  Rng PickR(Rng::deriveSeed(Opts.Seed, 0xE5));
  for (unsigned E = 0; E < Opts.Episodes && !Pool.empty(); ++E)
    fuzzOneEpisode(Pool[PickR.choiceIndex(Pool)],
                   Rng::deriveSeed(Opts.Seed, 0x10000 + E), Eval,
                   Opts.MaxEpisodeSteps, Stats);
  return Stats;
}
