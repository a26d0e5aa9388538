//===- Fuzz.h - Deterministic fuzzing engine ---------------------*- C++-*-===//
///
/// \file
/// Seed-driven fuzzing over the untrusted-module pipeline. Two attack
/// surfaces, one engine shared by the ctest regression (tests/fuzz) and
/// the CI smoke binary (examples/fuzz_smoke.cpp):
///
///  * Parser/gate fuzzing: deterministic mutations of valid sources,
///    structurally random modules (some deliberately flawed, some
///    oversized) and raw garbage, fed through importModule. Every input
///    must come back as either a diagnosed rejection or a module that
///    re-verifies, re-sanitizes and prices to a finite positive baseline
///    -- never a crash or a fatal.
///
///  * Episode fuzzing: random agent actions -- including out-of-range
///    indices the policy could never emit -- driven through Environment
///    over imported modules, with verifyScheduleState re-checked after
///    every step and all rewards finite.
///
/// Everything is a pure function of the seed: a failure reproduces from
/// (seed, index) alone, and the offending input text is captured in the
/// violation so it can be checked into tests/fuzz/corpus/.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_FUZZ_FUZZ_H
#define MLIRRL_FUZZ_FUZZ_H

#include "ir/Parser.h"
#include "perf/Evaluator.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace mlirrl {

/// One invariant violation found by the fuzzer. Input holds the full
/// source text (parser stage) or the printed module plus episode seed
/// (episode stage), so the case can be replayed and checked into the
/// corpus.
struct FuzzViolation {
  std::string Stage;
  std::string Input;
  std::string Message;
};

/// Campaign counters + violations.
struct FuzzStats {
  unsigned ParserInputs = 0;
  unsigned Accepted = 0;
  unsigned Rejected = 0;
  unsigned Episodes = 0;
  uint64_t Steps = 0;
  std::vector<FuzzViolation> Violations;

  bool ok() const { return Violations.empty(); }
  std::string summary() const;
};

/// Tightened limits for fuzzing: small enough that every accepted
/// module is cheap to materialize and price thousands of times, while
/// still exercising every cap in the gate.
ImportLimits fuzzImportLimits();

/// The \p Index-th parser input of a campaign seeded with \p Seed --
/// deterministic, independent of all other indices. Mixes mutated valid
/// sources, structurally random modules and raw garbage.
std::string makeFuzzInput(uint64_t Seed, unsigned Index);

/// Feeds one input through the import gate and, on acceptance, checks
/// the accepted-module invariants (sanitizer idempotence, baseline
/// materializes, price finite and positive). Appends violations to
/// \p Stats; returns the module when accepted.
std::optional<Module> fuzzOneInput(const std::string &Input, Evaluator &Eval,
                                   const ImportLimits &Limits,
                                   FuzzStats &Stats);

/// Drives one random-action episode over \p M under a randomly drawn
/// environment configuration (action space, interchange mode, reward
/// mode). Asserts after every step: finite reward, verifyScheduleState
/// clean; at the end: episode terminated, speedup finite and positive,
/// stepping the finished episode stays inert.
void fuzzOneEpisode(const Module &M, uint64_t EpisodeSeed, Evaluator &Eval,
                    unsigned MaxSteps, FuzzStats &Stats);

struct FuzzOptions {
  uint64_t Seed = 0x6d6c6972726cULL; // "mlirrl"
  unsigned ParserInputs = 1000;
  unsigned Episodes = 25;
  /// Hard cap on raw step() calls per episode (pointer sub-steps
  /// included); an episode still live past it is itself a violation.
  unsigned MaxEpisodeSteps = 4000;
};

/// The full campaign: ParserInputs gate inputs, then Episodes random
/// episodes over the accepted-module pool (falling back to built-in
/// sources when mutation yields too few acceptances). \p InputHook, when
/// set, sees every parser input before it runs -- the smoke binary
/// persists it so a hard crash leaves the offending input on disk.
FuzzStats
runFuzzCampaign(const FuzzOptions &Opts,
                const std::function<void(unsigned, const std::string &)>
                    &InputHook = nullptr);

} // namespace mlirrl

#endif // MLIRRL_FUZZ_FUZZ_H
