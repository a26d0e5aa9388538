//===- RandomSearch.cpp ---------------------------------------------------===//

#include "baselines/RandomSearch.h"

#include "support/Rng.h"

#include <algorithm>
#include <optional>

using namespace mlirrl;

AgentAction mlirrl::randomAction(const Observation &Obs,
                                 const EnvConfig &Config, Rng &Rng) {
  // This runs against observations of arbitrary imported modules
  // (optimize_ir, the fuzz harness), so every mask draw is checked: an
  // all-masked head -- impossible for a well-formed environment, but
  // not locally provable here -- degrades to a wasted step the
  // environment already knows how to absorb, never an abort
  // (support/Error.h policy). The checked draws are bitwise-identical
  // to the fatal ones whenever any weight is set.
  AgentAction Action;
  if (Config.ActionSpace == ActionSpaceMode::Flat) {
    std::optional<size_t> Choice = Rng.trySampleWeighted(Obs.FlatMask);
    // Out-of-range flat choice = the environment's counted wasted-step
    // path for malformed driver actions.
    Action.FlatChoice = Choice
                            ? static_cast<unsigned>(*Choice)
                            : static_cast<unsigned>(Obs.FlatMask.size());
    return Action;
  }
  if (Obs.InPointerSequence) {
    Action.Kind = TransformKind::Interchange;
    std::optional<size_t> Level = Rng.trySampleWeighted(Obs.InterchangeMask);
    // An already-placed (masked) level is absorbed as a wasted pointer
    // step by the sequence logic.
    Action.PointerChoice = Level ? static_cast<unsigned>(*Level) : 0;
    return Action;
  }
  std::optional<size_t> Kind = Rng.trySampleWeighted(Obs.TransformMask);
  if (!Kind) {
    Action.Kind = TransformKind::NoTransformation;
    return Action;
  }
  Action.Kind = static_cast<TransformKind>(*Kind);
  switch (Action.Kind) {
  case TransformKind::Tiling:
  case TransformKind::TiledParallelization:
  case TransformKind::TiledFusion: {
    // Draw one index per present loop level only, like the policy's
    // tile heads; the remaining MaxLoops slots stay zero (levels past
    // the op's loop count are ignored by the environment, and drawing
    // for them would burn RNG state on nonexistent loops).
    Action.TileSizeIdx.assign(Config.MaxLoops, 0);
    unsigned Levels = std::min(Obs.NumLoops, Config.MaxLoops);
    for (unsigned L = 0; L < Levels; ++L)
      Action.TileSizeIdx[L] =
          static_cast<unsigned>(Rng.nextBounded(Config.NumTileSizes));
    break;
  }
  case TransformKind::Interchange: {
    std::optional<size_t> Perm = Rng.trySampleWeighted(Obs.InterchangeMask);
    if (!Perm) {
      // Interchange was offered but no permutation is legal: treat the
      // whole step as a no-op rather than abort.
      Action.Kind = TransformKind::NoTransformation;
      break;
    }
    if (Config.Interchange == InterchangeMode::LevelPointers)
      Action.PointerChoice = static_cast<unsigned>(*Perm);
    else
      Action.EnumeratedChoice = static_cast<unsigned>(*Perm);
    break;
  }
  case TransformKind::Vectorization:
  case TransformKind::NoTransformation:
    break;
  }
  return Action;
}

RandomSearchResult mlirrl::randomSearch(const RolloutEngine &Engine,
                                        const Module &M, unsigned Episodes,
                                        uint64_t Seed) {
  Rng Stream(Seed);
  const EnvConfig &Config = Engine.envConfig();
  RolloutEngine::ActionSource Source =
      [&](const std::vector<const Observation *> &Obs,
          const std::vector<Rng *> &Streams) {
        std::vector<ActorCritic::Sampled> Out(Obs.size());
        for (size_t I = 0; I < Obs.size(); ++I)
          Out[I].Action = randomAction(*Obs[I], Config, *Streams[I]);
        return Out;
      };

  RolloutEngine::Options Opts;
  Opts.RecordSchedule = true;

  RandomSearchResult Best;
  // Episodes run sequentially, width 1, all drawing from the single
  // stream -- the legacy loop's RNG consumption order.
  for (unsigned E = 0; E < Episodes; ++E) {
    RolloutEngine::Episode Ep =
        std::move(Engine.rolloutGroup({&M}, {&Stream}, Source, Opts).front());
    ++Best.EpisodesUsed;
    if (Ep.Speedup > Best.Speedup) {
      Best.Speedup = Ep.Speedup;
      Best.Schedule = std::move(Ep.Schedule);
    }
  }
  return Best;
}
