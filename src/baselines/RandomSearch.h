//===- RandomSearch.h - Random-search baseline -------------------*- C++-*-===//
///
/// \file
/// A random-search baseline over the environment's own action space:
/// roll K random episodes, keep the best schedule. Useful as a sanity
/// reference for the RL agent (an agent that cannot beat random search
/// at equal budget has learned nothing) and in the examples.
///
/// Episodes run through the shared RolloutEngine (the same lockstep
/// loop PPO collection, greedy optimize() and the server use), with a
/// uniform-random ActionSource in place of the policy.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_BASELINES_RANDOMSEARCH_H
#define MLIRRL_BASELINES_RANDOMSEARCH_H

#include "env/Environment.h"
#include "rl/RolloutEngine.h"

namespace mlirrl {

/// Result of a random search.
struct RandomSearchResult {
  ModuleSchedule Schedule;
  double Speedup = 1.0;
  unsigned EpisodesUsed = 0;
};

/// Samples a uniformly random action under the observation's masks.
/// Matches the policy's sampling shape: tiled kinds draw one index per
/// *present* loop level (min(Obs.NumLoops, Config.MaxLoops)) and zero
/// the rest, so the baseline's RNG consumption per action equals the
/// policy head structure. (The old per-MaxLoops draw sampled levels no
/// op has -- RolloutEquivalenceTest pins the fixed shape.)
AgentAction randomAction(const Observation &Obs, const EnvConfig &Config,
                         Rng &Rng);

/// Runs \p Episodes uniformly random episodes (respecting the action
/// masks) through \p Engine and returns the best schedule found. All
/// episodes draw from one sequential stream seeded with \p Seed.
RandomSearchResult randomSearch(const RolloutEngine &Engine, const Module &M,
                                unsigned Episodes, uint64_t Seed = 42);

} // namespace mlirrl

#endif // MLIRRL_BASELINES_RANDOMSEARCH_H
