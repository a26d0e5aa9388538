//===- CostModel.h - Analytical execution-time estimation --------*- C++-*-===//
///
/// \file
/// The analytical performance model standing in for the paper's program
/// executions (see DESIGN.md, substitution table). Per scheduled loop
/// nest it combines:
///
///  * a compute roofline (scalar vs. SIMD issue, vector-lane utilization,
///    strided-load penalties, loop-carried reduction chains);
///  * a hierarchical memory model: working-set analysis decides the loop
///    depth at which each cache level captures reuse, giving the traffic
///    each level must serve (this is what makes tiling and interchange
///    pay off);
///  * parallel execution across cores (load imbalance, shared DRAM
///    bandwidth, fork overhead);
///  * loop-control overhead (which penalizes degenerate tilings).
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_PERF_COSTMODEL_H
#define MLIRRL_PERF_COSTMODEL_H

#include "perf/MachineModel.h"
#include "support/Stats.h"
#include "support/StripedLru.h"
#include "transforms/LoopNest.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mlirrl {

/// Per-nest time estimate with its components (seconds).
struct TimeBreakdown {
  double ComputeSeconds = 0.0;
  /// Bandwidth-bound components: traffic into L1/L2/L3 served by the next
  /// level out, and DRAM traffic.
  double L1Seconds = 0.0;
  double L2Seconds = 0.0;
  double L3Seconds = 0.0;
  double DramSeconds = 0.0;
  double LoopOverheadSeconds = 0.0;
  double ForkSeconds = 0.0;
  double TotalSeconds = 0.0;

  std::string toString() const;
};

/// Traffic (bytes) into each cache level for one nest, before dividing by
/// bandwidth. Exposed for tests and the cost-model ablation.
struct TrafficBreakdown {
  double IssueBytes = 0.0; // all executed accesses (served by L1)
  double L1Bytes = 0.0;    // misses into L1 (served by L2)
  double L2Bytes = 0.0;    // misses into L2 (served by L3)
  double L3Bytes = 0.0;    // misses into L3 (served by DRAM)
};

/// Structural hash of a scheduled nest: loop-nest shape, access maps and
/// arithmetic -- everything estimateNest consumes. Two nests with equal
/// keys are priced identically, which is what makes the schedule memo
/// below sound.
uint64_t hashLoopNest(const LoopNest &Nest);

/// The analytical cost model. estimateNest results are memoized in an
/// LRU table keyed by the structural schedule hash: episode sweeps
/// re-price the same partial schedules constantly (every step re-times
/// the whole module, every episode re-times the baseline), and a hit
/// skips the working-set analysis entirely. The table is thread-safe so
/// parallel episode collection can share one model.
class CostModel {
public:
  explicit CostModel(MachineModel Machine) : Machine(Machine) {}

  const MachineModel &getMachine() const { return Machine; }

  /// Estimates execution time of one scheduled nest (memoized).
  TimeBreakdown estimateNest(const LoopNest &Nest) const;

  /// Estimates memory traffic of one nest (the memory half of
  /// estimateNest, exposed for validation against the trace simulator).
  TrafficBreakdown estimateTraffic(const LoopNest &Nest) const;

  /// Estimates a whole module: the sum over its nests.
  double estimateModule(const std::vector<LoopNest> &Nests) const;

  /// Schedule-cache hit/miss counters since construction (or the last
  /// resetCacheCounters()).
  HitMissCounters getCacheCounters() const;
  void resetCacheCounters() const;

  /// Drops every memoized entry (counters untouched).
  void clearCache() const;

private:
  const MachineModel Machine;

  /// Uncached pricing (the original analytical pipeline).
  TimeBreakdown computeNest(const LoopNest &Nest) const;

  /// The schedule memo: the shared StripedLruMemo building block (one
  /// shard -- exact total-capacity LRU semantics; the CachingEvaluator
  /// in front absorbs the cross-thread traffic striping targets). It owns its own per-shard
  /// lock and reports under "cost_model.nest_memo" in the
  /// CacheStatsRegistry (each instance keeps its own counts; the
  /// registry aggregates; resetAll resets).
  mutable StripedLruMemo<TimeBreakdown> Memo{"cost_model.nest_memo",
                                             1u << 14, /*ShardCount=*/1};
};

} // namespace mlirrl

#endif // MLIRRL_PERF_COSTMODEL_H
