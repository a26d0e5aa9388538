//===- Evaluator.h - The reward-measurement seam -----------------*- C++-*-===//
///
/// \file
/// The one interface everything measures through: the RL environment's
/// rewards, the search baselines (RandomSearch, Mullapudi, Halide RL)
/// and the benches all price programs via an Evaluator instead of
/// hard-wiring a Runner or a CostModel. The core operation prices a
/// materialized program (a list of scheduled loop nests); module-level
/// entry points materialize and delegate. Implementations must be
/// thread-safe: one Evaluator is shared by all parallel episode
/// collectors and by every environment of a VecEnv batch.
///
/// Two pricing granularities coexist:
///
///  * whole-module (timeNests / timeModule / timeBaseline) -- the
///    from-scratch oracle;
///  * per-nest (priceNest + combineNestPrices) and incremental
///    (timeState over a ScheduleState) -- only dirty op nests are
///    re-materialized and re-priced; clean ops reuse their cached
///    price. The contract: summing the per-nest prices of a program's
///    nests in nest order and applying combineNestPrices reproduces
///    timeNests bitwise, so the two granularities are interchangeable.
///
/// Implementations:
///  * Runner (perf/Runner.h) -- the analytical cost model plus the
///    testbed's measurement protocol (noise and median-of-K runs, the
///    paper's testbed stand-in). With its default options (noise off)
///    it returns the undisturbed model price from every entry point:
///    the deterministic training default.
///  * CachingEvaluator -- a decorator memoizing whole-program prices in
///    front of any inner evaluator, with thread-safe hit/miss counters,
///    plus a per-op memo for timeState keyed by (op structural hash x
///    op schedule hash) so entries survive across samples sharing ops.
///    It complements the per-nest schedule memo inside CostModel: a hit
///    here also skips materialization and per-nest hashing.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_PERF_EVALUATOR_H
#define MLIRRL_PERF_EVALUATOR_H

#include "ir/Module.h"
#include "perf/CostModel.h"
#include "support/Stats.h"
#include "support/StripedLru.h"
#include "transforms/Schedule.h"
#include "transforms/ScheduleState.h"

namespace mlirrl {

/// Abstract measurement interface. All entry points are thread-safe.
class Evaluator {
public:
  virtual ~Evaluator() = default;

  /// Prices a materialized program: the "measured" execution time in
  /// seconds of the given scheduled loop nests.
  virtual double timeNests(const std::vector<LoopNest> &Nests) = 0;

  /// "Measured" time of the module under \p Sched. The default
  /// materializes and delegates to timeNests.
  virtual double timeModule(const Module &M, const ModuleSchedule &Sched);

  /// "Measured" time of the unoptimized baseline.
  virtual double timeBaseline(const Module &M);

  /// Speedup of \p Sched over the baseline (> 1 means faster).
  double speedup(const Module &M, const ModuleSchedule &Sched);

  /// Price of one nest, such that combineNestPrices over the ordered sum
  /// of a program's per-nest prices equals timeNests of that program
  /// bitwise. The default prices a single-nest program with no combiner
  /// applied -- correct for any evaluator whose timeNests is a plain sum
  /// over nests; evaluators with module-level post-processing (Runner's
  /// noise protocol) must override both members as a pair.
  virtual double priceNest(const LoopNest &Nest);

  /// Module-level combiner over the sum of per-nest prices (identity by
  /// default; Runner applies its measurement protocol here).
  virtual double combineNestPrices(double SumSeconds) { return SumSeconds; }

  /// Incremental equivalent of timeModule: prices \p State's schedule,
  /// re-pricing only ops whose cached price was invalidated by
  /// ScheduleState::apply (through the priceDirtyOp hook) and summing
  /// live-op prices in ascending op order (materializeModule's order,
  /// so the result is bitwise equal to the from-scratch path). The
  /// state's price slots are filled as a side effect; a state must only
  /// ever be priced through one evaluator.
  double timeState(ScheduleState &State);

protected:
  /// Prices one dirty op of a state (default: materialize + priceNest;
  /// CachingEvaluator answers from its per-op memo instead).
  virtual double priceDirtyOp(ScheduleState &State, unsigned OpIdx);
};

/// Structural content hash of a module (op shapes, access maps,
/// arithmetic) -- combined with a schedule hash it keys whole-program
/// measurements.
uint64_t hashModuleStructure(const Module &M);

/// Structural hash of a module schedule (per-op transformation
/// sequences and the fusion structure).
uint64_t hashModuleSchedule(const ModuleSchedule &Sched);

/// A memoizing decorator over any Evaluator. timeModule/timeBaseline
/// hits skip the inner evaluator entirely -- including materialization
/// -- which is what makes sharing one CachingEvaluator across all
/// collector threads pay off (every episode re-times the baseline).
/// timeState misses consult a second, per-op memo keyed by
/// ScheduleState::opMemoKey: a hit prices a dirty op without
/// materializing its nest, and the keys are content-addressed so the
/// entries survive across episodes and across samples that share ops.
///
/// Both tables are lock-striped (support/StripedLru.h): one instance is
/// meant to be shared by every collector thread and every environment
/// of every VecEnv group, and shard-local mutexes keep that sharing off
/// a global lock. Sharing and eviction order may differ run to run, but
/// every returned price is bitwise-deterministic (the values are pure
/// functions of the keys), which is the invariant DeterminismMatrixTest
/// sweeps across CollectThreads x shard counts.
///
/// Wrap only deterministic inner evaluators (a Runner with noise off):
/// caching a noisy measurement would freeze one noise draw forever.
class CachingEvaluator : public Evaluator {
public:
  explicit CachingEvaluator(Evaluator &Inner, size_t Capacity = 1u << 12,
                            unsigned Shards = 16);

  double timeNests(const std::vector<LoopNest> &Nests) override;
  double timeModule(const Module &M, const ModuleSchedule &Sched) override;
  double timeBaseline(const Module &M) override;
  double priceNest(const LoopNest &Nest) override;
  double combineNestPrices(double SumSeconds) override;

  /// Whole-program hit/miss/duplicate counters since construction (or
  /// the last reset), aggregated over shards. Relaxed snapshot; safe to
  /// read while collectors are running.
  HitMissCounters getCounters() const { return Program.counters(); }
  /// Per-op memo counters (timeState lookups).
  HitMissCounters getOpCounters() const { return PerOp.counters(); }
  /// Shard-lock acquisition statistics (total vs. contended), the
  /// striping-effectiveness evidence the memo micro-bench records.
  ContentionCounters getProgramContention() const {
    return Program.contention();
  }
  ContentionCounters getOpContention() const { return PerOp.contention(); }
  void resetCounters() {
    Program.resetCounters();
    PerOp.resetCounters();
  }

  unsigned shardCount() const { return Program.shardCount(); }

  /// Drops every memoized entry (counters untouched).
  void clearCache();

protected:
  /// timeState hook: a per-op memo lookup keyed by
  /// ScheduleState::opMemoKey -- content-addressed, so a hit prices a
  /// dirty op without materializing its nest, and entries are shared
  /// across every episode and sample containing the same op under the
  /// same partial schedule.
  double priceDirtyOp(ScheduleState &State, unsigned OpIdx) override;

private:
  Evaluator &Inner;
  StripedLruMemo<double> Program;
  StripedLruMemo<double> PerOp;
};

} // namespace mlirrl

#endif // MLIRRL_PERF_EVALUATOR_H
