//===- ScheduleState.h - Incremental schedule transactions -------*- C++-*-===//
///
/// \file
/// The transaction layer between the environment and the measurement
/// stack. Every environment step changes the schedule of exactly one
/// operation, yet pricing a reward used to re-materialize and re-price
/// every loop nest of the module. A ScheduleState makes the per-op
/// locality explicit: apply() appends one transformation to one op's
/// sequence and returns the dirty set (which op nests changed -- one,
/// plus a removed standalone nest for Tiled Fusion), while the state
/// caches, per operation, the materialized LoopNest, the evaluator's
/// price and the (structural x schedule) memo key. Clean ops keep their
/// cached artifacts across steps, which is what turns Immediate-mode
/// reward from O(module) to O(1) per action.
///
/// The invariant every consumer relies on: pricing through the state is
/// bitwise-identical to pricing the same schedule from scratch
/// (Evaluator::timeState sums live-op prices in ascending op order --
/// exactly materializeModule's order -- and each cached artifact is
/// re-derived only from committed schedule content).
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_TRANSFORMS_SCHEDULESTATE_H
#define MLIRRL_TRANSFORMS_SCHEDULESTATE_H

#include "ir/Module.h"
#include "transforms/LoopNest.h"
#include "transforms/Schedule.h"

#include <cstdint>
#include <vector>

namespace mlirrl {

/// Structural hash of one operation: every op field a materialized nest
/// can depend on, plus the shapes and element types of the values it
/// touches. Schedule-independent; combined with hashOpSchedule it keys
/// per-op measurements that survive across samples sharing ops.
uint64_t hashOpStructure(const Module &M, unsigned OpIdx);

/// Structural hash of one op's transformation sequence and fused-producer
/// list (the per-op analogue of hashModuleSchedule).
uint64_t hashOpSchedule(const OpSchedule &Sched);

/// The evolving schedule of one module with per-op incremental caches.
class ScheduleState {
public:
  explicit ScheduleState(const Module &M);

  /// What one transaction invalidated.
  struct DirtySet {
    /// Ops whose materialized nests changed and must be re-priced --
    /// normally just the acted-on op.
    std::vector<unsigned> Changed;
    /// Ops removed from the live set (their standalone nests no longer
    /// exist): the fused producer of a Tiled Fusion.
    std::vector<unsigned> FusedAway;
  };

  /// Appends \p T to op \p OpIdx's transformation sequence; when
  /// \p FusedProducer >= 0 the producer op is additionally folded into
  /// \p OpIdx's fused group (Tiled Fusion). Only the returned dirty set
  /// loses cached artifacts; every other op's nest, price and memo key
  /// stay valid.
  DirtySet apply(unsigned OpIdx, const Transformation &T,
                 int FusedProducer = -1);

  const Module &getModule() const { return *M; }

  /// The schedule assembled so far: the plain ModuleSchedule the
  /// apply() sequence describes, so materializeModule(getModule(),
  /// getSchedule()) is the from-scratch oracle for the cached nests.
  const ModuleSchedule &getSchedule() const { return Sched; }

  /// Ops with a standalone nest (not fused away), ascending. The
  /// canonical pricing order.
  const std::vector<unsigned> &liveOps() const { return Live; }

  /// The materialized nest of live op \p OpIdx. Cached; re-materialized
  /// only after an apply() dirtied the op.
  const LoopNest &getNest(unsigned OpIdx);

  /// (structural x schedule) memo key of live op \p OpIdx: folds the
  /// op's structural hash, the structural hashes of its fused producers
  /// and its schedule hash. Cached until the op is dirtied.
  uint64_t opMemoKey(unsigned OpIdx);

  /// Per-op price slots. The state owns the storage; an Evaluator fills
  /// them (one state must only ever be priced through one evaluator --
  /// the environment's). apply() invalidates the slots of its dirty set.
  bool hasPrice(unsigned OpIdx) const { return Slots[OpIdx].PriceValid; }
  double getPrice(unsigned OpIdx) const { return Slots[OpIdx].PriceSeconds; }
  void setPrice(unsigned OpIdx, double Seconds);

  /// Lifetime tallies (for benches and tests).
  struct Counters {
    uint64_t Applies = 0;
    /// Nests materialized, including each op's first. A fully incremental
    /// episode materializes ~1 nest per effective action.
    uint64_t NestMaterializations = 0;
  };
  const Counters &counters() const { return Tallies; }

private:
  struct OpSlot {
    LoopNest Nest;
    bool NestValid = false;
    double PriceSeconds = 0.0;
    bool PriceValid = false;
    uint64_t MemoKey = 0;
    bool KeyValid = false;
    /// The op's schedule-independent structural hash (computed once).
    uint64_t StructHash = 0;
    bool StructValid = false;
  };

  void invalidate(unsigned OpIdx);
  uint64_t structHash(unsigned OpIdx);

  const Module *M;
  ModuleSchedule Sched;
  std::vector<unsigned> Live;
  std::vector<OpSlot> Slots;
  Counters Tallies;
};

} // namespace mlirrl

#endif // MLIRRL_TRANSFORMS_SCHEDULESTATE_H
