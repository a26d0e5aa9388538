//===- Mullapudi.h - The Halide autoscheduler baseline -----------*- C++-*-===//
///
/// \file
/// A model of the Mullapudi et al. Halide autoscheduler (the Table IV
/// baseline): a greedy heuristic that tiles pure dimensions so the tile
/// working set fits the L2 cache, parallelizes the outer tile loops, and
/// vectorizes the innermost pure dimension. Like the real autoscheduler
/// it never reorders or tiles reduction domains and applies one schedule
/// template per stage.
///
//===----------------------------------------------------------------------===//

#ifndef MLIRRL_BASELINES_MULLAPUDI_H
#define MLIRRL_BASELINES_MULLAPUDI_H

#include "baselines/ScheduleUtil.h"
#include "perf/Runner.h"

namespace mlirrl {

/// The greedy autoscheduler.
class MullapudiAutoscheduler {
public:
  /// Prices through its own noise-free Runner over \p Machine, whose
  /// description also drives the footprint heuristic.
  explicit MullapudiAutoscheduler(MachineModel Machine) : Run(Machine) {}

  /// End-to-end time of the module under the autoscheduled program.
  double timeModule(const Module &M) const;

  /// The directives its heuristic picks for one op (for tests).
  HalideDirectives scheduleOp(const Module &M, unsigned OpIdx) const;

private:
  /// Thread-safe, so the const queries may price through it.
  mutable Runner Run;
};

} // namespace mlirrl

#endif // MLIRRL_BASELINES_MULLAPUDI_H
