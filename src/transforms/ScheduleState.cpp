//===- ScheduleState.cpp --------------------------------------------------===//

#include "transforms/ScheduleState.h"

#include "support/Error.h"
#include "support/Hash.h"
#include "transforms/Apply.h"

#include <algorithm>
#include <cassert>

using namespace mlirrl;

// ---------------------------------------------------------------------------
// Per-op hashing
// ---------------------------------------------------------------------------

static void hashAffineMap(FnvHasher &H, const AffineMap &Map) {
  H.word(Map.getNumDims());
  H.word(Map.getNumResults());
  for (const AffineExpr &E : Map.getResults()) {
    H.word(E.getNumDims());
    for (int64_t Coeff : E.getCoeffs())
      H.signedWord(Coeff);
    H.signedWord(E.getConstant());
  }
}

static void hashValueType(FnvHasher &H, const Module &M,
                          const std::string &Name) {
  const ValueInfo &Value = M.getValue(Name);
  H.bytes(Value.Name);
  H.word(static_cast<uint64_t>(Value.Type.getElementType()));
  for (int64_t Dim : Value.Type.getShape())
    H.signedWord(Dim);
}

uint64_t mlirrl::hashOpStructure(const Module &M, unsigned OpIdx) {
  // Distinct seed from the module/nest key spaces.
  FnvHasher H(0x6a09e667f3bcc908ull);
  const LinalgOp &Op = M.getOp(OpIdx);
  H.bytes(Op.getResult());
  H.word(static_cast<uint64_t>(Op.getKind()));
  H.word(Op.getNumLoops());
  for (int64_t Bound : Op.getLoopBounds())
    H.signedWord(Bound);
  for (IteratorKind Kind : Op.getIterators())
    H.word(static_cast<uint64_t>(Kind));
  H.word(Op.getNumInputs());
  for (const OpOperand &In : Op.getInputs()) {
    hashValueType(H, M, In.Value);
    hashAffineMap(H, In.Map);
  }
  hashValueType(H, M, Op.getResult());
  hashAffineMap(H, Op.getOutputMap());
  const ArithCounts &Arith = Op.getArith();
  for (int64_t Count : {Arith.Add, Arith.Sub, Arith.Mul, Arith.Div,
                        Arith.Exp, Arith.Max})
    H.signedWord(Count);
  return H.finish();
}

uint64_t mlirrl::hashOpSchedule(const OpSchedule &Sched) {
  FnvHasher H(0xbb67ae8584caa73bull);
  H.word(Sched.Transforms.size());
  for (const Transformation &T : Sched.Transforms) {
    H.word(static_cast<uint64_t>(T.Kind));
    H.word(T.TileSizes.size());
    for (int64_t S : T.TileSizes)
      H.signedWord(S);
    H.word(T.Permutation.size());
    for (unsigned P : T.Permutation)
      H.word(P);
  }
  H.word(Sched.FusedProducers.size());
  for (unsigned P : Sched.FusedProducers)
    H.word(P);
  return H.finish();
}

// ---------------------------------------------------------------------------
// ScheduleState
// ---------------------------------------------------------------------------

ScheduleState::ScheduleState(const Module &M) : M(&M) {
  Slots.resize(M.getNumOps());
  Live.reserve(M.getNumOps());
  for (unsigned I = 0; I < M.getNumOps(); ++I)
    Live.push_back(I);
}

void ScheduleState::invalidate(unsigned OpIdx) {
  OpSlot &Slot = Slots[OpIdx];
  Slot.NestValid = false;
  Slot.PriceValid = false;
  Slot.KeyValid = false;
  // StructHash survives: the module is immutable.
}

ScheduleState::DirtySet ScheduleState::apply(unsigned OpIdx,
                                             const Transformation &T,
                                             int FusedProducer) {
  assert(OpIdx < M->getNumOps() && "op index out of range");
  assert(!Sched.isFusedAway(OpIdx) && "transforming a fused-away op");

  DirtySet Dirty;
  OpSchedule &Op = Sched.OpSchedules[OpIdx];
  Op.Transforms.push_back(T);
  invalidate(OpIdx);
  Dirty.Changed.push_back(OpIdx);

  if (FusedProducer >= 0) {
    unsigned P = static_cast<unsigned>(FusedProducer);
    assert(!Sched.isFusedAway(P) && "producer already fused away");
    Op.FusedProducers.push_back(P);
    Sched.FusedAway.push_back(P);
    invalidate(P);
    Live.erase(std::remove(Live.begin(), Live.end(), P), Live.end());
    Dirty.FusedAway.push_back(P);
  }

  ++Tallies.Applies;
  return Dirty;
}

const LoopNest &ScheduleState::getNest(unsigned OpIdx) {
  assert(!Sched.isFusedAway(OpIdx) && "materializing a fused-away op");
  OpSlot &Slot = Slots[OpIdx];
  if (!Slot.NestValid) {
    static const OpSchedule EmptySchedule;
    auto It = Sched.OpSchedules.find(OpIdx);
    const OpSchedule &OpSched =
        It == Sched.OpSchedules.end() ? EmptySchedule : It->second;
    Slot.Nest = materializeLoopNest(*M, OpIdx, OpSched);
    Slot.NestValid = true;
    ++Tallies.NestMaterializations;
  }
  return Slot.Nest;
}

uint64_t ScheduleState::structHash(unsigned OpIdx) {
  OpSlot &Slot = Slots[OpIdx];
  if (!Slot.StructValid) {
    Slot.StructHash = hashOpStructure(*M, OpIdx);
    Slot.StructValid = true;
  }
  return Slot.StructHash;
}

uint64_t ScheduleState::opMemoKey(unsigned OpIdx) {
  OpSlot &Slot = Slots[OpIdx];
  if (!Slot.KeyValid) {
    static const OpSchedule EmptySchedule;
    auto It = Sched.OpSchedules.find(OpIdx);
    const OpSchedule &OpSched =
        It == Sched.OpSchedules.end() ? EmptySchedule : It->second;
    // The nest of an op is a function of the op's structure, the
    // structures of its fused producers, and the op's schedule: fold
    // exactly those three.
    FnvHasher H(0x3c6ef372fe94f82bull);
    H.word(structHash(OpIdx));
    H.word(OpSched.FusedProducers.size());
    for (unsigned P : OpSched.FusedProducers)
      H.word(structHash(P));
    H.word(hashOpSchedule(OpSched));
    Slot.MemoKey = H.finish();
    Slot.KeyValid = true;
  }
  return Slot.MemoKey;
}

void ScheduleState::setPrice(unsigned OpIdx, double Seconds) {
  OpSlot &Slot = Slots[OpIdx];
  Slot.PriceSeconds = Seconds;
  Slot.PriceValid = true;
}
