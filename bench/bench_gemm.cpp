//===- bench_gemm.cpp - GEMM kernel throughput across dtypes ----------------===//
//
// GFLOP/s of the serial GEMM drivers (no autograd, no tensors, no pool)
// across layout {NN, NT, TN} x element type {double, float} x driver
// {streaming, packed macro-kernel} x square sizes. Each row calls one
// nn::detail driver directly, so both drivers are measured at every
// size; the public gemmAcc* entries pick between them by call shape
// alone (nn/Gemm.cpp), which this bench is the evidence for. Each
// packed row sits next to its streaming twin (same name + _packed),
// committed to PERF.md and tracked across PRs through
// scripts/bench_json.sh --gemm (BENCH_gemm.json).
//
// NT is where packing rewrites the story: the streaming kernel's
// k-reduction is a latency-bound scalar chain, the transpose-packed
// SIMD kernel runs independent lane chains.
//
//===----------------------------------------------------------------------===//

#include "nn/GemmKernel.h"
#include "support/AlignedAlloc.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace mlirrl;
using namespace mlirrl::nn;

namespace {

enum class Layout { NN, NT, TN };

template <typename T> std::vector<T> randomSquare(Rng &R, unsigned N) {
  std::vector<T> V(static_cast<size_t>(N) * N);
  for (T &X : V)
    X = static_cast<T>(R.nextDouble(-1.0, 1.0));
  return V;
}

/// C += op(A) . op(B) on N x N operands through the streaming or the
/// packed serial driver of \p L. For square operands NT's NxK B and
/// TN's KxM A have the same storage as NN's.
template <typename T>
void BM_Gemm(benchmark::State &State, Layout L, bool Packed) {
  unsigned N = static_cast<unsigned>(State.range(0));
  Rng R(5 + static_cast<unsigned>(L));
  std::vector<T> A = randomSquare<T>(R, N);
  std::vector<T> B = randomSquare<T>(R, N);
  std::vector<T> C(static_cast<size_t>(N) * N, T(0));
  AlignedArena Scratch;
  T *Bp = static_cast<T *>(Scratch.get(detail::PackScratchElems * sizeof(T)));
  T *Ap = Bp + detail::PackScratchAOffset;
  for (auto _ : State) {
    switch (L) {
    case Layout::NN:
      if (Packed)
        detail::gemmNNPackedSerial<T>(N, N, N, A.data(), N, B.data(), N,
                                      C.data(), N, Ap, Bp);
      else
        detail::gemmNNSerial<T>(N, N, N, A.data(), N, B.data(), N, C.data(),
                                N);
      break;
    case Layout::NT:
      if (Packed)
        detail::gemmNTPackedSerial<T>(N, N, N, A.data(), N, B.data(), N,
                                      C.data(), N, Ap, Bp);
      else
        detail::gemmNTSerial<T>(N, N, N, A.data(), N, B.data(), N, C.data(),
                                N);
      break;
    case Layout::TN:
      if (Packed)
        detail::gemmTNPackedSerial<T>(N, N, N, A.data(), N, B.data(), N,
                                      C.data(), N, Ap, Bp);
      else
        detail::gemmTNSerial<T>(N, N, N, A.data(), N, B.data(), N, C.data(),
                                N);
      break;
    }
    benchmark::DoNotOptimize(C.data());
    benchmark::ClobberMemory();
  }
  State.counters["GFLOPS"] = benchmark::Counter(
      2.0 * N * N * N * static_cast<double>(State.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}

void BM_GemmNNF64(benchmark::State &State, bool Packed) {
  BM_Gemm<double>(State, Layout::NN, Packed);
}
void BM_GemmNNF32(benchmark::State &State, bool Packed) {
  BM_Gemm<float>(State, Layout::NN, Packed);
}
void BM_GemmNTF64(benchmark::State &State, bool Packed) {
  BM_Gemm<double>(State, Layout::NT, Packed);
}
void BM_GemmNTF32(benchmark::State &State, bool Packed) {
  BM_Gemm<float>(State, Layout::NT, Packed);
}
void BM_GemmTNF64(benchmark::State &State, bool Packed) {
  BM_Gemm<double>(State, Layout::TN, Packed);
}
void BM_GemmTNF32(benchmark::State &State, bool Packed) {
  BM_Gemm<float>(State, Layout::TN, Packed);
}

} // namespace

#define GEMM_SIZES Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)
#define GEMM_BWD_SIZES Arg(256)->Arg(512)->Arg(1024)

BENCHMARK_CAPTURE(BM_GemmNNF64, f64, false)
    ->GEMM_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GemmNNF64, f64_packed, true)
    ->GEMM_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GemmNNF32, f32, false)
    ->GEMM_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GemmNNF32, f32_packed, true)
    ->GEMM_SIZES->Unit(benchmark::kMicrosecond);

BENCHMARK_CAPTURE(BM_GemmNTF64, f64, false)
    ->GEMM_BWD_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GemmNTF64, f64_packed, true)
    ->GEMM_BWD_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GemmNTF32, f32, false)
    ->GEMM_BWD_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GemmNTF32, f32_packed, true)
    ->GEMM_BWD_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GemmTNF64, f64, false)
    ->GEMM_BWD_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GemmTNF64, f64_packed, true)
    ->GEMM_BWD_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GemmTNF32, f32, false)
    ->GEMM_BWD_SIZES->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GemmTNF32, f32_packed, true)
    ->GEMM_BWD_SIZES->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
