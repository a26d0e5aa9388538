//===- Harness.h - Statistics, probes and JSON for the benchmark --*- C++-*-===//
///
/// \file
/// The benchmark program's own machinery, kept apart from the workloads
/// so the self-test can exercise it alone:
///
///  * nearest-rank percentiles that refuse to report a percentile with
///    fewer than ten samples beyond it;
///  * the seeded open-loop arrival schedule (Poisson gaps, Zipf-skewed
///    request draw) and the per-request timing record that measures
///    latency from the due time and the generator's lateness;
///  * probes: subclasses of the library's public virtual seams (Runner,
///    CachingEvaluator) and a wrapper around the policy's actBatch,
///    which count calls always and read the clock only when tracing;
///  * a minimal ordered JSON writer.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "perf/Evaluator.h"
#include "perf/Runner.h"
#include "rl/Agent.h"
#include "rl/RolloutEngine.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

//===----------------------------------------------------------------------===//
// Percentiles
//===----------------------------------------------------------------------===//

/// Samples a reported percentile must have strictly above its rank.
constexpr size_t MinSamplesBeyond = 10;

/// Smallest sample count for which the \p PerMille percentile has
/// MinSamplesBeyond samples beyond it.
inline size_t samplesNeeded(unsigned PerMille) {
  size_t N = 1;
  while (N - (PerMille * N + 999) / 1000 < MinSamplesBeyond)
    ++N;
  return N;
}

/// Nearest-rank percentile: the sample of rank ceil(PerMille/1000 * n).
/// Empty unless at least MinSamplesBeyond samples lie beyond that rank
/// (the median is exempt: it always has half the samples beyond it).
inline std::optional<double> percentile(std::vector<double> Samples,
                                        unsigned PerMille) {
  size_t N = Samples.size();
  if (N == 0)
    return std::nullopt;
  size_t Rank = std::max<size_t>(1, (PerMille * N + 999) / 1000);
  if (PerMille > 500 && N - Rank < MinSamplesBeyond)
    return std::nullopt;
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  return Samples[Rank - 1];
}

/// Times a fixed single-thread integer loop (30-40 ms on a 2 GHz
/// core) and returns the median of \p Reps timings in milliseconds: the
/// host's speed at that moment. Records carry it so that compare.py can
/// set aside runs taken while the host was busy.
inline double hostProbeMs(unsigned Reps = 3) {
  std::vector<double> Ms;
  for (unsigned R = 0; R < Reps; ++R) {
    Clock::time_point T0 = Clock::now();
    uint64_t X = R + 1;
    for (uint64_t I = 0; I < 20'000'000; ++I)
      X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    static volatile uint64_t Sink;
    Sink = X;
    Ms.push_back(msBetween(T0, Clock::now()));
  }
  std::sort(Ms.begin(), Ms.end());
  return Ms[Ms.size() / 2];
}

//===----------------------------------------------------------------------===//
// Open-loop arrival schedule and request timing
//===----------------------------------------------------------------------===//

/// One scheduled request: when it is due (seconds after the phase
/// starts) and which pool module it asks for.
struct Arrival {
  double DueSec = 0.0;
  uint32_t Module = 0;
};

/// Zipf-like skew over a pool: module i is drawn with weight
/// 1 / (i + 1)^Exponent.
class ZipfDraw {
public:
  ZipfDraw(size_t PoolSize, double Exponent) : Cumulative(PoolSize) {
    double Sum = 0.0;
    for (size_t I = 0; I < PoolSize; ++I) {
      Sum += 1.0 / std::pow(static_cast<double>(I + 1), Exponent);
      Cumulative[I] = Sum;
    }
  }

  uint32_t operator()(mlirrl::Rng &R) const {
    double U = R.nextDouble() * Cumulative.back();
    size_t I = static_cast<size_t>(
        std::upper_bound(Cumulative.begin(), Cumulative.end(), U) -
        Cumulative.begin());
    return static_cast<uint32_t>(std::min(I, Cumulative.size() - 1));
  }

private:
  std::vector<double> Cumulative;
};

/// \p Count arrivals at \p RatePerSec with exponential gaps, module
/// indices drawn by \p Draw; a pure function of (Seed, Rate, Count).
inline std::vector<Arrival> makeArrivals(uint64_t Seed, double RatePerSec,
                                         size_t Count, const ZipfDraw &Draw) {
  mlirrl::Rng Gaps(mlirrl::Rng::deriveSeed(Seed, 0xa221));
  mlirrl::Rng Picks(mlirrl::Rng::deriveSeed(Seed, 0xd2a3));
  std::vector<Arrival> Out(Count);
  double T = 0.0;
  for (Arrival &A : Out) {
    T += -std::log(1.0 - Gaps.nextDouble()) / RatePerSec;
    A.DueSec = T;
    A.Module = Draw(Picks);
  }
  return Out;
}

/// Timestamps of one open-loop request, microseconds from phase start.
struct RequestTiming {
  double DueUs = 0.0;
  double SubmitBeginUs = 0.0;
  double SubmitEndUs = 0.0;
  double DoneUs = 0.0;

  /// Latency counts from when the request was due, so a stalled
  /// generator's delay is charged to the requests it delayed.
  double latencyUs() const { return DoneUs - DueUs; }
  /// How late the generator issued the request.
  double lagUs() const { return SubmitBeginUs - DueUs; }
  /// The synchronous part of submitAsync: import gate plus admission.
  double submitUs() const { return SubmitEndUs - SubmitBeginUs; }
  /// Latency the client-side trace does not split: generator lag,
  /// queue wait and batch service.
  double unattributedUs() const { return latencyUs() - submitUs(); }
};

//===----------------------------------------------------------------------===//
// Probes
//===----------------------------------------------------------------------===//

/// Calls and (when timing) nanoseconds spent in one layer, summed over
/// every thread that entered it.
struct LayerClock {
  std::atomic<uint64_t> Calls{0};
  std::atomic<uint64_t> Nanos{0};

  double ms() const {
    return static_cast<double>(Nanos.load(std::memory_order_relaxed)) / 1e6;
  }
  uint64_t calls() const { return Calls.load(std::memory_order_relaxed); }
};

/// Runs \p Call, counting it (and timing it when \p Timed) only at the
/// outermost nesting level of the probe class owning \p Depth: library
/// entry points delegate to each other (timeModule -> timeNests), and
/// a nested call must not be counted twice.
template <typename F>
double probeCall(unsigned &Depth, LayerClock &Layer, bool Timed, F &&Call) {
  if (Depth++ != 0) {
    double V = Call();
    --Depth;
    return V;
  }
  Layer.Calls.fetch_add(1, std::memory_order_relaxed);
  Clock::time_point T0 = Timed ? Clock::now() : Clock::time_point();
  double V = Call();
  if (Timed)
    Layer.Nanos.fetch_add(static_cast<uint64_t>(
                              std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  Clock::now() - T0)
                                  .count()),
                          std::memory_order_relaxed);
  --Depth;
  return V;
}

/// The Runner (cost model plus measurement protocol) behind a probe:
/// perf.cost_model.* in the trace.
class ProbeRunner final : public mlirrl::Runner {
public:
  ProbeRunner(mlirrl::MachineModel Machine, mlirrl::RunnerOptions Options,
              bool Timed)
      : Runner(Machine, Options), Timed(Timed) {}

  double timeNests(const std::vector<mlirrl::LoopNest> &Nests) override {
    return probeCall(Depth, Layer, Timed,
                     [&] { return Runner::timeNests(Nests); });
  }
  double priceNest(const mlirrl::LoopNest &Nest) override {
    return probeCall(Depth, Layer, Timed,
                     [&] { return Runner::priceNest(Nest); });
  }
  double timeModule(const mlirrl::Module &M,
                    const mlirrl::ModuleSchedule &Sched) override {
    return probeCall(Depth, Layer, Timed,
                     [&] { return Runner::timeModule(M, Sched); });
  }
  double timeBaseline(const mlirrl::Module &M) override {
    return probeCall(Depth, Layer, Timed,
                     [&] { return Runner::timeBaseline(M); });
  }

  LayerClock Layer;

private:
  static inline thread_local unsigned Depth = 0;
  bool Timed;
};

/// The shared memo behind a probe: perf.evaluator_* in the trace
/// (includes the cost-model time of its misses).
class ProbeMemo final : public mlirrl::CachingEvaluator {
public:
  ProbeMemo(mlirrl::Evaluator &Inner, size_t Capacity, unsigned Shards,
            bool Timed)
      : CachingEvaluator(Inner, Capacity, Shards), Timed(Timed) {}

  double timeNests(const std::vector<mlirrl::LoopNest> &Nests) override {
    return probeCall(Depth, Layer, Timed,
                     [&] { return CachingEvaluator::timeNests(Nests); });
  }
  double timeModule(const mlirrl::Module &M,
                    const mlirrl::ModuleSchedule &Sched) override {
    return probeCall(Depth, Layer, Timed,
                     [&] { return CachingEvaluator::timeModule(M, Sched); });
  }
  double timeBaseline(const mlirrl::Module &M) override {
    return probeCall(Depth, Layer, Timed,
                     [&] { return CachingEvaluator::timeBaseline(M); });
  }
  double priceNest(const mlirrl::LoopNest &Nest) override {
    return probeCall(Depth, Layer, Timed,
                     [&] { return CachingEvaluator::priceNest(Nest); });
  }
  double combineNestPrices(double SumSeconds) override {
    return probeCall(Depth, Layer, Timed, [&] {
      return CachingEvaluator::combineNestPrices(SumSeconds);
    });
  }

  LayerClock Layer;

protected:
  double priceDirtyOp(mlirrl::ScheduleState &State, unsigned OpIdx) override {
    return probeCall(Depth, Layer, Timed, [&] {
      return CachingEvaluator::priceDirtyOp(State, OpIdx);
    });
  }

private:
  static inline thread_local unsigned Depth = 0;
  bool Timed;
};

/// Policy forward passes (ActorCritic::actBatch) issued by rollouts.
struct PolicyProbe {
  LayerClock Layer;
  std::atomic<uint64_t> Rows{0};
  bool Timed = false;

  /// An action source equivalent to RolloutEngine::sampleGroup's
  /// (Greedy false) or greedyGroup's (Greedy true).
  mlirrl::RolloutEngine::ActionSource source(const mlirrl::ActorCritic &Agent,
                                             bool Greedy) {
    return [this, &Agent, Greedy](
               const std::vector<const mlirrl::Observation *> &Obs,
               const std::vector<mlirrl::Rng *> &Streams) {
      Rows.fetch_add(Obs.size(), std::memory_order_relaxed);
      std::vector<mlirrl::ActorCritic::Sampled> Out;
      unsigned Outermost = 0;
      probeCall(Outermost, Layer, Timed, [&] {
        Out = Agent.actBatch(Obs, Streams, Greedy);
        return 0.0;
      });
      return Out;
    };
  }
};

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

/// An insertion-ordered JSON object (numbers, strings, booleans and
/// nested objects are all this harness emits).
class Json {
public:
  Json &num(const std::string &Key, double V) {
    char Buf[64];
    if (std::isfinite(V))
      std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    else
      std::snprintf(Buf, sizeof(Buf), "null");
    return raw(Key, Buf);
  }
  Json &count(const std::string &Key, uint64_t V) {
    return raw(Key, std::to_string(V));
  }
  Json &flag(const std::string &Key, bool V) {
    return raw(Key, V ? "true" : "false");
  }
  Json &str(const std::string &Key, const std::string &V) {
    return raw(Key, quote(V));
  }
  Json &obj(const std::string &Key, const Json &V) { return raw(Key, V.dump()); }

  std::string dump() const {
    std::string Out = "{";
    for (size_t I = 0; I < Fields.size(); ++I) {
      if (I)
        Out += ", ";
      Out += quote(Fields[I].first) + ": " + Fields[I].second;
    }
    return Out + "}";
  }

private:
  Json &raw(const std::string &Key, std::string V) {
    Fields.emplace_back(Key, std::move(V));
    return *this;
  }
  static std::string quote(const std::string &S) {
    std::string Out = "\"";
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      if (static_cast<unsigned char>(C) < 0x20)
        continue;
      Out += C;
    }
    return Out + "\"";
  }

  std::vector<std::pair<std::string, std::string>> Fields;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
