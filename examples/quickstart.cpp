//===- quickstart.cpp - MLIR RL in five minutes ------------------------------===//
//
// The quickstart walks the whole public API on one matmul:
//   1. parse a Linalg module from its textual form;
//   2. apply a hand-written schedule (tile + parallelize + interchange +
//      vectorize) and "execute" it on the machine model;
//   3. let random search explore the same action space;
//   4. train a small RL agent and let it optimize the module.
//
// Build: cmake --build build && ./build/example_quickstart
//
// Training draws its samples from the sharded dataset stream by default
// (datasets/ShardedDataset: one shard resident, bitwise mid-epoch
// resume); --fixed-dataset trains on just the parsed matmul instead,
// the pre-streaming behavior.
//
// Training is checkpointed every 10 iterations (atomic writes,
// keep-last-2 rotation). Kill it mid-run and restart with
//   ./build/example_quickstart --resume [--checkpoint-dir DIR]
// and it continues from the newest checkpoint, bitwise-identically to
// an uninterrupted run (including the stream cursor).
//
//===----------------------------------------------------------------------===//

#include "baselines/RandomSearch.h"
#include "datasets/Dataset.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "perf/Runner.h"
#include "rl/Checkpoint.h"
#include "rl/MlirRl.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace mlirrl;

int main(int Argc, char **Argv) {
  bool Resume = false;
  bool FixedDataset = false;
  std::string CheckpointDir = "quickstart-ckpt";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--resume") == 0) {
      Resume = true;
    } else if (std::strcmp(Argv[I], "--fixed-dataset") == 0) {
      FixedDataset = true;
    } else if (std::strcmp(Argv[I], "--checkpoint-dir") == 0 &&
               I + 1 < Argc) {
      CheckpointDir = Argv[++I];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--resume] [--fixed-dataset] "
                   "[--checkpoint-dir DIR]\n",
                   Argv[0]);
      return 2;
    }
  }
  // -- 1. Parse the paper's Listing 1 matmul. ------------------------------
  const char *Source = R"(
    module @listing1 {
      %A = tensor<256x1024xf32>
      %B = tensor<1024x512xf32>
      %C = linalg.matmul {
        bounds = [256, 512, 1024],
        iterators = [parallel, parallel, reduction],
        maps = [(d0, d1, d2) -> (d0, d2),
                (d0, d1, d2) -> (d2, d1),
                (d0, d1, d2) -> (d0, d1)],
        arith = {mul: 1, add: 1}
      } ins(%A, %B) : tensor<256x512xf32>
    }
  )";
  Expected<Module> Parsed = parseModule(Source);
  if (!Parsed) {
    std::fprintf(stderr, "parse error: %s\n", Parsed.getError().c_str());
    return 1;
  }
  Module M = *Parsed;
  std::string Error;
  if (!verifyModule(M, Error)) {
    std::fprintf(stderr, "verifier error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("parsed module:\n%s\n", printModule(M).c_str());

  Runner Run(MachineModel::xeonE5_2680v4());
  double Baseline = Run.timeBaseline(M);
  std::printf("baseline (unoptimized, single-thread scalar): %.3f ms\n\n",
              Baseline * 1e3);

  // -- 2. A hand-written schedule. ------------------------------------------
  ModuleSchedule Hand;
  OpSchedule S;
  // Tile (8, 8) and parallelize the tile loops across cores...
  S.Transforms.push_back(Transformation::tiledParallelization({8, 8, 0}));
  // ...move the reduction out of the innermost position...
  S.Transforms.push_back(Transformation::interchange({2, 0, 1}));
  // ...and vectorize the innermost (now a parallel dim of trip 8).
  S.Transforms.push_back(Transformation::vectorization());
  Hand.OpSchedules[0] = S;
  std::printf("hand schedule %s -> speedup %.1fx\n", S.toString().c_str(),
              Run.speedup(M, Hand));

  // -- 3. Random search over the environment's action space. ----------------
  RandomSearchResult Best = randomSearch(
      RolloutEngine(EnvConfig::laptop(), Run), M, /*Episodes=*/50);
  std::printf("random search (50 episodes) -> speedup %.1fx\n",
              Best.Speedup);

  // -- 4. Train an agent (checkpointed; --resume continues a run). ----------
  // The default training draws from the sharded dataset stream (the
  // full mixed generator set, one shard resident at a time, cursor
  // checkpointed for bitwise mid-epoch resume); --fixed-dataset keeps
  // the single-module training of the walkthrough above.
  MlirRlOptions Options = MlirRlOptions::laptop();
  Options.Iterations = 40;
  MlirRl Sys(Options);
  ShardedDataset Stream(DatasetConfig::scaled(0.02), /*ShardSize=*/16);
  ShardedDataset *StreamPtr = FixedDataset ? nullptr : &Stream;
  CheckpointManager Checkpoints({CheckpointDir, "quickstart",
                                 /*KeepLast=*/2});
  if (Resume) {
    Expected<bool> Loaded = Checkpoints.loadLatest(Sys.trainer(), StreamPtr);
    if (!Loaded) {
      std::fprintf(stderr, "resume failed: %s\n", Loaded.getError().c_str());
      return 1;
    }
    if (*Loaded)
      std::printf("\nresumed from %s at iteration %llu\n",
                  CheckpointDir.c_str(),
                  static_cast<unsigned long long>(
                      Sys.trainer().iterationsDone()));
    else
      std::printf("\nno checkpoint in %s, starting fresh\n",
                  CheckpointDir.c_str());
  }
  std::printf("\ntraining a small PPO agent (%u iterations, %s)...\n",
              Options.Iterations,
              FixedDataset ? "fixed single-module dataset"
                           : "sharded dataset stream");
  std::vector<Module> TrainingSet = {M};
  for (unsigned I = static_cast<unsigned>(Sys.trainer().iterationsDone());
       I < Options.Iterations; ++I) {
    PpoIterationStats Stats = StreamPtr
                                  ? Sys.trainer().trainIteration(*StreamPtr)
                                  : Sys.trainer().trainIteration(TrainingSet);
    if (I % 10 == 0)
      std::printf("  iteration %3u: mean speedup %.2fx, entropy %.2f\n", I,
                  Stats.MeanSpeedup, Stats.Entropy);
    if ((I + 1) % 10 == 0) {
      Expected<std::string> Saved = Checkpoints.save(Sys.trainer(), StreamPtr);
      if (!Saved)
        std::fprintf(stderr, "checkpoint failed: %s\n",
                     Saved.getError().c_str());
    }
  }
  ModuleSchedule Learned;
  double Speedup = Sys.optimize(M, &Learned);
  std::printf("\nlearned schedule:\n%s-> speedup %.1fx\n",
              Learned.toString().c_str(), Speedup);
  return 0;
}
