//===- ConcurrencyTest.cpp - thread-safety suites (TSan targets) ------------===//
//
// Part of the mfsa project. MIT License.
//
// Exercises the concurrent machinery — ThreadPool, runParallel's
// cancellation/deadline paths and the planner's pool — with real
// cross-thread interleavings so a ThreadSanitizer build (cmake
// -DMFSA_SANITIZE=thread, then `ctest -L tsan`) has races to find. The assertions double as plain correctness checks in
// uninstrumented builds.
//
//===----------------------------------------------------------------------===//

#include "analysis/Planner.h"
#include "compiler/Pipeline.h"
#include "engine/Parallel.h"
#include "mfsa/Merge.h"
#include "support/ThreadPool.h"
#include "workload/Datasets.h"

#include "TestHelpers.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace mfsa;
using namespace mfsa::test;

namespace {

/// Builds one single-rule engine per pattern (merging factor 1), the layout
/// the parallel executor distributes across workers.
std::vector<ImfantEngine> buildEngines(const std::vector<std::string> &Patterns) {
  std::vector<Nfa> Fsas;
  Fsas.reserve(Patterns.size());
  for (const std::string &P : Patterns)
    Fsas.push_back(compileOptimized(P));
  std::vector<Mfsa> Groups = mergeInGroups(Fsas, 1);
  std::vector<ImfantEngine> Engines;
  Engines.reserve(Groups.size());
  for (const Mfsa &Z : Groups)
    Engines.emplace_back(Z);
  return Engines;
}

/// Checks the structural invariants every ParallelRunResult must satisfy,
/// degraded or not.
void expectConsistent(const ParallelRunResult &Result, size_t NumEngines) {
  EXPECT_EQ(Result.Completed.size(), NumEngines);
  EXPECT_EQ(Result.Completed.count(), Result.NumCompleted);
  EXPECT_LE(Result.NumCompleted, NumEngines);
  EXPECT_EQ(Result.Degraded, Result.NumCompleted < NumEngines);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolConcurrency, StressManyBatches) {
  ThreadPool Pool(8);
  std::atomic<unsigned> Counter{0};
  for (int Batch = 0; Batch < 20; ++Batch) {
    for (int Task = 0; Task < 100; ++Task)
      Pool.submit([&Counter] { Counter.fetch_add(1, std::memory_order_relaxed); });
    Pool.wait();
    EXPECT_EQ(Counter.load(), 100u * (Batch + 1));
  }
}

TEST(ThreadPoolConcurrency, ConcurrentSubmitters) {
  // submit() must be callable from any thread, interleaved with the workers
  // draining the queue — the shape a compiler-driving service produces.
  ThreadPool Pool(4);
  std::atomic<unsigned> Counter{0};
  std::vector<std::thread> Producers;
  Producers.reserve(4);
  for (int P = 0; P < 4; ++P)
    Producers.emplace_back([&Pool, &Counter] {
      for (int Task = 0; Task < 250; ++Task)
        Pool.submit(
            [&Counter] { Counter.fetch_add(1, std::memory_order_relaxed); });
    });
  for (std::thread &P : Producers)
    P.join();
  Pool.wait();
  EXPECT_EQ(Counter.load(), 1000u);
}

TEST(ThreadPoolConcurrency, DestructionDrainsQueue) {
  // Tasks already queued when the destructor runs must still execute
  // (ShuttingDown only stops workers once the queue is empty).
  std::atomic<unsigned> Counter{0};
  {
    ThreadPool Pool(2);
    for (int Task = 0; Task < 64; ++Task)
      Pool.submit([&Counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        Counter.fetch_add(1, std::memory_order_relaxed);
      });
  }
  EXPECT_EQ(Counter.load(), 64u);
}

//===----------------------------------------------------------------------===//
// runParallel: cancellation and deadline
//===----------------------------------------------------------------------===//

TEST(ParallelConcurrency, CancellationFromAnotherThread) {
  std::vector<ImfantEngine> Engines =
      buildEngines({"ab", "bc", "cd", "da", "ac", "bd", "[ab]c", "a[cd]"});
  Rng Random(97);
  std::string Input = randomInput(Random, 1u << 20);

  std::atomic<bool> Cancel{false};
  ParallelRunOptions Options;
  Options.CancelToken = &Cancel;
  Options.ChunkBytes = 1024; // honour the flip mid-input, not per-automaton

  std::thread Canceller([&Cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Cancel.store(true, std::memory_order_relaxed);
  });
  ParallelRunResult Result = runParallel(Engines, Input, 4, nullptr, Options);
  Canceller.join();

  // The flip races the batch on purpose: either the batch finished first or
  // it degraded, and both outcomes must be internally consistent.
  expectConsistent(Result, Engines.size());
}

TEST(ParallelConcurrency, PreCancelledBatchCompletesNothing) {
  std::vector<ImfantEngine> Engines = buildEngines({"ab", "cd"});
  std::atomic<bool> Cancel{true};
  ParallelRunOptions Options;
  Options.CancelToken = &Cancel;
  ParallelRunResult Result =
      runParallel(Engines, "abcdabcd", 2, nullptr, Options);
  EXPECT_TRUE(Result.Degraded);
  EXPECT_EQ(Result.NumCompleted, 0u);
  EXPECT_EQ(Result.TotalMatches, 0u);
}

TEST(ParallelConcurrency, TightDeadlineStaysConsistent) {
  std::vector<ImfantEngine> Engines =
      buildEngines({"ab", "bc", "cd", "da", "ac", "bd"});
  Rng Random(98);
  std::string Input = randomInput(Random, 1u << 20);

  ParallelRunOptions Options;
  Options.DeadlineMs = 0.5;
  Options.ChunkBytes = 512;
  std::vector<MatchRecorder> Recorders(Engines.size());
  ParallelRunResult Result =
      runParallel(Engines, Input, 3, &Recorders, Options);
  expectConsistent(Result, Engines.size());

  // TotalMatches covers completed engines exactly.
  uint64_t CompletedTotal = 0;
  for (size_t I = 0; I < Engines.size(); ++I)
    if (Result.Completed.test(static_cast<unsigned>(I)))
      CompletedTotal += Recorders[I].total();
  EXPECT_EQ(Result.TotalMatches, CompletedTotal);
}

TEST(ParallelConcurrency, ConcurrentBatchesShareEngines) {
  // Engines are immutable after construction; two batches over the same
  // vector from different threads must not interfere.
  std::vector<ImfantEngine> Engines = buildEngines({"abc", "bcd", "cda"});
  Rng Random(99);
  std::string Input = randomInput(Random, 50000);

  uint64_t Sequential = 0;
  for (const ImfantEngine &Engine : Engines) {
    MatchRecorder Recorder;
    Engine.run(Input, Recorder);
    Sequential += Recorder.total();
  }

  std::vector<ParallelRunResult> Results(2);
  std::vector<std::thread> Batches;
  Batches.reserve(Results.size());
  for (size_t B = 0; B < Results.size(); ++B)
    Batches.emplace_back([&, B] {
      Results[B] = runParallel(Engines, Input, 2);
    });
  for (std::thread &B : Batches)
    B.join();
  for (const ParallelRunResult &Result : Results) {
    EXPECT_FALSE(Result.Degraded);
    EXPECT_EQ(Result.TotalMatches, Sequential);
  }
}

//===----------------------------------------------------------------------===//
// Planner pool
//===----------------------------------------------------------------------===//

TEST(PlannerConcurrency, ConcurrentPlansMatchSingleThreadedTraces) {
  // Two callers plan different rulesets at once, each on its own planner
  // pool: trial merges, literal profiles and wave-ordered DFA probes race
  // with the other plan's. 100 rules give two M=50 groups, so the M=all
  // verdict can be implied by a blown one.
  struct Job {
    std::vector<std::string> Rules;
    CompileArtifacts Compiled;
    std::string Single, Pooled;
  };
  std::vector<Job> Jobs(2);
  const char *Datasets[] = {"BRO", "DS9"};
  for (size_t J = 0; J < Jobs.size(); ++J) {
    const DatasetSpec *Spec = findDataset(Datasets[J]);
    ASSERT_NE(Spec, nullptr);
    Jobs[J].Rules = generateRuleset(*Spec);
    Jobs[J].Rules.resize(100);
    CompileOptions Compile;
    Compile.MergingFactor = 1;
    Compile.EmitAnml = false;
    Result<CompileArtifacts> Compiled = compileRuleset(Jobs[J].Rules, Compile);
    ASSERT_TRUE(Compiled) << Compiled.diag().render();
    Jobs[J].Compiled = Compiled.take();
  }
  auto Trace = [](const Job &J, unsigned InputThreads) {
    PlannerOptions Opts;
    Opts.InputThreads = InputThreads;
    EnginePlan Plan = planRuleset(J.Compiled.OptimizedFsas,
                                  J.Compiled.CompiledRuleIds, J.Rules, Opts);
    // Everything but the wall clock and the input-parallel decision, which
    // follows the requested thread count.
    Plan.PlanWallMs = 0.0;
    Plan.InputThreads = 1;
    Plan.ParallelInput = false;
    Plan.ParallelInputWhy.clear();
    return Plan.explainJson();
  };
  for (Job &J : Jobs)
    J.Single = Trace(J, 1);

  std::vector<std::thread> Planners;
  for (Job &J : Jobs)
    Planners.emplace_back([&Trace, &J] { J.Pooled = Trace(J, 4); });
  for (std::thread &T : Planners)
    T.join();
  for (const Job &J : Jobs)
    EXPECT_EQ(J.Pooled, J.Single);
}

} // namespace
