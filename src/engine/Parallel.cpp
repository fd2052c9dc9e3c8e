//===- Parallel.cpp - multi-threaded ruleset execution -----------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/Parallel.h"

#include "support/Timer.h"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <thread>

using namespace mfsa;

ParallelRunResult mfsa::runParallel(const std::vector<ImfantEngine> &Engines,
                                    std::string_view Input,
                                    unsigned NumThreads,
                                    std::vector<MatchRecorder> *Recorders) {
  assert((!Recorders || Recorders->size() == Engines.size()) &&
         "one recorder per engine");
  // Release-safe twin of the assert above (every engine was already
  // verified at construction; the recorder vector is the one input this
  // batch-level hook can still get wrong): refuse the batch instead of
  // indexing recorders out of range from worker threads.
  if (Recorders && Recorders->size() != Engines.size()) {
    std::fprintf(stderr,
                 "mfsa: runParallel rejected batch: %zu recorder(s) for %zu "
                 "engine(s)\n",
                 Recorders->size(), Engines.size());
    return {};
  }
  if (NumThreads == 0)
    NumThreads = 1;

  Timer Wall;
  // Work-stealing by atomic index: each worker claims the next unexecuted
  // automaton until the queue drains (§VI-C2).
  //
  // Both atomics are relaxed: NextEngine only hands out indices into the
  // immutable Engines array (nothing is published through the claim), and
  // TotalMatches is a pure tally read only after the join below — the
  // thread join is the synchronization point, not the atomic.
  std::atomic<size_t> NextEngine{0};
  std::atomic<uint64_t> TotalMatches{0};

  auto Worker = [&] {
    for (;;) {
      size_t Index = NextEngine.fetch_add(1, std::memory_order_relaxed);
      if (Index >= Engines.size())
        return;
      MatchRecorder Local;
      MatchRecorder &Recorder = Recorders ? (*Recorders)[Index] : Local;
      Engines[Index].run(Input, Recorder);
      TotalMatches.fetch_add(Recorder.total(), std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back(Worker);
  for (std::thread &T : Threads)
    T.join();

  ParallelRunResult Result;
  Result.WallSeconds = Wall.elapsedSec();
  Result.TotalMatches = TotalMatches.load();
  return Result;
}
