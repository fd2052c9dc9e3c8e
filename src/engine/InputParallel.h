//===- InputParallel.h - input-parallel single-stream scanning --*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares InputParallelRun, the input-parallel execution axis the ROADMAP
/// pairs with the paper's automata-parallel §VI-C2 pool: split ONE input
/// into T chunks, scan the chunks independently, and stitch the results at
/// the cut points so the output is byte-identical to a sequential scan.
/// PaREM and *Simultaneous Finite Automata* (PAPERS.md) are the lineage.
///
/// The stitching problem: a chunk i > 0 starts mid-stream, so the scanner
/// state at its first byte — the *boundary frontier* — is only known once
/// chunk i-1 finished. Each backend removes that serial dependency
/// differently:
///
///  - **iMFAnt** (dense activation bitsets). The per-byte step is affine in
///    the activation configuration: step(C) = inject ∪ post(C), and J-bits
///    propagate per rule independently through Eq. 6's ∩ bel. So a chunk's
///    full scan decomposes into (a) an *iso scan* — empty start, injection
///    on, which is exact for every match attempt beginning inside the chunk
///    — plus (b) the propagation of the incoming boundary frontier with
///    injection off. Phase 1 runs (a) per chunk in parallel. The join runs
///    (b) in order: it seeds the real carried frontier and re-scans until
///    that frontier dies, which the scanner detects on its own, then unions
///    the two exits into the next chunk's carry. A carry that outlives its
///    chunk costs one sequential re-scan of that chunk — always correct, no
///    speedup for that boundary.
///
///  - **DFA / stride-2 DFA** (single live state). Chunks i > 0 run a
///    *state-map* scan: one class per possible start state, stepped in
///    lockstep, with classes that land on the same DFA state merged — each
///    class keeps an accept log plus a pointer into its surviving parent's
///    log, so every start state's full outcome remains reconstructible
///    (PaREM's per-start transition function, made cheap by collapse). The
///    join threads the real boundary state through the maps: walk the
///    class's merge chain emitting log segments — exactly the sequential
///    matches — and chain the exit state into the next chunk.
///
/// Offsets are absolute from construction (`Scanner::startAt`), rule ids
/// are the dataset global ids, per-chunk (rule, end) dedup mirrors the
/// sequential engine's per-step dedup, and `$`-anchored accepts fire only
/// at the true stream end — hence byte-identical output, which
/// tests/InputParallelTest.cpp asserts under adversarial chunkings.
///
/// Speedups are measured by wall clock on the pool
/// (bench/fig_input_parallel, docs/performance.md); the stats below count
/// work, not time.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ENGINE_INPUTPARALLEL_H
#define MFSA_ENGINE_INPUTPARALLEL_H

#include "engine/Imfant.h"
#include "engine/MultiStride.h"
#include "fsa/Determinize.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

namespace mfsa {

class ThreadPool;

namespace obs {
class MetricsRegistry;
} // namespace obs

/// Knobs for an input-parallel run.
struct InputParallelOptions {
  /// Target chunk count T. Chunk 0 runs the normal engine; chunks 1..T-1
  /// start without their boundary state, which the join supplies. Values
  /// ≤ 1 degrade to a plain sequential scan.
  unsigned Threads = 2;
  /// Inputs shorter than Threads × MinChunkBytes use fewer chunks: below
  /// this size the per-boundary stitching overhead outweighs the split.
  size_t MinChunkBytes = 1 << 12;
  /// Test hook: explicit interior cut offsets (ascending, duplicates give
  /// empty chunks). Overrides Threads/MinChunkBytes chunking when set.
  std::vector<uint64_t> CutOverride;
  /// Run phase 1 on a ThreadPool of Threads workers; off runs the chunks
  /// one after another on the calling thread (same output, no speedup).
  bool UseThreadPool = true;
};

/// Per-run work counters for the `parallel.input.*` metrics.
struct InputParallelStats {
  unsigned Threads = 0; ///< Chunk count actually used.
  uint64_t Chunks = 0;
  /// Chunks the join re-scanned in full: iMFAnt chunks whose carry was
  /// still alive at the chunk's end, DFA chunks whose state map stalled.
  uint64_t RescanFallbackChunks = 0;
  uint64_t OverlapBytes = 0; ///< Boundary bytes re-scanned at joins.
  /// Peak frontier over the iMFAnt carry re-scans: each starts inside a
  /// reachable configuration with injection off, so
  /// WidthBound::MaxActiveStates soundly dominates it — the differential
  /// harness asserts exactly that.
  uint32_t MaxCarryFrontier = 0;
  uint32_t MaxAliveClasses = 0; ///< Peak DFA state-map classes.
  uint64_t IsoMatches = 0;   ///< Matches found by in-chunk scans.
  uint64_t CarryMatches = 0; ///< Matches contributed by boundary carries.
};

/// Publishes \p Stats as `parallel.input.*` counters/gauges.
void recordInputParallelStats(const InputParallelStats &Stats,
                              obs::MetricsRegistry &Registry);

/// Chunk boundaries for \p Len input bytes under \p Options, including 0
/// and \p Len: the CutOverride cuts when set, else an even split into at
/// most Threads chunks of at least MinChunkBytes each.
std::vector<uint64_t> inputChunkBounds(const InputParallelOptions &Options,
                                       size_t Len);

/// The pool an input-parallel scan of \p Chunks chunks runs on: min(Threads,
/// Chunks) workers when \p Options.UseThreadPool asks for one and there are
/// at least two chunks and two threads; null otherwise.
std::unique_ptr<ThreadPool> makeInputPool(const InputParallelOptions &Options,
                                          size_t Chunks);

/// Runs \p Body(I) for I in [0, N) on \p Pool, or serially on the calling
/// thread when \p Pool is null. Bodies must write only their own result
/// slot; the call returns once every body has finished.
void forEachChunk(ThreadPool *Pool, size_t N,
                  const std::function<void(size_t)> &Body);

/// One input-parallel executor bound to a sequential engine. Construction
/// only binds the engine or automaton; run() is const and allocates only
/// per-run scratch, so one executor may be shared across threads. The
/// referenced engine/automaton must outlive the executor.
class InputParallelRun {
public:
  InputParallelRun(const ImfantEngine &Engine,
                   InputParallelOptions Options = {});
  InputParallelRun(const Dfa &Automaton, InputParallelOptions Options = {});
  InputParallelRun(const StridedDfa &Automaton,
                   InputParallelOptions Options = {});

  /// Scans \p Input, reporting every (global rule, end offset) match into
  /// \p Recorder — byte-identical to the bound sequential engine, in
  /// nondecreasing end-offset order. \p Stats, when non-null, additionally
  /// collects per-chunk traversal statistics (slightly slower on the
  /// iMFAnt backend; use a separate run for timing sequential baselines).
  /// \p Pool, when non-null, runs phase 1 instead of a pool of the run's
  /// own, so a caller scanning several engines over one input starts its
  /// workers once (see makeInputPool).
  void run(std::string_view Input, MatchRecorder &Recorder,
           InputParallelStats *Stats = nullptr,
           ThreadPool *Pool = nullptr) const;

  const InputParallelOptions &options() const { return Opts; }

private:
  enum class Backend : uint8_t { Imfant, Dfa, Stride2 };

  void runImfant(std::string_view Input,
                 const std::vector<uint64_t> &Bounds, MatchRecorder &Recorder,
                 InputParallelStats *Stats, ThreadPool *Pool) const;
  template <class Policy>
  void runDfaFamily(const Policy &P, std::string_view Input,
                    const std::vector<uint64_t> &Bounds,
                    MatchRecorder &Recorder, InputParallelStats *Stats,
                    ThreadPool *Pool) const;

  Backend Kind;
  InputParallelOptions Opts;

  // iMFAnt backend.
  const ImfantEngine *Imfant = nullptr;

  // DFA-family backend.
  const Dfa *Automaton = nullptr;
  const StridedDfa *Strided = nullptr;
};

} // namespace mfsa

#endif // MFSA_ENGINE_INPUTPARALLEL_H
