//===- InputParallel.h - input-parallel single-stream scanning --*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares the input-parallel executors, one makeChunkScan() overload per
/// group engine, and runChunkScans(), the driver that schedules them: the
/// input-parallel axis the ROADMAP pairs with the paper's automata-parallel
/// §VI-C2 pool. Split ONE input into T chunks, scan the chunks
/// independently, and stitch the results at the cut points so the output
/// is byte-identical to a sequential scan. PaREM and *Simultaneous Finite
/// Automata* (PAPERS.md) are the lineage. PlannedEngineSet (engine/
/// PlannedEngine.h) runs every group of a plan in one pool round: the
/// (group, chunk) tasks share one queue, as the paper's workers share the
/// remaining automata, and each group's join runs on the worker that
/// finishes its last chunk.
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
///    injection off. The chunk tasks run (a) in parallel. The join runs
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
///    join threads the real boundary state through the maps: the state
///    entering a chunk selects a class, whose merge chain of log segments
///    is exactly the sequential matches (forwarded later) and whose exit
///    enters the next chunk. Every class steps through the engine's own
///    step()/scan(), the loop its run() uses, so the two cannot drift
///    apart.
///
///  - **Prefilter gate** (engine/Prefilter.h): the literal scan splits by
///    chunk and the confirm windows by cost; no state crosses a cut.
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

#include "engine/DfaEngine.h"
#include "engine/Imfant.h"
#include "engine/MultiStride.h"

#include <cstdint>
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
  /// Run every task and join on a ThreadPool of up to Threads workers; off
  /// runs them on the calling thread, group after group (same output, no
  /// speedup).
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

/// One group's input-parallel scan of \p Input split at \p Bounds
/// (inputChunkBounds() of the run's options), as the work runChunkScans()
/// schedules: phases of independent tasks, each phase closed by a join.
/// Phase 0 has one task per chunk. The task that finishes a phase runs the
/// join, which either ends the scan or opens the next phase (the gate's
/// confirm runs). Matches carry global rule ids and absolute end offsets.
class ChunkScan {
public:
  ChunkScan(std::string_view Input, const std::vector<uint64_t> &Bounds)
      : Input(Input), Bounds(Bounds) {}
  ChunkScan(const ChunkScan &) = delete;
  ChunkScan &operator=(const ChunkScan &) = delete;
  virtual ~ChunkScan() = default;

  size_t numChunks() const { return Bounds.size() - 1; }

  /// Runs task \p I of the current phase. Tasks of one phase write only
  /// their own slot and may run concurrently on any thread.
  virtual void runTask(size_t I) = 0;

  /// Runs once every task of the current phase has returned. \returns the
  /// next phase's task count, 0 when the scan is done.
  virtual size_t join() = 0;

  /// Reports the finished scan's matches into \p Recorder, in the order
  /// the engine's executor defines (below and engine/Prefilter.h).
  virtual void forward(MatchRecorder &Recorder) = 0;

  /// The joins' work counters; Threads and Chunks are the caller's.
  InputParallelStats Stats;

protected:
  std::string_view chunk(size_t I) const {
    return Input.substr(Bounds[I], Bounds[I + 1] - Bounds[I]);
  }
  /// Whether chunk \p I consumes the stream's final byte: `$`-pending
  /// flushes and AcceptAtEnd belong to it, NOT to a trailing empty chunk.
  bool flushesEnd(size_t I) const {
    return Bounds[I] < Bounds[I + 1] && Bounds[I + 1] == Input.size();
  }

  const std::string_view Input;
  const std::vector<uint64_t> &Bounds;
};

/// Runs \p Scans, the groups of one plan over the same chunks, in one pool
/// round: every scan's phase-0 tasks are queued group-major on \p Pool, the
/// worker that finishes a phase runs that scan's join, and the calling
/// thread forwards each scan's matches into \p Recorder in group order as
/// soon as that scan is done, then releases it. With a null \p Pool every
/// task and join runs on the calling thread, group after group. \p Stats,
/// when non-null, accumulates the scans' counters (peaks take the maximum).
void runChunkScans(std::vector<std::unique_ptr<ChunkScan>> Scans,
                   ThreadPool *Pool, MatchRecorder &Recorder,
                   InputParallelStats *Stats);

/// The input-parallel executors, one overload per group engine (the
/// prefilter's is in engine/Prefilter.h); each scan's forward() reports
/// the engine's run() match set in nondecreasing end-offset order.
///  - iMFAnt: a chunk task is the chunk's iso scan, sorted; the join re-scans
///    each boundary carry until it dies and merges its matches in, with
///    per-chunk (rule, end) dedup.
///  - DFA / stride-2: chunk 0's task scans from the start state, the others
///    build state maps; the join threads the live state through the maps,
///    re-scanning a chunk whose map stalled.
std::unique_ptr<ChunkScan> makeChunkScan(const ImfantEngine &Engine,
                                         std::string_view Input,
                                         const std::vector<uint64_t> &Bounds);
std::unique_ptr<ChunkScan> makeChunkScan(const DfaEngine &Engine,
                                         std::string_view Input,
                                         const std::vector<uint64_t> &Bounds);
std::unique_ptr<ChunkScan> makeChunkScan(const StridedDfaEngine &Engine,
                                         std::string_view Input,
                                         const std::vector<uint64_t> &Bounds);

} // namespace mfsa

#endif // MFSA_ENGINE_INPUTPARALLEL_H
