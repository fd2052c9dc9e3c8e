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
/// PaREM and *Simultaneous Finite Automata* (PAPERS.md) are the lineage;
/// the MFSA twist is that the speculative start set of a non-initial chunk
/// is an activation-set object the CostModel already bounds.
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
///    injection off. Phase 1 runs (a) per chunk in parallel, and bounds (b)
///    speculatively: a *death probe* propagates the union frontier (every
///    CostModel-reachable state seeded with its possible-rule mask) through
///    an overlap window; if it dies at offset D, monotonicity guarantees
///    any real carry dies by D, so the join only re-scans ≤ D boundary
///    bytes. If the probe survives and the fan-out is small, phase 1
///    records *per-start-state outcome tables* (matches + exit activation
///    per speculative start state, exact per rule by the affine argument),
///    making the join a masked table lookup. Otherwise the join falls back
///    to a sequential carry re-scan of that chunk — always correct, no
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
//===----------------------------------------------------------------------===//

#ifndef MFSA_ENGINE_INPUTPARALLEL_H
#define MFSA_ENGINE_INPUTPARALLEL_H

#include "analysis/CostModel.h"
#include "engine/Imfant.h"
#include "engine/MultiStride.h"
#include "fsa/Determinize.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mfsa {

class ThreadPool;

namespace obs {
class MetricsRegistry;
} // namespace obs

/// Knobs for an input-parallel run.
struct InputParallelOptions {
  /// Target chunk count T. Chunk 0 runs the normal engine; chunks 1..T-1
  /// start speculatively. Values ≤ 1 degrade to a plain sequential scan.
  unsigned Threads = 2;
  /// Inputs shorter than Threads × MinChunkBytes use fewer chunks: below
  /// this size the per-boundary stitching overhead outweighs the split.
  size_t MinChunkBytes = 1 << 12;
  /// iMFAnt speculation: how many bytes the union-frontier death probe may
  /// consume before the chunk is declared speculation-hostile (0 = the
  /// whole chunk). This is the maximum boundary overlap window the join
  /// will re-scan when the probe dies.
  size_t MaxSpecWindowBytes = 1 << 16;
  /// iMFAnt speculation: per-start outcome tables are recorded only when
  /// the speculative frontier has at most this many start states — each
  /// start state costs one full chunk propagation in phase 1, so a large
  /// fan-out is priced out.
  uint32_t MaxSpecStartStates = 8;
  /// DFA state-map guard: abandon a chunk's map (join re-scans it
  /// sequentially) if the live class count still exceeds this after the
  /// overlap window — collapse normally reaches ~1 class within bytes.
  uint32_t MaxMapClasses = 64;
  /// Test hook: explicit interior cut offsets (ascending, duplicates give
  /// empty chunks). Overrides Threads/MinChunkBytes chunking when set.
  std::vector<uint64_t> CutOverride;
  /// Optional static width facts for the engine's source Mfsa (iMFAnt
  /// backend only): restricts the speculative frontier to the
  /// antichain-reachable states and lets callers assert observed
  /// speculative frontiers against the bound. Must outlive the run.
  const WidthBound *Width = nullptr;
  /// Run phase 1 on a ThreadPool of Threads workers. Off by default: the
  /// scaling bench times each chunk in isolation on one core and reports
  /// the modeled (critical-path) wall, which is deterministic on any
  /// machine (docs/performance.md).
  bool UseThreadPool = false;
};

/// Per-run observability for the `parallel.input.*` metrics and the
/// scaling bench's modeled-speedup computation.
struct InputParallelStats {
  unsigned Threads = 0; ///< Chunk count actually used.
  uint64_t Chunks = 0;
  uint64_t SpecDeadChunks = 0;  ///< Probe died: bounded overlap re-scan.
  uint64_t SpecTableChunks = 0; ///< Join resolved by table lookup.
  uint64_t RescanFallbackChunks = 0; ///< Sequential carry re-scan.
  uint64_t OverlapBytes = 0;  ///< Boundary bytes re-scanned at joins.
  uint64_t SpecStartRuns = 0; ///< Per-start-state speculative scans.
  /// Peak frontier over speculative per-start runs and carry re-scans
  /// (iMFAnt): each starts inside a reachable configuration with injection
  /// off, so WidthBound::MaxActiveStates soundly dominates it — the
  /// differential harness asserts exactly that.
  uint32_t MaxSpecFrontier = 0;
  uint32_t MaxAliveClasses = 0; ///< Peak DFA state-map classes.
  uint64_t IsoMatches = 0;   ///< Matches found by in-chunk scans.
  uint64_t CarryMatches = 0; ///< Matches contributed by boundary carries.
  /// Per-chunk phase-1 seconds (index = chunk). With UseThreadPool off the
  /// chunks run serially but are timed independently, so
  /// max + JoinSeconds models the T-thread critical path.
  std::vector<double> ChunkPhase1Seconds;
  double JoinSeconds = 0.0; ///< Sequential stitching time.

  /// Critical-path wall model: slowest chunk plus the sequential join.
  double modeledWallSeconds() const;
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
/// precomputes the speculative frontier (iMFAnt) or validates the automaton
/// (DFA family); run() is const and allocates only per-run scratch, so one
/// executor may be shared across threads. The referenced engine/automaton
/// must outlive the executor.
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
  /// Speculative union frontier: every state the CostModel says can be
  /// active mid-stream, seeded with its possible-rule mask (a sound
  /// superset of any real boundary activation).
  ActivationSet SpecSeed;
  /// Dataset global id -> engine-local rule, for masking per-start outcome
  /// tables (recorded in global ids) against local activation bitsets.
  std::unordered_map<uint32_t, uint32_t> GlobalToLocal;

  // DFA-family backend.
  const Dfa *Automaton = nullptr;
  const StridedDfa *Strided = nullptr;
};

} // namespace mfsa

#endif // MFSA_ENGINE_INPUTPARALLEL_H
