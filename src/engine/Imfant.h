//===- Imfant.h - iMFAnt execution engine -----------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares ImfantEngine, the execution engine of the paper's §V: an
/// extension of the iNFAnt NFA-matching algorithm that supports MFSAs.
///
/// The engine keeps a state vector of active states and, for each active
/// state, "the result of the activation function upon reaching it": a
/// per-state rule bitset J maintained according to the paper's rules
/// (4)-(6):
///
///   (4) crossing a transition out of rule j's initial state activates j;
///   (5) arriving in a final state of an active rule j reports a match;
///   (6) rules whose automaton lacks the crossed transition are deactivated
///       — implemented as J(q1) ∩ bel(t), since `bel` records exactly which
///       rules own each transition.
///
/// Pre-processing splits those rules over two index structures instead of
/// iNFAnt's single symbol-indexed table ("linking each symbol ... to the
/// transitions it enables"), because per byte only a small share of that
/// table's row leaves an active or initial state:
///
///   - Propagation (6) is state-major and class-indexed, the per-state
///     symbol-grouped layout of Mata's `SymbolPost` lists: bytes map to the
///     classes of the alphabet partition the labels induce
///     (computeAlphabetAtoms), and each state's out-edges are stored grouped
///     by class, an edge copied into every class its label covers. A step
///     maps its byte to a class once and walks, for each active state, just
///     the edges that class enables — no label test — ORing J ∩ bel into
///     each destination. An edge is {To, BelIdx}; belonging sets are
///     interned, and states with the same per-class edge counts share one
///     row of class offsets.
///   - Injection (4) stays symbol-indexed but is precomputed: for every byte
///     a list of (destination, mask) pairs, each mask the union of
///     initial-rules ∩ bel over the transitions out of initial states that
///     the byte enables, with `^` rules masked out; a second list adds the
///     `^` rules at offset 0. Injecting costs one OR per entry.
///   - Match reporting (5) runs after the step over the final states it
///     reached, as J(q) ∩ final-rules(q), deduplicated per (rule, offset).
///
/// The frontier is stamped rather than scrubbed: each state carries the
/// generation (step number) at which it last joined the frontier, so a
/// step's first arrival at a state overwrites its rule bitset and appends it
/// to the next frontier (and, when the state is final, to the final
/// arrivals), and no per-step clearing pass exists. A 64-bit stamp cannot
/// wrap.
///
/// The reported (rule, end offset) set is exactly iNFAnt's; the order of
/// matches within one end offset is unspecified (it follows the order in
/// which the step reached final states). Running a single-rule
/// MFSA (merging factor M = 1) degenerates to iNFAnt's semantics and serves
/// as the paper's baseline on the same scan loop.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ENGINE_IMFANT_H
#define MFSA_ENGINE_IMFANT_H

#include "mfsa/Mfsa.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace mfsa {

namespace obs {
class Counter;
class Histogram;
class MetricsRegistry;
} // namespace obs

/// Collects matches emitted by an engine run. A match is a (rule, end
/// offset) pair; the engine already deduplicates pairs arising from multiple
/// simultaneous paths. Within one engine run (one automaton, one DFA or one
/// Scanner stream) matches arrive in nondecreasing end-offset order, and
/// within one offset their order is engine-specific and unspecified.
/// PlannedEngineSet::run scans its groups one after another and reports
/// group by group, each group in its own offset order; for a prefilter plan
/// that is the residual group first, then the gate, which reports confirm
/// window after confirm window.
class MatchRecorder {
public:
  enum class Mode : uint8_t {
    CountOnly, ///< Only per-rule and total counters (benchmark default).
    Collect    ///< Also keep (global rule id, end offset) pairs, up to Cap.
  };

  explicit MatchRecorder(Mode Mode = Mode::CountOnly) : RecordMode(Mode) {}

  void onMatch(uint32_t GlobalRuleId, uint64_t EndOffset) {
    ++Total;
    if (GlobalRuleId >= PerRule.size())
      PerRule.resize(GlobalRuleId + 1, 0);
    ++PerRule[GlobalRuleId];
    if (RecordMode == Mode::Collect && Matches.size() < Cap)
      Matches.emplace_back(GlobalRuleId, EndOffset);
  }

  uint64_t total() const { return Total; }
  const std::vector<uint64_t> &perRule() const { return PerRule; }
  const std::vector<std::pair<uint32_t, uint64_t>> &matches() const {
    return Matches;
  }

  /// Maximum number of retained pairs in Collect mode.
  size_t Cap = size_t(1) << 22;

private:
  Mode RecordMode;
  uint64_t Total = 0;
  std::vector<uint64_t> PerRule;
  std::vector<std::pair<uint32_t, uint64_t>> Matches;
};

/// A sparse snapshot of a Scanner's activation configuration: the active
/// states paired with their rule bitsets, stored as one flat array of
/// Words-wide blocks. The input-parallel executor (engine/InputParallel.h)
/// uses these to hand the boundary frontier of one chunk to the scan of the
/// next.
struct ActivationSet {
  std::vector<StateId> States;
  std::vector<uint64_t> RuleBlocks; ///< States.size() × Words words.
  uint32_t Words = 0;

  bool empty() const { return States.empty(); }
  size_t size() const { return States.size(); }
  const uint64_t *block(size_t I) const { return &RuleBlocks[I * Words]; }
};

/// Per-run traversal statistics backing Table II (active-rule pressure).
struct RunStats {
  uint64_t Steps = 0;           ///< Input symbols consumed.
  double AvgActiveRules = 0.0;  ///< Mean |∪ J(q)| over steps.
  uint32_t MaxActiveRules = 0;  ///< Peak |∪ J(q)| over steps.
  uint32_t MaxFrontier = 0;     ///< Peak simultaneously-active states.
  /// Entries examined: the out-edges of active states that the byte enables
  /// (a step visits no others), plus per-symbol injection entries applied.
  uint64_t TransitionsEvaluated = 0;
  /// Active states walked: the frontier size summed over steps.
  uint64_t ActiveStates = 0;
  /// Final states reached and probed for matches (Eq. 5), summed over steps.
  uint64_t FinalProbes = 0;
};

/// The iMFAnt engine. Construction performs the algorithm's pre-processing
/// (byte classes, class-indexed out-edges, belonging pool, per-symbol
/// injection lists, per-state final metadata); run() is const and allocates
/// only per-run scratch, so one engine may be shared across threads.
class ImfantEngine {
public:
  explicit ImfantEngine(const Mfsa &Z);

  /// Scans \p Input, reporting every (rule, end-offset) match into
  /// \p Recorder. When \p Stats is non-null, traversal statistics are
  /// collected (slightly slower; use a separate run for timing).
  void run(std::string_view Input, MatchRecorder &Recorder,
           RunStats *Stats = nullptr) const;

  /// Incremental scanning over a stream that arrives in chunks (network
  /// payloads, file blocks): the activation state carries across feed()
  /// calls, matches spanning chunk boundaries are found, and offsets are
  /// absolute. finish() flushes the `$`-anchored matches pending at the
  /// final offset. A Scanner borrows its engine, which must outlive it.
  ///
  /// \code
  ///   ImfantEngine::Scanner Scan(Engine);
  ///   while (auto Chunk = nextChunk())
  ///     Scan.feed(*Chunk, Recorder);
  ///   Scan.finish(Recorder);
  /// \endcode
  class Scanner {
  public:
    explicit Scanner(const ImfantEngine &Engine);

    /// Consumes \p Chunk; reports all matches ending inside it (except
    /// `$`-anchored ones, which wait for finish()).
    void feed(std::string_view Chunk, MatchRecorder &Recorder,
              RunStats *Stats = nullptr);

    /// Marks end-of-stream: reports `$`-anchored matches at the final
    /// offset. The scanner must not be fed afterwards.
    void finish(MatchRecorder &Recorder);

    /// Absolute offset consumed so far.
    uint64_t offset() const { return AbsoluteOffset; }

    /// Repositions the stream's absolute offset before the first feed():
    /// an input-parallel chunk scan starting at byte B must see non-zero
    /// offsets so `^`-anchored injection stays suppressed (the anchor gate
    /// keys off offset 0). Only valid on a scanner that has consumed
    /// nothing.
    void startAt(uint64_t Offset);

    /// Enables/disables rule injection (Eq. 4). With injection off the
    /// scanner is a pure active-state walk of the seeded configuration — no
    /// new match attempt begins — and feed() returns early once the frontier
    /// dies, since nothing can revive it; offset() then reports the death
    /// position rather than the full fed length.
    void setInjection(bool Enabled);

    /// Merges \p Config into the current activation configuration.
    void seedActivation(const ActivationSet &Config);

    /// Snapshots the live activation configuration (states carrying at
    /// least one active rule).
    ActivationSet captureActivation() const;

    /// True when no state is active. With injection disabled this is
    /// permanent: propagation can only shrink the frontier.
    bool frontierEmpty() const { return CurSize == 0; }

  private:
    /// The scan step (Eq. 4-6), one body instantiated per rule-bitset
    /// width: FixedW words for the widths Table I plans and the service
    /// produce (1-5), where the word loops unroll, and FixedW = 0 for any
    /// wider MFSA, which reads the width from the engine.
    template <uint32_t FixedW>
    void feedLoop(std::string_view Chunk, MatchRecorder &Recorder,
                  RunStats *Stats);

    const ImfantEngine &Engine;
    uint64_t AbsoluteOffset = 0;
    bool Finished = false;
    bool InjectionEnabled = true;

    // Double-buffered rule bitsets and frontier lists. Stamp[s] == Gen iff
    // s is in the current frontier CurFrontier[0, CurSize); J slots of
    // states outside it are stale and never read. Lists hold NumStates.
    std::vector<uint64_t> CurJ, NextJ;
    std::vector<uint64_t> Stamp;
    uint64_t Gen = 1;
    std::vector<StateId> CurFrontier, NextFrontier, FinalArrivals;
    uint32_t CurSize = 0;
    std::vector<uint64_t> PendingAtEnd; ///< `$` rules matched at offset().

    // Metrics sampling cadence (only touched when the engine has metrics
    // attached and MFSA_METRICS_ENABLED builds the hooks in).
    uint32_t MetricsTick = 0;
  };

  uint32_t numStates() const { return NumStates; }
  uint32_t numRules() const { return NumRules; }
  /// 64-bit words per rule bitset (ActivationSet::Words for this engine).
  uint32_t ruleWords() const { return Words; }
  /// Local rule id -> dataset global rule id (the ids onMatch reports).
  const std::vector<uint32_t> &globalIds() const { return GlobalIds; }

  /// Points scan instrumentation at \p Registry (nullptr detaches). The
  /// engine resolves its `imfant.*` metric handles here, once, so the scan
  /// loop only performs relaxed atomic adds — and only in builds with
  /// MFSA_METRICS_ENABLED (see obs/Metrics.h); elsewhere the hooks are
  /// compiled out and this call merely caches pointers. Not thread-safe
  /// against concurrent run() calls: attach before sharing the engine.
  void setMetrics(obs::MetricsRegistry *Registry);

  /// Bytes of the pre-processed matching structure (class map, class-indexed
  /// adjacency, belonging pool, injection lists and activation metadata), a
  /// memory-footprint proxy for the benches.
  size_t footprintBytes() const;

private:
  friend class Scanner;

  /// Resolved metric handles; all null when detached. Distribution metrics
  /// (frontier size, active-set occupancy, transitions per byte) are
  /// sampled every obs::scanSampleEvery() bytes; counters stay exact.
  struct ScanMetricHandles {
    obs::Counter *Bytes = nullptr;
    obs::Counter *Transitions = nullptr;
    obs::Counter *Matches = nullptr;
    obs::Histogram *Frontier = nullptr;
    obs::Histogram *ActiveRules = nullptr;
    obs::Histogram *TransitionsPerByte = nullptr;
  };

  /// One class-indexed out-edge: a transition minus its source and label.
  struct OutEdge {
    StateId To;
    uint32_t BelIdx; ///< Index into BelPool (words offset = BelIdx * Words).
  };

  /// Where a state's out-edges live: the edges of class k span
  /// Edges[EdgeBase + Row[k], EdgeBase + Row[k+1]), Row being the class
  /// offsets at ClassRows[RowBase] (one per class, then the end).
  struct StateEdges {
    uint32_t EdgeBase;
    uint32_t RowBase;
  };

  /// Precomputed Eq. 4 injections: symbol c's entries span
  /// [Offsets[c], Offsets[c+1]); entry i ORs the Words-wide block at
  /// Masks[i * Words] into state To[i]'s J. Masks are never empty.
  struct InjectionList {
    std::vector<uint32_t> Offsets; ///< 257 entries; none if To is empty.
    std::vector<StateId> To;
    std::vector<uint64_t> Masks;

    size_t bytes() const {
      return Offsets.size() * 4 + To.size() * 4 + Masks.size() * 8;
    }
  };

  uint32_t NumStates = 0;
  uint32_t NumRules = 0;
  uint32_t Words = 0; ///< 64-bit words per rule bitset.

  /// Byte -> class of the alphabet partition the labels induce.
  std::vector<uint8_t> ClassOfByte;

  /// Class-indexed adjacency (propagation, Eq. 6). Edges with an empty
  /// label can never fire and are not stored.
  std::vector<OutEdge> Edges;
  std::vector<StateEdges> StateIndex; ///< One per state.
  std::vector<uint32_t> ClassRows;    ///< Interned rows of class offsets.

  std::vector<uint64_t> BelPool; ///< Deduplicated belonging bitsets.

  /// Injection at every offset (start-anchored rules excluded), and the
  /// start-anchored rules' extra injections, applied only at offset 0.
  InjectionList Inject;
  InjectionList InjectAtStart;

  /// Per-state match metadata, flat Words-wide blocks.
  std::vector<uint64_t> FinalRules; ///< Rules for which q is final.
  std::vector<uint8_t> FinalAny;    ///< Whether q is final for some rule.

  /// Mask excluding `$`-anchored rules away from the stream's end.
  std::vector<uint64_t> NotAnchoredEndMask;

  std::vector<uint32_t> GlobalIds; ///< Local rule -> dataset rule id.

  ScanMetricHandles Metrics;
};

} // namespace mfsa

#endif // MFSA_ENGINE_IMFANT_H
