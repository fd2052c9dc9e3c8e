//===- Prefilter.h - literal-prefiltered ruleset matcher --------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares PrefilterEngine, the Hyperscan-style decomposition baseline the
/// paper positions itself against (§I/§VII, Wang et al. NSDI'19): rules with
/// a mandatory literal and a bounded match length are matched lazily — an
/// Aho-Corasick pass over the stream finds literal hits, and each rule's own
/// automaton runs only inside a bounded window around its hits. Rules the
/// analysis cannot prefilter (anchored, literal-poor, or unbounded) fall
/// back to one merged MFSA scanned in full.
///
/// The engine is built from compiled MFSAs, the same ones every other engine
/// scans (in memory or loaded from an artifact). Each rule's automaton is
/// extracted from its group; the rule texts are read only for their
/// mandatory literals. The prefiltered/residual split is the planner's own
/// (profileLiterals, analysis/CostModel.h), so the partition it prices is
/// the partition that runs.
///
/// Match output is identical to running every rule everywhere: every match
/// of a prefiltered rule contains its mandatory literal, every literal
/// occurrence spawns a window wide enough (± MaxMatchLength) to contain all
/// matches through it, and overlapping windows are coalesced so no (rule,
/// end) pair reports twice.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ENGINE_PREFILTER_H
#define MFSA_ENGINE_PREFILTER_H

#include "engine/AhoCorasick.h"
#include "engine/Imfant.h"
#include "engine/InputParallel.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mfsa {

/// Ruleset matcher combining literal prefiltering with MFSA fallback.
class PrefilterEngine {
public:
  /// Builds the engine over the rules of \p Mfsas. \p Patterns is the
  /// dataset ruleset indexed by the rules' GlobalIds; a rule without a
  /// parseable pattern there joins the residual.
  static PrefilterEngine create(const std::vector<Mfsa> &Mfsas,
                                const std::vector<std::string> &Patterns);

  /// Scans \p Input with the same (rule, end offset) semantics as
  /// ImfantEngine over the full ruleset.
  void run(std::string_view Input, MatchRecorder &Recorder) const;

  /// Input-parallel scan with run()'s match set, in three phases on one
  /// pool of \p Options.Threads workers (when UseThreadPool is set):
  ///  1. the residual rules through InputParallelRun over \p Options'
  ///     chunks;
  ///  2. the literal scan in the same chunks: slice i scans
  ///     [b_i - (Lmax - 1), b_{i+1}) and keeps only hits whose end offset
  ///     lies in (b_i, b_{i+1}], so every occurrence is found by exactly one
  ///     slice and the per-rule hit lists concatenate, in slice order, to
  ///     the sequential ones;
  ///  3. confirmation: the windows are coalesced exactly as in run(), split
  ///     into contiguous runs of about equal cost, one per worker, and each
  ///     worker's matches are replayed into \p Recorder in run()'s rule and
  ///     window order.
  /// \p Stats, when non-null, receives the residual executor's chunk
  /// counters (or just the chunk count when every rule is prefiltered).
  /// \p Pool, when non-null, is used instead of a pool of the call's own.
  void runInputParallel(std::string_view Input, MatchRecorder &Recorder,
                        const InputParallelOptions &Options,
                        InputParallelStats *Stats = nullptr,
                        ThreadPool *Pool = nullptr) const;

  size_t numPrefiltered() const { return PrefilteredRules.size(); }
  size_t numResidual() const { return NumResidualRules; }

  /// Attaches `prefilter.*` instrumentation: literal hits, confirm-window
  /// construction (count, coalesced length, bytes rescanned) and pass/drop
  /// outcomes, plus the prefiltered/residual rule split as gauges. The
  /// nested confirm and residual engines keep their own hooks detached;
  /// only aggregate prefilter behaviour is reported here.
  void setMetrics(obs::MetricsRegistry *Registry);

private:
  PrefilterEngine() = default;

  /// One literal-gated rule: its confirmation engine and window bound.
  struct PrefilteredRule {
    std::unique_ptr<ImfantEngine> Confirm;
    uint32_t MaxMatchLength = 0;
  };

  /// One coalesced confirm window: rule RuleIdx's automaton runs over
  /// [Begin, End) of the input.
  struct ConfirmWindow {
    uint32_t RuleIdx = 0;
    size_t Begin = 0;
    size_t End = 0;
  };

  using Match = std::pair<uint32_t, uint64_t>; ///< (global rule, end).

  /// Widens each rule's sorted literal hit ends \p Hits into
  /// ±MaxMatchLength windows and coalesces overlaps, in rule then window
  /// order. Windows of one rule are disjoint, so no (rule, end) pair can be
  /// reported twice.
  std::vector<ConfirmWindow>
  coalesceWindows(const std::vector<std::vector<size_t>> &Hits,
                  size_t InputSize) const;

  /// Runs \p W's confirm automaton, appending its matches with absolute
  /// end offsets to \p Out. \returns whether the window matched.
  bool confirm(const ConfirmWindow &W, std::string_view Input,
               std::vector<Match> &Out) const;

  /// Publishes one scan's `prefilter.*` counts (no-op when detached).
  void recordScan(size_t Bytes, const std::vector<std::vector<size_t>> &Hits,
                  const std::vector<ConfirmWindow> &Windows,
                  uint64_t WindowsConfirmed, uint64_t Matches) const;

  struct ScanMetricHandles {
    obs::Counter *Bytes = nullptr;
    obs::Counter *LiteralHits = nullptr;
    obs::Counter *Windows = nullptr;
    obs::Counter *WindowBytes = nullptr;
    obs::Counter *WindowsConfirmed = nullptr;
    obs::Counter *WindowsDropped = nullptr;
    obs::Counter *Matches = nullptr;
    obs::Histogram *WindowLen = nullptr;
  };

  std::vector<PrefilteredRule> PrefilteredRules;
  std::unique_ptr<AhoCorasick> Literals; ///< Index-aligned with the rules.
  std::unique_ptr<ImfantEngine> Residual;
  size_t NumResidualRules = 0;
  ScanMetricHandles Metrics;
};

} // namespace mfsa

#endif // MFSA_ENGINE_PREFILTER_H
