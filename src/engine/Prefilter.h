//===- Prefilter.h - literal-prefiltered ruleset matcher --------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares PrefilterEngine, the literal gate of the Hyperscan-style
/// decomposition baseline the paper positions itself against (§I/§VII,
/// Wang et al. NSDI'19): rules with a mandatory literal and a bounded match
/// length are matched lazily — an Aho-Corasick pass over the stream finds
/// literal hits, and each rule's own automaton runs only inside a bounded
/// window around its hits.
///
/// The gate is one group of a prefilter plan (engine/PlannedEngine.h).
/// PlannedEngineSet splits the plan's rules by profileLiterals
/// (analysis/CostModel.h), the same partition the planner prices: the
/// gated rules' automata, extracted from the MFSAs every other engine
/// scans, build this gate, and the rules it cannot gate (anchored,
/// literal-poor, or unbounded) merge into one ordinary dense iMFAnt group
/// scanned before it.
///
/// Match output is identical to running every gated rule everywhere: every
/// match of a gated rule contains its mandatory literal, every literal
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

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mfsa {

/// Literal gate over a set of prefilterable rules.
class PrefilterEngine {
public:
  /// One literal-gated rule as profileLiterals judged it: its automaton,
  /// dataset rule id, mandatory literal and match-length bound.
  struct GatedRule {
    Nfa Fsa;
    uint32_t GlobalId = 0;
    std::string Literal;
    uint32_t MaxMatchLength = 0;
  };

  /// Builds the gate: one Aho-Corasick automaton over the literals and one
  /// confirmation engine per rule.
  explicit PrefilterEngine(std::vector<GatedRule> Rules);

  /// Scans \p Input with the same (rule, end offset) semantics as
  /// ImfantEngine over the gated rules, reporting window after window in
  /// rule then window order.
  void run(std::string_view Input, MatchRecorder &Recorder) const;

  size_t numPrefiltered() const { return PrefilteredRules.size(); }

  /// Attaches `prefilter.*` instrumentation: literal hits, confirm-window
  /// construction (count, coalesced length, bytes rescanned) and pass/drop
  /// outcomes, plus the gated rule count as a gauge. The nested confirm
  /// engines keep their own hooks detached; only aggregate gate behaviour
  /// is reported here.
  void setMetrics(obs::MetricsRegistry *Registry);

private:
  class GateScan;
  friend std::unique_ptr<ChunkScan>
  makeChunkScan(const PrefilterEngine &Gate, std::string_view Input,
                const std::vector<uint64_t> &Bounds);

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

  /// One confirm pass's scratch, reused window after window: the scanner
  /// is rebuilt only when the window's rule changes (windows arrive in rule
  /// order) and reset otherwise.
  struct ConfirmScratch {
    ConfirmScratch() { Window.Cap = std::numeric_limits<size_t>::max(); }
    std::optional<ImfantEngine::Scanner> Scan;
    uint32_t RuleIdx = 0;
    MatchRecorder Window{MatchRecorder::Mode::Collect};
  };

  /// Runs \p W's confirm automaton on \p Scratch, appending its matches
  /// with absolute end offsets to \p Out. \returns whether the window
  /// matched.
  bool confirm(const ConfirmWindow &W, std::string_view Input,
               ConfirmScratch &Scratch, std::vector<Match> &Out) const;

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
  ScanMetricHandles Metrics;
};

/// The gate's input-parallel executor (engine/InputParallel.h), run()'s
/// match sequence exactly:
///  - phase 0, the literal scan in \p Bounds' chunks: slice i scans
///    [b_i - (Lmax - 1), b_{i+1}) and keeps only hits whose end offset
///    lies in (b_i, b_{i+1}], so every occurrence is found by exactly one
///    slice and the per-rule hit lists concatenate, in slice order, to
///    the sequential ones;
///  - its join coalesces the windows exactly as in run() and splits them
///    into contiguous runs of about equal cost, one per chunk;
///  - phase 1 confirms one run per task, and forward() replays the runs'
///    matches in run()'s rule and window order.
/// No state crosses a cut, so the gate adds nothing to the stats.
std::unique_ptr<ChunkScan> makeChunkScan(const PrefilterEngine &Gate,
                                         std::string_view Input,
                                         const std::vector<uint64_t> &Bounds);

} // namespace mfsa

#endif // MFSA_ENGINE_PREFILTER_H
