//===- Trace.h - activation-function execution tracing ----------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares traceActivation(), which records, per consumed symbol, every
/// active state with its activation set J and every match — the
/// information the paper's Fig. 3 and Fig. 6 walkthroughs display. The
/// trace comes from the scanner that runs: an ImfantEngine::Scanner fed one
/// byte at a time, its activation captured after each byte, so Eq. 4-6
/// exist once, in the engine. Intended for debugging merged rulesets and
/// for teaching the activation-function rules.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ENGINE_TRACE_H
#define MFSA_ENGINE_TRACE_H

#include "mfsa/Mfsa.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mfsa {

/// The activation snapshot after consuming one input symbol.
struct TraceStep {
  uint64_t Offset = 0;    ///< Offset *after* consuming Symbol.
  unsigned char Symbol = 0;

  /// One active state with the rules J(q) active on it.
  struct ActiveEntry {
    StateId State = 0;
    std::vector<RuleId> ActiveRules;
  };
  std::vector<ActiveEntry> Active; ///< Sorted by state id.

  /// Matches reported at this offset: (local rule, global id).
  std::vector<std::pair<RuleId, uint32_t>> Matches;
};

/// Scans \p Z over \p Input with ImfantEngine, one byte per step; the
/// `$` rules report at the final offset, on the last step.
std::vector<TraceStep> traceActivation(const Mfsa &Z, std::string_view Input);

namespace obs {
class Counter;
class Histogram;
class MetricsRegistry;
} // namespace obs

/// Event consumer for a replayed activation trace. replayTrace() turns the
/// per-step snapshots of traceActivation() into a deterministic event
/// stream; per consumed symbol the order is fixed:
///
///   1. onRuleDeactivated — rules pruned by rule (6), ascending rule id;
///   2. onRuleActivated   — rules injected by rule (4), ascending rule id;
///   3. onMatch           — rule (5) matches at this offset, ascending;
///   4. onStep            — the step summary (offset, symbol, occupancy).
///
/// A rule is "active" at a step when it appears in any state's J set. All
/// callbacks default to no-ops so sinks override only what they consume.
class TraceSink {
public:
  virtual ~TraceSink() = default;

  virtual void onRuleDeactivated(RuleId /*Rule*/, uint64_t /*Offset*/) {}
  virtual void onRuleActivated(RuleId /*Rule*/, uint64_t /*Offset*/) {}
  virtual void onMatch(RuleId /*Rule*/, uint32_t /*GlobalId*/,
                       uint64_t /*Offset*/) {}
  virtual void onStep(uint64_t /*Offset*/, unsigned char /*Symbol*/,
                      uint32_t /*ActiveStates*/, uint32_t /*ActiveRules*/) {}
};

/// Replays \p Z over \p Input through \p Sink in the event order documented
/// on TraceSink. Built on traceActivation(), so it shares its exact match
/// semantics — and its byte-at-a-time cost.
void replayTrace(const Mfsa &Z, std::string_view Input, TraceSink &Sink);

/// TraceSink that folds the event stream into `trace.*` metrics of a
/// MetricsRegistry: activation/deactivation/match/step counters plus the
/// per-step active-rule occupancy histogram. Unlike the engines' scan
/// hooks, tracing is a debugging path and is never compiled out.
class MetricsTraceSink : public TraceSink {
public:
  explicit MetricsTraceSink(obs::MetricsRegistry &Registry);

  void onRuleDeactivated(RuleId Rule, uint64_t Offset) override;
  void onRuleActivated(RuleId Rule, uint64_t Offset) override;
  void onMatch(RuleId Rule, uint32_t GlobalId, uint64_t Offset) override;
  void onStep(uint64_t Offset, unsigned char Symbol, uint32_t ActiveStates,
              uint32_t ActiveRules) override;

private:
  obs::Counter *Activations = nullptr;
  obs::Counter *Deactivations = nullptr;
  obs::Counter *Matches = nullptr;
  obs::Counter *Steps = nullptr;
  obs::Histogram *ActiveRulesHist = nullptr;
  obs::Histogram *ActiveStatesHist = nullptr;
};

/// Renders a trace in the style of the paper's Fig. 6 narration:
///
///   1) 'a' -> {3: J={0}}, {5: J={1}}   match: rule 1
///
std::string formatTrace(const Mfsa &Z, std::string_view Input);

} // namespace mfsa

#endif // MFSA_ENGINE_TRACE_H
