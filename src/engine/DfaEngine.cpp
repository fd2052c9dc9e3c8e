//===- DfaEngine.cpp - dense DFA scanning engine --------------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/DfaEngine.h"

#include "obs/Metrics.h"

using namespace mfsa;

void DfaEngine::setMetrics(obs::MetricsRegistry *Registry) {
  if (!Registry) {
    Metrics = ScanMetricHandles{};
    return;
  }
  Metrics.Bytes = &Registry->counter("dfa.bytes_scanned");
  Metrics.Transitions = &Registry->counter("dfa.transitions_touched");
  Metrics.Matches = &Registry->counter("dfa.matches");
  Metrics.Frontier =
      &Registry->histogram("dfa.frontier_size", obs::pow2Buckets(12));
  Metrics.ActiveRules =
      &Registry->histogram("dfa.active_rules", obs::pow2Buckets(12));
  Metrics.TransitionsPerByte = &Registry->histogram(
      "dfa.transitions_per_byte", obs::pow2Buckets(14));
  Registry->gauge("dfa.states").set(Automaton.NumStates);
  Registry->gauge("dfa.rules").set(Automaton.NumRules);
}

void DfaEngine::run(std::string_view Input, MatchRecorder &Recorder) const {
#if MFSA_METRICS_ENABLED
  const uint64_t MatchesBefore = Recorder.total();
#endif
  scan(Automaton.start(), Input, 0, Input.size(),
       [&](uint32_t Rule, uint64_t End) { Recorder.onMatch(Rule, End); });
#if MFSA_METRICS_ENABLED
  if (Metrics.Bytes) {
    // One lookup per byte, and the occupancy histograms sample the constant
    // 1 every scanSampleEvery() bytes.
    for (uint64_t Sample = Input.size() / obs::scanSampleEvery(); Sample;
         --Sample) {
      Metrics.Frontier->observe(1);
      Metrics.ActiveRules->observe(1);
      Metrics.TransitionsPerByte->observe(1);
    }
    Metrics.Bytes->add(Input.size());
    Metrics.Transitions->add(Input.size());
    Metrics.Matches->add(Recorder.total() - MatchesBefore);
  }
#endif
}
