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
  const uint32_t NumAtoms = Automaton.NumAtoms;
  const uint32_t *Next = Automaton.Next.data();
  const uint8_t *AtomOf = Automaton.AtomOfByte.data();

#if MFSA_METRICS_ENABLED
  const bool Observed = Metrics.Bytes != nullptr;
  const uint32_t SampleEvery = Observed ? obs::scanSampleEvery() : 0;
  uint32_t MetricsTick = 0;
  uint64_t MatchesBefore = Recorder.total();
#endif

  uint32_t State = Automaton.start();
  for (size_t Pos = 0; Pos < Input.size(); ++Pos) {
    State = Next[static_cast<size_t>(State) * NumAtoms +
                 AtomOf[static_cast<unsigned char>(Input[Pos])]];
    const DynamicBitset &Accept = Automaton.Accept[State];
    if (Accept.any())
      Accept.forEach([&](unsigned Rule) {
        Recorder.onMatch(Automaton.GlobalIds[Rule], Pos + 1);
      });
    if (Pos + 1 == Input.size()) {
      const DynamicBitset &AtEnd = Automaton.AcceptAtEnd[State];
      if (AtEnd.any())
        AtEnd.forEach([&](unsigned Rule) {
          Recorder.onMatch(Automaton.GlobalIds[Rule], Pos + 1);
        });
    }
#if MFSA_METRICS_ENABLED
    if (Observed && ++MetricsTick >= SampleEvery) {
      MetricsTick = 0;
      Metrics.Frontier->observe(1);
      Metrics.ActiveRules->observe(1);
      Metrics.TransitionsPerByte->observe(1);
    }
#endif
  }

#if MFSA_METRICS_ENABLED
  if (Observed) {
    Metrics.Bytes->add(Input.size());
    Metrics.Transitions->add(Input.size()); // exactly one lookup per byte
    Metrics.Matches->add(Recorder.total() - MatchesBefore);
  }
#endif
}
