//===- MultiStride.cpp - 2-stride DFA transformation ----------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/MultiStride.h"

#include "obs/Metrics.h"

using namespace mfsa;

Result<StridedDfa> mfsa::makeStride2(const Dfa &Automaton,
                                     const StrideOptions &Options) {
  const uint64_t Entries = static_cast<uint64_t>(Automaton.NumStates) *
                           Automaton.NumAtoms * Automaton.NumAtoms;
  if (Entries > Options.MaxTableEntries)
    return Result<StridedDfa>::error(
        "stride-2 table blowup: " + std::to_string(Entries) +
        " entries exceed the cap of " +
        std::to_string(Options.MaxTableEntries));

  StridedDfa Out;
  Out.NumStates = Automaton.NumStates;
  Out.NumAtoms = Automaton.NumAtoms;
  Out.NumRules = Automaton.NumRules;
  Out.AtomOfByte = Automaton.AtomOfByte;
  Out.Accept = Automaton.Accept;
  Out.AcceptAtEnd = Automaton.AcceptAtEnd;
  Out.GlobalIds = Automaton.GlobalIds;

  const uint32_t A = Automaton.NumAtoms;
  Out.Mid = Automaton.Next; // identical layout: state x atom
  Out.MidAcceptAny.resize(Out.Mid.size());
  Out.Next2.resize(Entries);
  for (uint32_t S = 0; S < Automaton.NumStates; ++S)
    for (uint32_t A1 = 0; A1 < A; ++A1) {
      uint32_t MidState = Automaton.Next[static_cast<size_t>(S) * A + A1];
      Out.MidAcceptAny[static_cast<size_t>(S) * A + A1] =
          Automaton.Accept[MidState].any() ||
          Automaton.AcceptAtEnd[MidState].any();
      const uint32_t *MidRow = &Automaton.Next[static_cast<size_t>(MidState) * A];
      uint32_t *OutRow =
          &Out.Next2[(static_cast<size_t>(S) * A + A1) * A];
      for (uint32_t A2 = 0; A2 < A; ++A2)
        OutRow[A2] = MidRow[A2];
    }
  return Out;
}

void StridedDfaEngine::setMetrics(obs::MetricsRegistry *Registry) {
  if (!Registry) {
    Metrics = ScanMetricHandles{};
    return;
  }
  Metrics.Bytes = &Registry->counter("stride2.bytes_scanned");
  Metrics.Strides = &Registry->counter("stride2.strides");
  Metrics.Transitions = &Registry->counter("stride2.transitions_touched");
  Metrics.MidProbes = &Registry->counter("stride2.mid_accept_probes");
  Metrics.Matches = &Registry->counter("stride2.matches");
  Metrics.Frontier =
      &Registry->histogram("stride2.frontier_size", obs::pow2Buckets(12));
  Metrics.ActiveRules =
      &Registry->histogram("stride2.active_rules", obs::pow2Buckets(12));
  Metrics.TransitionsPerByte = &Registry->histogram(
      "stride2.transitions_per_byte", obs::pow2Buckets(14));
  Registry->gauge("stride2.states").set(Automaton.NumStates);
  Registry->gauge("stride2.rules").set(Automaton.NumRules);
}

void StridedDfaEngine::run(std::string_view Input,
                           MatchRecorder &Recorder) const {
#if MFSA_METRICS_ENABLED
  const uint64_t MatchesBefore = Recorder.total();
#endif
  uint64_t MidProbes = 0;
  scan(0, Input, 0, Input.size(),
       [&](uint32_t Rule, uint64_t End) { Recorder.onMatch(Rule, End); },
       &MidProbes);
#if MFSA_METRICS_ENABLED
  if (Metrics.Bytes) {
    const uint64_t FullStrides = Input.size() / 2;
    const uint64_t Tail = Input.size() % 2;
    // The occupancy histograms sample the constant 1 every
    // scanSampleEvery() full strides. One pair-table touch covers two
    // bytes; the per-byte histogram reports the cost the stride buys
    // (integer histogram: 1 rounds the true 0.5 up).
    for (uint64_t Sample = FullStrides / obs::scanSampleEvery(); Sample;
         --Sample) {
      Metrics.Frontier->observe(1);
      Metrics.ActiveRules->observe(1);
      Metrics.TransitionsPerByte->observe(1);
    }
    Metrics.Bytes->add(Input.size());
    Metrics.Strides->add(FullStrides + Tail);
    Metrics.Transitions->add(FullStrides + Tail + MidProbes);
    Metrics.MidProbes->add(MidProbes);
    Metrics.Matches->add(Recorder.total() - MatchesBefore);
  }
#endif
}
