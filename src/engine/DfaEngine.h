//===- DfaEngine.h - dense DFA scanning engine ------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares DfaEngine, the single-active-state baseline of the paper's §II:
/// one table lookup per input byte, the upper-bound-throughput counterpart
/// to the NFA engines — paid for in DFA state count (see Determinize.h).
/// Matches, semantics, and recorders are shared with ImfantEngine, so the
/// two engines cross-validate each other in the tests.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ENGINE_DFAENGINE_H
#define MFSA_ENGINE_DFAENGINE_H

#include "engine/Imfant.h"
#include "fsa/Determinize.h"

#include <string_view>
#include <utility>

namespace mfsa {

/// Executes a scanning Dfa over an input stream. The engine owns its Dfa;
/// run() is const and thread-safe.
class DfaEngine {
public:
  explicit DfaEngine(Dfa Automaton) : Automaton(std::move(Automaton)) {}

  /// Scans \p Input, reporting (rule, end offset) matches into \p Recorder
  /// with the same semantics as ImfantEngine::run: scan() from the start
  /// state at base 0.
  void run(std::string_view Input, MatchRecorder &Recorder) const;

  /// The DFA's one step: consumes Chunk[Pos] — \p Chunk holding the stream
  /// bytes from absolute offset \p Base on — from \p State, and reports
  /// the accepts of the state it reaches as Emit(global rule, end offset).
  /// \returns the bytes consumed (always 1).
  template <class EmitT>
  size_t step(uint32_t &State, std::string_view Chunk, size_t Pos,
              uint64_t Base, EmitT &&Emit) const {
    State = Automaton.Next[static_cast<size_t>(State) * Automaton.NumAtoms +
                           Automaton.AtomOfByte[static_cast<unsigned char>(
                               Chunk[Pos])]];
    emitAccepts(Automaton.Accept[State], Base + Pos + 1, Emit);
    return 1;
  }

  /// Reports the `$`-anchored accepts of \p State at the stream's end.
  template <class EmitT>
  void emitAtEnd(uint32_t State, uint64_t StreamEnd, EmitT &&Emit) const {
    emitAccepts(Automaton.AcceptAtEnd[State], StreamEnd, Emit);
  }

  /// Steps through all of \p Chunk from \p State; AcceptAtEnd fires only
  /// when the chunk consumes the final byte of a \p StreamEnd-byte stream.
  /// \returns the exit state. The input-parallel state map and join
  /// (engine/InputParallel.cpp) scan through step() and scan() as well.
  template <class EmitT>
  uint32_t scan(uint32_t State, std::string_view Chunk, uint64_t Base,
                uint64_t StreamEnd, EmitT &&Emit) const {
    for (size_t Pos = 0; Pos < Chunk.size();)
      Pos += step(State, Chunk, Pos, Base, Emit);
    if (!Chunk.empty() && Base + Chunk.size() == StreamEnd)
      emitAtEnd(State, StreamEnd, Emit);
    return State;
  }

  /// Attaches `dfa.*` scan instrumentation. A DFA's frontier and per-byte
  /// transition count are constant 1 — the whole point of the baseline —
  /// so the occupancy histograms degenerate accordingly; keeping them makes
  /// every engine emit the same metric shape for the bench tooling.
  void setMetrics(obs::MetricsRegistry *Registry);

  const Dfa &automaton() const { return Automaton; }
  uint32_t numStates() const { return Automaton.NumStates; }
  size_t footprintBytes() const { return Automaton.footprintBytes(); }

private:
  struct ScanMetricHandles {
    obs::Counter *Bytes = nullptr;
    obs::Counter *Transitions = nullptr;
    obs::Counter *Matches = nullptr;
    obs::Histogram *Frontier = nullptr;
    obs::Histogram *ActiveRules = nullptr;
    obs::Histogram *TransitionsPerByte = nullptr;
  };

  template <class EmitT>
  void emitAccepts(const DynamicBitset &Rules, uint64_t End,
                   EmitT &Emit) const {
    if (Rules.any())
      Rules.forEach(
          [&](unsigned Rule) { Emit(Automaton.GlobalIds[Rule], End); });
  }

  Dfa Automaton;
  ScanMetricHandles Metrics;
};

} // namespace mfsa

#endif // MFSA_ENGINE_DFAENGINE_H
