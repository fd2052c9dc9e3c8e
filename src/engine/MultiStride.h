//===- MultiStride.h - 2-stride DFA transformation --------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the multi-stride baseline the paper's related work discusses
/// (§VII, [11][28][40]): a k-stride automaton consumes k symbols per
/// state-traversal, trading table size for fewer memory touches per byte.
/// This module squares a scanning Dfa into stride 2:
///
///   Next2[s][a1, a2] = Next[Next[s][a1]][a2]
///
/// with the mid-stride accept set recorded per (state, first atom) so
/// matches ending at odd offsets are still reported exactly. The stride-2
/// table is NumStates x NumAtoms^2 — the quadratic label-combination blowup
/// the paper cites as the approach's limiting factor, measured by
/// bench/abl_multistride.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ENGINE_MULTISTRIDE_H
#define MFSA_ENGINE_MULTISTRIDE_H

#include "engine/Imfant.h"
#include "fsa/Determinize.h"
#include "support/Result.h"

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace mfsa {

/// A stride-2 scanning DFA derived from a Dfa.
struct StridedDfa {
  uint32_t NumStates = 0;
  uint32_t NumAtoms = 0; ///< Single-symbol atoms; pairs index as a1*NumAtoms+a2.
  uint32_t NumRules = 0;

  /// Next2[State * NumAtoms^2 + a1 * NumAtoms + a2].
  std::vector<uint32_t> Next2;
  std::vector<uint8_t> AtomOfByte;

  /// Mid[State * NumAtoms + a1] = state after the first half-step, used for
  /// mid-stride accept lookup and for the odd trailing byte.
  std::vector<uint32_t> Mid;

  /// MidAcceptAny[State * NumAtoms + a1] — nonzero when the half-step state
  /// accepts something, so the hot loop touches Mid only on real mid-stride
  /// matches (the trick that preserves the stride advantage).
  std::vector<uint8_t> MidAcceptAny;

  std::vector<DynamicBitset> Accept;
  std::vector<DynamicBitset> AcceptAtEnd;
  std::vector<uint32_t> GlobalIds;

  size_t footprintBytes() const {
    return Next2.size() * 4 + Mid.size() * 4 + AtomOfByte.size() +
           GlobalIds.size() * 4 +
           (Accept.empty()
                ? 0
                : Accept.size() * Accept.front().words().size() * 8 * 2);
  }
};

/// Options guarding the quadratic table growth.
struct StrideOptions {
  /// Reject when NumStates * NumAtoms^2 exceeds this many table entries.
  uint64_t MaxTableEntries = 1ull << 26;
};

/// Squares \p Automaton into stride 2; fails when the pair table would
/// exceed Options.MaxTableEntries (the blowup is the measured result).
Result<StridedDfa> makeStride2(const Dfa &Automaton,
                               const StrideOptions &Options = {});

/// Executes a stride-2 DFA with the library's (rule, end-offset) match
/// semantics; equivalent to DfaEngine over the original automaton. The
/// engine owns its automaton; run() is const and thread-safe.
class StridedDfaEngine {
public:
  explicit StridedDfaEngine(StridedDfa Automaton)
      : Automaton(std::move(Automaton)) {}

  /// scan() from state 0 at base 0.
  void run(std::string_view Input, MatchRecorder &Recorder) const;

  /// The stride-2 step at Chunk[Pos], \p Chunk holding the stream bytes
  /// from absolute offset \p Base on. Pairs sit at EVEN absolute offsets:
  /// an even offset with both bytes in the chunk takes one pair-table
  /// stride (probing the mid-stride accepts only when MidAcceptAny says
  /// the half-step state accepts, counted into \p MidProbes when non-null);
  /// anything else — a chunk starting or ending inside a pair, or the
  /// stream's odd last byte — takes one Mid half-step, Mid being the
  /// stride-1 table. So the output is byte-identical under any chunking.
  /// Accepts are reported as Emit(global rule, end offset). \returns the
  /// bytes consumed (2 or 1).
  template <class EmitT>
  size_t step(uint32_t &State, std::string_view Chunk, size_t Pos,
              uint64_t Base, EmitT &&Emit,
              uint64_t *MidProbes = nullptr) const {
    const StridedDfa &D = Automaton;
    const size_t Cell = static_cast<size_t>(State) * D.NumAtoms +
                        D.AtomOfByte[static_cast<unsigned char>(Chunk[Pos])];
    const uint64_t Abs = Base + Pos;
    if (Abs % 2 == 0 && Pos + 1 < Chunk.size()) {
      if (D.MidAcceptAny[Cell]) {
        if (MidProbes)
          ++*MidProbes;
        emitAccepts(D.Mid[Cell], Abs + 1, Emit);
      }
      State = D.Next2[Cell * D.NumAtoms +
                      D.AtomOfByte[static_cast<unsigned char>(Chunk[Pos + 1])]];
      emitAccepts(State, Abs + 2, Emit);
      return 2;
    }
    State = D.Mid[Cell];
    emitAccepts(State, Abs + 1, Emit);
    return 1;
  }

  /// Reports the `$`-anchored accepts of \p State at the stream's end.
  template <class EmitT>
  void emitAtEnd(uint32_t State, uint64_t StreamEnd, EmitT &&Emit) const {
    const DynamicBitset &AtEnd = Automaton.AcceptAtEnd[State];
    if (AtEnd.any())
      AtEnd.forEach(
          [&](unsigned Rule) { Emit(Automaton.GlobalIds[Rule], StreamEnd); });
  }

  /// Steps through all of \p Chunk from \p State; AcceptAtEnd fires only
  /// when the chunk consumes the final byte of a \p StreamEnd-byte stream.
  /// \returns the exit state. The input-parallel state map and join
  /// (engine/InputParallel.cpp) scan through step() and scan() as well.
  template <class EmitT>
  uint32_t scan(uint32_t State, std::string_view Chunk, uint64_t Base,
                uint64_t StreamEnd, EmitT &&Emit,
                uint64_t *MidProbes = nullptr) const {
    for (size_t Pos = 0; Pos < Chunk.size();)
      Pos += step(State, Chunk, Pos, Base, Emit, MidProbes);
    if (!Chunk.empty() && Base + Chunk.size() == StreamEnd)
      emitAtEnd(State, StreamEnd, Emit);
    return State;
  }

  /// Attaches `stride2.*` scan instrumentation: exact stride / table-touch
  /// counters (including mid-stride accept probes, the stride tax) plus the
  /// degenerate occupancy histograms every engine shares.
  void setMetrics(obs::MetricsRegistry *Registry);

  const StridedDfa &automaton() const { return Automaton; }

private:
  struct ScanMetricHandles {
    obs::Counter *Bytes = nullptr;
    obs::Counter *Strides = nullptr;
    obs::Counter *Transitions = nullptr;
    obs::Counter *MidProbes = nullptr;
    obs::Counter *Matches = nullptr;
    obs::Histogram *Frontier = nullptr;
    obs::Histogram *ActiveRules = nullptr;
    obs::Histogram *TransitionsPerByte = nullptr;
  };

  template <class EmitT>
  void emitAccepts(uint32_t State, uint64_t End, EmitT &Emit) const {
    const DynamicBitset &Accept = Automaton.Accept[State];
    if (Accept.any())
      Accept.forEach(
          [&](unsigned Rule) { Emit(Automaton.GlobalIds[Rule], End); });
  }

  StridedDfa Automaton;
  ScanMetricHandles Metrics;
};

} // namespace mfsa

#endif // MFSA_ENGINE_MULTISTRIDE_H
