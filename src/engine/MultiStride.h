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
/// semantics; equivalent to DfaEngine over the original automaton.
class StridedDfaEngine {
public:
  explicit StridedDfaEngine(const StridedDfa &Automaton)
      : Automaton(Automaton) {}

  void run(std::string_view Input, MatchRecorder &Recorder) const;

  /// Attaches `stride2.*` scan instrumentation: exact stride / table-touch
  /// counters (including mid-stride accept probes, the stride tax) plus the
  /// degenerate occupancy histograms every engine shares.
  void setMetrics(obs::MetricsRegistry *Registry);

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

  void reportAt(uint32_t State, size_t EndOffset, bool AtEnd,
                MatchRecorder &Recorder) const;

  const StridedDfa &Automaton;
  ScanMetricHandles Metrics;
};

} // namespace mfsa

#endif // MFSA_ENGINE_MULTISTRIDE_H
