//===- SparseImfant.h - state-major iMFAnt variant --------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares SparseImfantEngine, an alternative execution layout for MFSAs.
/// Like ImfantEngine it keeps an explicit list of active states and walks
/// their outgoing transitions (CSR adjacency); unlike it, injection (Eq. 4)
/// is not precomputed: every byte also walks the out-edges of every state
/// hosting a rule's initial state, label-testing each and ANDing the rules'
/// initial masks with bel on the fly. The ablation bench
/// `abl_engine_variants` measures the two layouts against each other; the
/// test suite checks they report identical matches.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ENGINE_SPARSEIMFANT_H
#define MFSA_ENGINE_SPARSEIMFANT_H

#include "engine/Imfant.h"
#include "mfsa/Mfsa.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace mfsa {

/// State-major MFSA engine; match semantics identical to ImfantEngine.
class SparseImfantEngine {
public:
  explicit SparseImfantEngine(const Mfsa &Z);

  /// Scans \p Input, reporting (rule, end-offset) matches.
  void run(std::string_view Input, MatchRecorder &Recorder) const;

private:
  /// The scan loop, compiled twice like ImfantEngine's: SingleWord folds
  /// the rule-bitset work to scalar ops for MFSAs of up to 64 rules; wider
  /// MFSAs dispatch through the runtime-selected SIMD kernels.
  template <bool SingleWord>
  void runImpl(std::string_view Input, MatchRecorder &Recorder) const;

public:

  /// Attaches `sparse.*` scan instrumentation (see ImfantEngine::setMetrics
  /// for the contract; hooks compile out without MFSA_METRICS_ENABLED).
  void setMetrics(obs::MetricsRegistry *Registry);

  uint32_t numStates() const { return NumStates; }
  uint32_t numRules() const { return NumRules; }

private:
  struct ScanMetricHandles {
    obs::Counter *Bytes = nullptr;
    obs::Counter *Transitions = nullptr;
    obs::Counter *Matches = nullptr;
    obs::Histogram *Frontier = nullptr;
    obs::Histogram *ActiveRules = nullptr;
    obs::Histogram *TransitionsPerByte = nullptr;
  };

  /// One CSR adjacency entry.
  struct OutEdge {
    SymbolSet Label;
    StateId To;
    uint32_t BelIdx;
  };

  uint32_t NumStates = 0;
  uint32_t NumRules = 0;
  uint32_t Words = 0;

  std::vector<OutEdge> Edges;        ///< CSR payload.
  std::vector<uint32_t> EdgeOffsets; ///< NumStates + 1 row starts.
  std::vector<uint64_t> BelPool;

  std::vector<uint64_t> InitialRules;
  std::vector<uint64_t> FinalRules;
  std::vector<uint8_t> FinalAny;
  std::vector<StateId> InitialStates; ///< Unique states hosting some initial.
  std::vector<uint64_t> NotAnchoredStartMask;
  std::vector<uint64_t> NotAnchoredEndMask;
  std::vector<uint32_t> GlobalIds;

  ScanMetricHandles Metrics;
};

} // namespace mfsa

#endif // MFSA_ENGINE_SPARSEIMFANT_H
