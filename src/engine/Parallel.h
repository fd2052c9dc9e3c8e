//===- Parallel.h - multi-threaded ruleset execution ------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares the multi-threaded executor of the paper's §VI-C2: the MFSAs (or
/// single FSAs, the naive baseline) of a benchmark are distributed "over a
/// pool of a fixed number of available threads. Each thread manages
/// different automata asynchronously, selecting an MFSA at a time from the
/// remaining ones until all are executed. The measured execution time
/// represents the latency to compute all the REs of a benchmark."
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ENGINE_PARALLEL_H
#define MFSA_ENGINE_PARALLEL_H

#include "engine/Imfant.h"

#include <string_view>
#include <vector>

namespace mfsa {

/// Result of one parallel batch execution.
struct ParallelRunResult {
  double WallSeconds = 0.0;  ///< Latency to finish the batch.
  uint64_t TotalMatches = 0; ///< Sum over all automata.
};

/// Runs every engine in \p Engines over \p Input using \p NumThreads
/// workers pulling automata from a shared queue. \p Recorders, when
/// non-null, must have one entry per engine and receives that engine's
/// matches (counters only unless configured otherwise).
ParallelRunResult runParallel(const std::vector<ImfantEngine> &Engines,
                              std::string_view Input, unsigned NumThreads,
                              std::vector<MatchRecorder> *Recorders = nullptr);

} // namespace mfsa

#endif // MFSA_ENGINE_PARALLEL_H
