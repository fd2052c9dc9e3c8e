//===- Writer.h - crash-safe MFSA artifact serialization --------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes compiled MFSAs into the flat artifact image (Format.h) and
/// writes it crash-safely: the image is staged in a temp file in the target
/// directory, fsync'ed, and atomically rename(2)'d over the destination,
/// then the directory is fsync'ed — so a writer killed at any instant
/// leaves either the previous artifact or the new one, never a partial
/// image reachable at the destination path. (A partial image that somehow
/// *is* reached — e.g. a temp file adopted by hand — still cannot load: the
/// loader's checksums reject it.)
///
/// Emission is fault-injectable via MFSA_FAULT_STAGE="serialize:<mfsa>"
/// (support/FaultInject.h), so tests can drive every failure path.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ARTIFACT_WRITER_H
#define MFSA_ARTIFACT_WRITER_H

#include "mfsa/Mfsa.h"
#include "support/Result.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mfsa::artifact {

/// Emission knobs plus the compile provenance recorded in the header.
struct ArtifactWriteOptions {
  /// Provenance echoed into the header so a loader can reproduce the
  /// compile: case folding, atom splitting, and the merging factor M.
  bool CaseInsensitive = false;
  bool SplitCcByAtoms = false;
  uint32_t MergingFactor = 0;
};

/// Serializes \p Mfsas plus \p Patterns into one artifact image, returned
/// as raw bytes. \p Patterns is the *original* ruleset text, indexed by the
/// rules' GlobalIds: embedding it costs bytes and buys self-describing
/// artifacts (provenance for diagnostics, the input the loader's opt-in
/// spot check recompiles, the literals a prefilter plan needs); pass {} to
/// skip embedding. Fails only on injected faults or capacity overflows — the
/// inputs are trusted compiler output.
Result<std::string> serializeArtifact(const std::vector<Mfsa> &Mfsas,
                                      const std::vector<std::string> &Patterns,
                                      const ArtifactWriteOptions &Options = {});

/// serializeArtifact + crash-safe persistence to \p Path (see file
/// comment). \returns the image size in bytes. On failure the destination
/// is untouched and the temp file is removed.
Result<uint64_t> writeArtifactFile(const std::string &Path,
                                   const std::vector<Mfsa> &Mfsas,
                                   const std::vector<std::string> &Patterns,
                                   const ArtifactWriteOptions &Options = {});

} // namespace mfsa::artifact

#endif // MFSA_ARTIFACT_WRITER_H
