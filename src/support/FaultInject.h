//===- FaultInject.h - deterministic test fault injection -------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MFSA_FAULT_STAGE test hook, shared by the compiler pipeline and the
/// artifact serializer/loader. Setting the environment variable
///
///   MFSA_FAULT_STAGE="<stage>:<index>"
///
/// with stage one of parse|build|opt|merge|serialize|load makes the matching
/// operation fail deterministically, as if its input were malformed, so
/// every isolation and fallback path is exercisable without crafting
/// pathological inputs:
///
///   - parse/build/opt/merge: <index> is the original rule index the
///     compiler pipeline fails at that stage (see compiler/Pipeline.h).
///   - serialize: <index> is the MFSA index whose artifact encoding fails
///     (serialize:0 fails any non-empty emission).
///   - load: artifact loading fails right after the image is mapped;
///     use load:0 (the index is reserved for future per-section targeting).
///
/// The variable is re-read on every operation so tests can toggle it
/// between calls without process restarts.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_SUPPORT_FAULTINJECT_H
#define MFSA_SUPPORT_FAULTINJECT_H

#include "support/Result.h"

#include <cstdint>

namespace mfsa {

/// Where an injected fault fires.
enum class FaultPoint : uint8_t {
  Parse,     ///< Pipeline stage 1 (front-end).
  Build,     ///< Pipeline stage 2 (Thompson construction).
  Opt,       ///< Pipeline stage 3 (single-FSA optimization).
  Merge,     ///< Pipeline stage 4 (Algorithm-1 merging).
  Serialize, ///< Artifact emission (artifact/Writer.h).
  Load,      ///< Artifact loading (artifact/Reader.h).
};

/// A parsed MFSA_FAULT_STAGE request. Inactive (Active == false) when the
/// variable is unset, empty, or malformed — a malformed spec never injects.
struct FaultSpec {
  bool Active = false;
  FaultPoint Point = FaultPoint::Parse;
  uint32_t Index = 0;

  /// True when this spec requests a fault at \p P for \p I.
  bool at(FaultPoint P, uint32_t I) const {
    return Active && Point == P && Index == I;
  }
};

/// Parses MFSA_FAULT_STAGE from the environment (re-read every call).
FaultSpec readFaultSpec();

/// The canonical diagnostic an injected fault reports.
Diag injectedFault();

} // namespace mfsa

#endif // MFSA_SUPPORT_FAULTINJECT_H
