//===- SimdDispatch.h - runtime SIMD level selection ------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime CPU dispatch for the kernels of SimdKernels.h (the literal
/// prefilter's root skip and the artifact CRC32C). The active level is resolved once,
/// lazily, from (in priority order):
///
///   1. the MFSA_SIMD environment variable: auto | avx2 | sse42 | scalar;
///   2. what the build compiled in (the -DMFSA_SIMD CMake cache variable
///      caps which kernel translation units exist at all);
///   3. what the executing CPU actually supports (CPUID).
///
/// A level requested above what is compiled in or supported is clamped
/// downward with a one-time stderr warning, so a binary built with AVX2
/// kernels still runs — at full correctness — on an SSE-only machine.
/// Tests may override the level at runtime with setLevel() to execute the
/// same corpus under every implementation; ops() re-reads the active table
/// on every call site that caches it per scan, so a switch takes effect on
/// the next run.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_SUPPORT_SIMDDISPATCH_H
#define MFSA_SUPPORT_SIMDDISPATCH_H

#include "support/SimdKernels.h"

#include <vector>

namespace mfsa::simd {

/// Dispatch levels, ordered so that a higher value is a superset of the
/// hardware the lower ones need.
enum class Level : uint8_t { Scalar = 0, Sse42 = 1, Avx2 = 2 };

/// \returns the canonical lowercase name ("scalar", "sse42", "avx2").
const char *levelName(Level L);

/// Parses "scalar" / "sse42" / "avx2" (exact, lowercase). \returns false on
/// anything else, leaving \p Out untouched ("auto" is not a Level — it is
/// the absence of a pin).
bool parseLevel(const char *Text, Level &Out);

/// \returns true when \p L is both compiled into this binary and supported
/// by the executing CPU — i.e. setLevel(L) would succeed.
bool levelAvailable(Level L);

/// Every available level in ascending order; always contains Scalar. This
/// is what the differential tests iterate to correctness-gate each path.
std::vector<Level> availableLevels();

/// \returns the best available level (what "auto" resolves to).
Level bestLevel();

/// The level the next ops() call resolves to (forcing env resolution if it
/// has not happened yet).
Level activeLevel();

/// The active kernel table. Cache the reference at most per scan; a
/// concurrent setLevel() is visible to the next ops() call.
const KernelTable &ops();

/// Forces the active level. \returns false (and changes nothing) when the
/// level is not compiled in or the CPU lacks it.
bool setLevel(Level L);

/// Drops any forced level and re-resolves from MFSA_SIMD / auto.
void resetToEnv();

} // namespace mfsa::simd

#endif // MFSA_SUPPORT_SIMDDISPATCH_H
