//===- SimdDispatch.h - CRC32C body provenance ------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Names the CRC32C body crc32c() runs (support/Checksum.h), which the
/// artifact header, benchmark reports and e2ebench record as provenance.
/// Nothing is selectable: the body is chosen once, from CPUID.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_SUPPORT_SIMDDISPATCH_H
#define MFSA_SUPPORT_SIMDDISPATCH_H

#include <cstdint>

namespace mfsa::simd {

/// Scalar: the 256-entry table walk. Sse42: the CRC32 instruction.
enum class Level : uint8_t { Scalar = 0, Sse42 = 1 };

/// \returns "scalar" or "sse42".
const char *levelName(Level L);

/// The CRC32C body crc32c() runs in this process.
Level activeLevel();

} // namespace mfsa::simd

#endif // MFSA_SUPPORT_SIMDDISPATCH_H
