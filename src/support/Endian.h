//===- Endian.h - explicit little-endian accessors --------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-order-explicit load/store helpers for on-disk structures. The MFSA
/// artifact format (src/artifact/Format.h) fixes every multi-byte field to
/// little-endian; these helpers make that contract independent of the host:
/// they assemble values byte by byte, so they are safe on any alignment and
/// compile to single moves on little-endian targets.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_SUPPORT_ENDIAN_H
#define MFSA_SUPPORT_ENDIAN_H

#include <cstdint>

namespace mfsa {

inline uint16_t loadLE16(const void *P) {
  const uint8_t *B = static_cast<const uint8_t *>(P);
  return static_cast<uint16_t>(B[0] | (uint16_t(B[1]) << 8));
}

inline uint32_t loadLE32(const void *P) {
  const uint8_t *B = static_cast<const uint8_t *>(P);
  return uint32_t(B[0]) | (uint32_t(B[1]) << 8) | (uint32_t(B[2]) << 16) |
         (uint32_t(B[3]) << 24);
}

inline uint64_t loadLE64(const void *P) {
  const uint8_t *B = static_cast<const uint8_t *>(P);
  return uint64_t(loadLE32(B)) | (uint64_t(loadLE32(B + 4)) << 32);
}

inline void storeLE32(void *P, uint32_t V) {
  uint8_t *B = static_cast<uint8_t *>(P);
  B[0] = static_cast<uint8_t>(V);
  B[1] = static_cast<uint8_t>(V >> 8);
  B[2] = static_cast<uint8_t>(V >> 16);
  B[3] = static_cast<uint8_t>(V >> 24);
}

inline void storeLE64(void *P, uint64_t V) {
  uint8_t *B = static_cast<uint8_t *>(P);
  storeLE32(B, static_cast<uint32_t>(V));
  storeLE32(B + 4, static_cast<uint32_t>(V >> 32));
}

} // namespace mfsa

#endif // MFSA_SUPPORT_ENDIAN_H
