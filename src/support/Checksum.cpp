//===- Checksum.cpp - CRC32C integrity checksums -----------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/Checksum.h"

#include "support/SimdDispatch.h"

uint32_t mfsa::crc32c(const void *Data, size_t Bytes, uint32_t Seed) {
  return simd::ops().Crc32c(static_cast<const uint8_t *>(Data), Bytes, Seed);
}
