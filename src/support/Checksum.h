//===- Checksum.h - CRC32C integrity checksums ------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares crc32c(), the integrity checksum guarding the MFSA artifact
/// format (src/artifact/). CRC32C (Castagnoli, reflected polynomial
/// 0x82F63B78) is the iSCSI/ext4/RocksDB checksum: strong enough to catch
/// every single-bit flip and short burst error a storage or transport layer
/// can introduce, and cheap enough to verify on every load. It runs through
/// the SIMD dispatch table (support/SimdKernels.h): the CRC32 instruction on
/// 8-byte words where SSE4.2 is available (≈ 0.14 ns/B), a byte-at-a-time
/// table walk elsewhere (≈ 3 ns/B). Every level computes the same value, so
/// an image written at one level loads at any other.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_SUPPORT_CHECKSUM_H
#define MFSA_SUPPORT_CHECKSUM_H

#include <cstddef>
#include <cstdint>

namespace mfsa {

/// CRC32C of \p Bytes bytes at \p Data. \p Seed chains multi-buffer
/// checksums: pass the previous call's result to continue a running CRC
/// (0 starts a fresh one).
uint32_t crc32c(const void *Data, size_t Bytes, uint32_t Seed = 0);

} // namespace mfsa

#endif // MFSA_SUPPORT_CHECKSUM_H
