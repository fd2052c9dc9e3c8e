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
/// can introduce, and cheap enough to verify on every load. The body is
/// chosen once, from CPUID: the CRC32 instruction on 8-byte words where
/// x86-64 SSE4.2 is available (≈ 0.14 ns/B), the byte-at-a-time table walk
/// elsewhere (≈ 3 ns/B). Both compute the same value, so an image written
/// with one loads with the other; simd::activeLevel() names the one in use.
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

/// The table-walk body, the same function on every CPU; exposed so that
/// tests check it on hosts where crc32c() runs the instruction.
uint32_t portableCrc32c(const void *Data, size_t Bytes, uint32_t Seed = 0);

} // namespace mfsa

#endif // MFSA_SUPPORT_CHECKSUM_H
