//===- SimdKernels.h - vector kernel table ----------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares KernelTable, the data-parallel primitives that pay for runtime
/// CPU dispatch: the byte-class search behind the literal prefilter's
/// Aho-Corasick root skip, and the CRC32C behind the artifact checksums
/// (support/Checksum.h). They exist at three levels:
///
///   - scalar  : a bitmap-probe loop and a byte-at-a-time table walk, always
///               compiled, the correctness reference the vector levels are
///               tested against;
///   - sse42   : 16-byte PCMPEQB blocks and the CRC32 instruction on 8-byte
///               words, built from SimdKernelsSse42.cpp with -msse4.2;
///   - avx2    : 32-byte VPCMPEQB blocks, built from SimdKernelsAvx2.cpp
///               with -mavx2, plus the SSE4.2 CRC32C (AVX2 implies it).
///
/// Bitset algebra (the iMFAnt step's J ∩ bel, DynamicBitset) is plain word
/// loops the compiler sees, not table entries: at 1-5 words a dispatched
/// call costs more than it saves.
///
/// Level selection lives in SimdDispatch.h; nothing in this header depends
/// on target intrinsics, so it is safe to include anywhere.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_SUPPORT_SIMDKERNELS_H
#define MFSA_SUPPORT_SIMDKERNELS_H

#include <cstddef>
#include <cstdint>

namespace mfsa::simd {

/// One resolved set of kernel implementations.
struct KernelTable {
  const char *Name; ///< "scalar", "sse42", or "avx2".

  /// Byte-class search powering the literal-prefilter root skip: \returns
  /// the index of the first byte of Data[0, Len) contained in the set, or
  /// Len if none is. The set is given twice: as an explicit needle list
  /// (NumNeedles <= 8, what the compare-based vector paths use) and as a
  /// 256-bit membership bitmap (what the scalar path uses); both describe
  /// the same set.
  size_t (*FindByteInSet)(const uint8_t *Data, size_t Len,
                          const uint8_t *Needles, uint32_t NumNeedles,
                          const uint64_t Bitmap[4]);

  /// CRC32C (Castagnoli, reflected) of Data[0, Len), continuing from \p Seed
  /// (a previous result, or 0): the contract of mfsa::crc32c().
  uint32_t (*Crc32c)(const uint8_t *Data, size_t Len, uint32_t Seed);
};

/// The always-available portable reference table.
const KernelTable &scalarKernels();

/// The vector tables; null when the build did not compile the level in
/// (non-x86 target, compiler without the flag, or -DMFSA_SIMD capped it).
const KernelTable *sse42Kernels();
const KernelTable *avx2Kernels();

/// The CRC32-instruction CRC32C of the SSE4.2 table, which the AVX2 table
/// shares. Defined only in builds that compile the SSE4.2 kernels.
uint32_t sse42Crc32c(const uint8_t *Data, size_t Len, uint32_t Seed);

} // namespace mfsa::simd

#endif // MFSA_SUPPORT_SIMDKERNELS_H
