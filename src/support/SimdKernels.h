//===- SimdKernels.h - vector kernel table ----------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares KernelTable, the one data-parallel primitive that pays for
/// runtime CPU dispatch: the byte-class search behind the literal
/// prefilter's Aho-Corasick root skip. It exists at three levels:
///
///   - scalar  : a bitmap-probe loop, always compiled, the correctness
///               reference the vector levels are tested against;
///   - sse42   : 16-byte PCMPEQB blocks, built from SimdKernelsSse42.cpp
///               with -msse4.2;
///   - avx2    : 32-byte VPCMPEQB blocks, built from SimdKernelsAvx2.cpp
///               with -mavx2.
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
};

/// The always-available portable reference table.
const KernelTable &scalarKernels();

/// The vector tables; null when the build did not compile the level in
/// (non-x86 target, compiler without the flag, or -DMFSA_SIMD capped it).
const KernelTable *sse42Kernels();
const KernelTable *avx2Kernels();

} // namespace mfsa::simd

#endif // MFSA_SUPPORT_SIMDKERNELS_H
