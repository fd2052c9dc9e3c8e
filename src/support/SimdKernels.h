//===- SimdKernels.h - vector kernel table ----------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares KernelTable, the set of data-parallel primitives the scan
/// engines and DynamicBitset dispatch through at runtime. Each entry
/// operates on unaligned arrays of 64-bit words (the bitset storage the
/// whole library shares); implementations exist at three levels:
///
///   - scalar  : portable word-at-a-time loops, always compiled, the
///               correctness reference every other level is tested against;
///   - sse42   : 128-bit lanes (SSE2 ops + SSE4.1 ptest + POPCNT), built
///               from SimdKernelsSse42.cpp with -msse4.2;
///   - avx2    : 256-bit lanes, built from SimdKernelsAvx2.cpp with -mavx2.
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

/// One resolved set of kernel implementations. All word kernels tolerate
/// W == 0 and impose no alignment beyond uint64_t's natural alignment.
/// Operand arrays must not partially overlap (exact aliasing of Dst with
/// itself is the in-place update case and is fine).
struct KernelTable {
  const char *Name; ///< "scalar", "sse42", or "avx2".

  /// Dst[i] |= Src[i].
  void (*OrWords)(uint64_t *Dst, const uint64_t *Src, size_t W);
  /// Dst[i] &= Src[i].
  void (*AndWords)(uint64_t *Dst, const uint64_t *Src, size_t W);
  /// Dst[i] &= ~Src[i].
  void (*AndNotWords)(uint64_t *Dst, const uint64_t *Src, size_t W);
  /// \returns true iff any word is nonzero.
  bool (*AnyWords)(const uint64_t *Src, size_t W);
  /// \returns true iff A[i] & B[i] is nonzero for some i.
  bool (*IntersectsWords)(const uint64_t *A, const uint64_t *B, size_t W);
  /// \returns total population count across the W words.
  uint64_t (*CountWords)(const uint64_t *Src, size_t W);

  /// Fused activation-propagation kernel (Eq. 6's J ∩ bel):
  /// A[i] = Src[i] & Bel[i]; \returns true iff any result word is nonzero.
  bool (*AndInto)(uint64_t *A, const uint64_t *Src, const uint64_t *Bel,
                  size_t W);

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
