//===- SimdKernelsAvx2.cpp - 256-bit kernel table ------------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// AVX2-level implementations of the KernelTable contract: 256-bit lanes
// (four bitset words per operation) with scalar tails, VPTEST for the
// any/intersect reductions, the in-register nibble-lookup population count
// (Mula's algorithm) for counting, and VPCMPEQB for the byte-class search.
// Compiled with -mavx2 only; reached exclusively through the dispatch
// table after CPUID confirms AVX2.
//
//===----------------------------------------------------------------------===//

#include "support/SimdKernels.h"

#include <immintrin.h>

using namespace mfsa::simd;

namespace {

void avxOrWords(uint64_t *Dst, const uint64_t *Src, size_t W) {
  size_t I = 0;
  for (; I + 4 <= W; I += 4) {
    __m256i D = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Dst + I));
    __m256i S = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Src + I));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(Dst + I),
                        _mm256_or_si256(D, S));
  }
  for (; I < W; ++I)
    Dst[I] |= Src[I];
}

void avxAndWords(uint64_t *Dst, const uint64_t *Src, size_t W) {
  size_t I = 0;
  for (; I + 4 <= W; I += 4) {
    __m256i D = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Dst + I));
    __m256i S = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Src + I));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(Dst + I),
                        _mm256_and_si256(D, S));
  }
  for (; I < W; ++I)
    Dst[I] &= Src[I];
}

void avxAndNotWords(uint64_t *Dst, const uint64_t *Src, size_t W) {
  size_t I = 0;
  for (; I + 4 <= W; I += 4) {
    __m256i D = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Dst + I));
    __m256i S = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Src + I));
    // andnot computes ~first & second.
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(Dst + I),
                        _mm256_andnot_si256(S, D));
  }
  for (; I < W; ++I)
    Dst[I] &= ~Src[I];
}

bool avxAnyWords(const uint64_t *Src, size_t W) {
  size_t I = 0;
  __m256i Acc = _mm256_setzero_si256();
  for (; I + 4 <= W; I += 4)
    Acc = _mm256_or_si256(
        Acc, _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Src + I)));
  if (!_mm256_testz_si256(Acc, Acc))
    return true;
  for (; I < W; ++I)
    if (Src[I])
      return true;
  return false;
}

bool avxIntersectsWords(const uint64_t *A, const uint64_t *B, size_t W) {
  size_t I = 0;
  for (; I + 4 <= W; I += 4) {
    __m256i VA = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(A + I));
    __m256i VB = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(B + I));
    if (!_mm256_testz_si256(VA, VB))
      return true;
  }
  for (; I < W; ++I)
    if (A[I] & B[I])
      return true;
  return false;
}

/// Per-64-bit-lane population count via two 16-entry nibble lookups
/// (Mula's algorithm): shuffle each nibble through a 0..4 bit-count table,
/// then horizontally sum bytes per lane with SAD against zero.
__m256i popcountEpi64(__m256i V) {
  const __m256i Lookup = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i LowMask = _mm256_set1_epi8(0x0f);
  __m256i Lo = _mm256_and_si256(V, LowMask);
  __m256i Hi = _mm256_and_si256(_mm256_srli_epi16(V, 4), LowMask);
  __m256i Counts = _mm256_add_epi8(_mm256_shuffle_epi8(Lookup, Lo),
                                   _mm256_shuffle_epi8(Lookup, Hi));
  return _mm256_sad_epu8(Counts, _mm256_setzero_si256());
}

uint64_t avxCountWords(const uint64_t *Src, size_t W) {
  size_t I = 0;
  __m256i Acc = _mm256_setzero_si256();
  for (; I + 4 <= W; I += 4)
    Acc = _mm256_add_epi64(
        Acc, popcountEpi64(_mm256_loadu_si256(
                 reinterpret_cast<const __m256i *>(Src + I))));
  uint64_t Lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i *>(Lanes), Acc);
  uint64_t N = Lanes[0] + Lanes[1] + Lanes[2] + Lanes[3];
  for (; I < W; ++I)
    N += static_cast<uint64_t>(__builtin_popcountll(Src[I]));
  return N;
}

bool avxAndInto(uint64_t *A, const uint64_t *Src, const uint64_t *Bel,
                size_t W) {
  size_t I = 0;
  __m256i Acc = _mm256_setzero_si256();
  for (; I + 4 <= W; I += 4) {
    __m256i S = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Src + I));
    __m256i B = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Bel + I));
    __m256i R = _mm256_and_si256(S, B);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(A + I), R);
    Acc = _mm256_or_si256(Acc, R);
  }
  uint64_t Tail = 0;
  for (; I < W; ++I) {
    A[I] = Src[I] & Bel[I];
    Tail |= A[I];
  }
  return !_mm256_testz_si256(Acc, Acc) || Tail != 0;
}

size_t avxFindByteInSet(const uint8_t *Data, size_t Len,
                        const uint8_t *Needles, uint32_t NumNeedles,
                        const uint64_t Bitmap[4]) {
  __m256i NeedleVecs[8];
  const uint32_t N = NumNeedles > 8 ? 8 : NumNeedles;
  for (uint32_t J = 0; J < N; ++J)
    NeedleVecs[J] = _mm256_set1_epi8(static_cast<char>(Needles[J]));

  size_t I = 0;
  for (; I + 32 <= Len; I += 32) {
    __m256i Block =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Data + I));
    __m256i Hit = _mm256_setzero_si256();
    for (uint32_t J = 0; J < N; ++J)
      Hit = _mm256_or_si256(Hit, _mm256_cmpeq_epi8(Block, NeedleVecs[J]));
    unsigned MaskBits = static_cast<unsigned>(_mm256_movemask_epi8(Hit));
    if (MaskBits)
      return I + static_cast<size_t>(__builtin_ctz(MaskBits));
  }
  for (; I < Len; ++I)
    if (Bitmap[Data[I] >> 6] >> (Data[I] & 63) & 1)
      return I;
  return Len;
}

constexpr KernelTable Avx2Table = {
    "avx2",          avxOrWords,          avxAndWords,
    avxAndNotWords,  avxAnyWords,         avxIntersectsWords,
    avxCountWords,   avxAndInto,
    avxFindByteInSet,
};

} // namespace

const KernelTable *mfsa::simd::avx2Kernels() { return &Avx2Table; }
