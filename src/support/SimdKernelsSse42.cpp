//===- SimdKernelsSse42.cpp - 128-bit kernel table -----------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// SSE4.2-level implementations of the KernelTable contract: 128-bit lanes
// (two bitset words per operation) with scalar tails, PTEST (SSE4.1) for
// the any/intersect reductions, hardware POPCNT for counting, and PCMPEQB
// for the byte-class search. This TU is compiled with -msse4.2 only; no
// other file may call into it except through the table pointer, which the
// dispatcher hands out only after CPUID confirms support.
//
//===----------------------------------------------------------------------===//

#include "support/SimdKernels.h"

#include <nmmintrin.h>

using namespace mfsa::simd;

namespace {

void sseOrWords(uint64_t *Dst, const uint64_t *Src, size_t W) {
  size_t I = 0;
  for (; I + 2 <= W; I += 2) {
    __m128i D = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Dst + I));
    __m128i S = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Src + I));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(Dst + I),
                     _mm_or_si128(D, S));
  }
  for (; I < W; ++I)
    Dst[I] |= Src[I];
}

void sseAndWords(uint64_t *Dst, const uint64_t *Src, size_t W) {
  size_t I = 0;
  for (; I + 2 <= W; I += 2) {
    __m128i D = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Dst + I));
    __m128i S = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Src + I));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(Dst + I),
                     _mm_and_si128(D, S));
  }
  for (; I < W; ++I)
    Dst[I] &= Src[I];
}

void sseAndNotWords(uint64_t *Dst, const uint64_t *Src, size_t W) {
  size_t I = 0;
  for (; I + 2 <= W; I += 2) {
    __m128i D = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Dst + I));
    __m128i S = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Src + I));
    // andnot computes ~first & second.
    _mm_storeu_si128(reinterpret_cast<__m128i *>(Dst + I),
                     _mm_andnot_si128(S, D));
  }
  for (; I < W; ++I)
    Dst[I] &= ~Src[I];
}

bool sseAnyWords(const uint64_t *Src, size_t W) {
  size_t I = 0;
  __m128i Acc = _mm_setzero_si128();
  for (; I + 2 <= W; I += 2)
    Acc = _mm_or_si128(
        Acc, _mm_loadu_si128(reinterpret_cast<const __m128i *>(Src + I)));
  if (!_mm_testz_si128(Acc, Acc))
    return true;
  for (; I < W; ++I)
    if (Src[I])
      return true;
  return false;
}

bool sseIntersectsWords(const uint64_t *A, const uint64_t *B, size_t W) {
  size_t I = 0;
  for (; I + 2 <= W; I += 2) {
    __m128i VA = _mm_loadu_si128(reinterpret_cast<const __m128i *>(A + I));
    __m128i VB = _mm_loadu_si128(reinterpret_cast<const __m128i *>(B + I));
    if (!_mm_testz_si128(VA, VB))
      return true;
  }
  for (; I < W; ++I)
    if (A[I] & B[I])
      return true;
  return false;
}

uint64_t sseCountWords(const uint64_t *Src, size_t W) {
  // -msse4.2 implies hardware POPCNT; four-way unrolled scalar popcount
  // saturates the two popcnt ports without a lookup table.
  uint64_t N0 = 0, N1 = 0, N2 = 0, N3 = 0;
  size_t I = 0;
  for (; I + 4 <= W; I += 4) {
    N0 += static_cast<uint64_t>(_mm_popcnt_u64(Src[I]));
    N1 += static_cast<uint64_t>(_mm_popcnt_u64(Src[I + 1]));
    N2 += static_cast<uint64_t>(_mm_popcnt_u64(Src[I + 2]));
    N3 += static_cast<uint64_t>(_mm_popcnt_u64(Src[I + 3]));
  }
  for (; I < W; ++I)
    N0 += static_cast<uint64_t>(_mm_popcnt_u64(Src[I]));
  return N0 + N1 + N2 + N3;
}

bool sseAndInto(uint64_t *A, const uint64_t *Src, const uint64_t *Bel,
                size_t W) {
  size_t I = 0;
  __m128i Acc = _mm_setzero_si128();
  for (; I + 2 <= W; I += 2) {
    __m128i S = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Src + I));
    __m128i B = _mm_loadu_si128(reinterpret_cast<const __m128i *>(Bel + I));
    __m128i R = _mm_and_si128(S, B);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(A + I), R);
    Acc = _mm_or_si128(Acc, R);
  }
  uint64_t Tail = 0;
  for (; I < W; ++I) {
    A[I] = Src[I] & Bel[I];
    Tail |= A[I];
  }
  return !_mm_testz_si128(Acc, Acc) || Tail != 0;
}

size_t sseFindByteInSet(const uint8_t *Data, size_t Len,
                        const uint8_t *Needles, uint32_t NumNeedles,
                        const uint64_t Bitmap[4]) {
  __m128i NeedleVecs[8];
  const uint32_t N = NumNeedles > 8 ? 8 : NumNeedles;
  for (uint32_t J = 0; J < N; ++J)
    NeedleVecs[J] = _mm_set1_epi8(static_cast<char>(Needles[J]));

  size_t I = 0;
  for (; I + 16 <= Len; I += 16) {
    __m128i Block =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(Data + I));
    __m128i Hit = _mm_setzero_si128();
    for (uint32_t J = 0; J < N; ++J)
      Hit = _mm_or_si128(Hit, _mm_cmpeq_epi8(Block, NeedleVecs[J]));
    int MaskBits = _mm_movemask_epi8(Hit);
    if (MaskBits)
      return I + static_cast<size_t>(__builtin_ctz(
                     static_cast<unsigned>(MaskBits)));
  }
  for (; I < Len; ++I)
    if (Bitmap[Data[I] >> 6] >> (Data[I] & 63) & 1)
      return I;
  return Len;
}

constexpr KernelTable Sse42Table = {
    "sse42",         sseOrWords,          sseAndWords,
    sseAndNotWords,  sseAnyWords,         sseIntersectsWords,
    sseCountWords,   sseAndInto,
    sseFindByteInSet,
};

} // namespace

const KernelTable *mfsa::simd::sse42Kernels() { return &Sse42Table; }
