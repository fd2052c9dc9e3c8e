//===- SimdKernelsAvx2.cpp - 256-bit kernel table ------------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// AVX2-level KernelTable: the byte-class search compares 32-byte blocks
// against each needle with VPCMPEQB; CRC32C is the SSE4.2 kernel's. Compiled with -mavx2 only; reached
// exclusively through the dispatch table after CPUID confirms AVX2.
//
//===----------------------------------------------------------------------===//

#include "support/SimdKernels.h"

#include <immintrin.h>

using namespace mfsa::simd;

namespace {

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

constexpr KernelTable Avx2Table = {"avx2", avxFindByteInSet, sse42Crc32c};

} // namespace

const KernelTable *mfsa::simd::avx2Kernels() { return &Avx2Table; }
