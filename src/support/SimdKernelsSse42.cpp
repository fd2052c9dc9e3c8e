//===- SimdKernelsSse42.cpp - 128-bit kernel table -----------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// SSE4.2-level KernelTable: the byte-class search compares 16-byte blocks
// against each needle with PCMPEQB. On CPUs without AVX2 this is the only
// vector path the prefilter's root skip has. CRC32C feeds 8-byte words to
// the CRC32 instruction (≈ 0.14 ns/B against the table walk's 3 ns/B); the
// AVX2 table shares it. This TU is compiled with
// -msse4.2 only; no other file may call into it except through the table
// pointer, which the dispatcher hands out only after CPUID confirms support.
//
//===----------------------------------------------------------------------===//

#include "support/SimdKernels.h"

#include <nmmintrin.h>

#include <cstring>

using namespace mfsa::simd;

namespace {

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

} // namespace

uint32_t mfsa::simd::sse42Crc32c(const uint8_t *Data, size_t Len,
                                 uint32_t Seed) {
  uint64_t Crc = ~Seed;
  for (; Len >= 8; Data += 8, Len -= 8) {
    uint64_t Word;
    std::memcpy(&Word, Data, 8);
    Crc = _mm_crc32_u64(Crc, Word);
  }
  uint32_t Crc32 = static_cast<uint32_t>(Crc);
  for (; Len; --Len)
    Crc32 = _mm_crc32_u8(Crc32, *Data++);
  return ~Crc32;
}

namespace {

constexpr KernelTable Sse42Table = {"sse42", sseFindByteInSet, sse42Crc32c};

} // namespace

const KernelTable *mfsa::simd::sse42Kernels() { return &Sse42Table; }
