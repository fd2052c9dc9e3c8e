//===- Checksum.cpp - CRC32C integrity checksums -----------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Two bodies compute the same CRC32C: a byte-at-a-time walk of a 256-entry
// table, and on x86-64 the SSE4.2 CRC32 instruction over 8-byte words. The
// instruction body is compiled through a target attribute, so no file is
// built with -msse4.2; it runs only after CPUID reports SSE4.2.
//
//===----------------------------------------------------------------------===//

#include "support/Checksum.h"

#include "support/SimdDispatch.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

using namespace mfsa;

namespace {

/// 256-entry lookup table for the reflected CRC32C polynomial, built once on
/// first use (cheap, deterministic, no static-init ordering hazards).
const std::array<uint32_t, 256> &crcTable() {
  static const std::array<uint32_t, 256> Table = [] {
    std::array<uint32_t, 256> T{};
    constexpr uint32_t Poly = 0x82F63B78u; // CRC32C, reflected.
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t Crc = I;
      for (int Bit = 0; Bit < 8; ++Bit)
        Crc = (Crc >> 1) ^ ((Crc & 1) ? Poly : 0);
      T[I] = Crc;
    }
    return T;
  }();
  return Table;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t
instructionCrc32c(const void *Data, size_t Len, uint32_t Seed) {
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  uint64_t Crc = ~Seed;
  for (; Len >= 8; Bytes += 8, Len -= 8) {
    uint64_t Word;
    std::memcpy(&Word, Bytes, 8);
    Crc = _mm_crc32_u64(Crc, Word);
  }
  uint32_t Crc32 = static_cast<uint32_t>(Crc);
  for (; Len; --Len)
    Crc32 = _mm_crc32_u8(Crc32, *Bytes++);
  return ~Crc32;
}
#endif

struct CrcBody {
  uint32_t (*Fn)(const void *, size_t, uint32_t);
  simd::Level Level;
};

const CrcBody &crcBody() {
  static const CrcBody Body = []() -> CrcBody {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2"))
      return {instructionCrc32c, simd::Level::Sse42};
#endif
    return {portableCrc32c, simd::Level::Scalar};
  }();
  return Body;
}

} // namespace

uint32_t mfsa::portableCrc32c(const void *Data, size_t Bytes, uint32_t Seed) {
  const std::array<uint32_t, 256> &Table = crcTable();
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  uint32_t Crc = ~Seed;
  for (size_t I = 0; I < Bytes; ++I)
    Crc = (Crc >> 8) ^ Table[(Crc ^ P[I]) & 0xFF];
  return ~Crc;
}

uint32_t mfsa::crc32c(const void *Data, size_t Bytes, uint32_t Seed) {
  return crcBody().Fn(Data, Bytes, Seed);
}

const char *mfsa::simd::levelName(Level L) {
  return L == Level::Sse42 ? "sse42" : "scalar";
}

simd::Level mfsa::simd::activeLevel() { return crcBody().Level; }
