//===- SimdTest.cpp - root skip and CRC32C body property tests ------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Property-tests the two places the library uses vector or CRC instructions:
// the Aho-Corasick root skip, which powers the literal prefilter, against a
// bitmap loop, and both CRC32C bodies, which guard the artifact format,
// against a bitwise reference.
//
//===----------------------------------------------------------------------===//

#include "engine/AhoCorasick.h"
#include "support/Checksum.h"
#include "support/Rng.h"
#include "support/SimdDispatch.h"

#include "gtest/gtest.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace mfsa;

namespace {

using CrcFn = uint32_t (*)(const void *, size_t, uint32_t);

/// The CRC32C bodies this host can run: the table walk always, and the
/// CRC32 instruction when crc32c() runs it (CPUID reports SSE4.2).
std::vector<std::pair<const char *, CrcFn>> crcBodies() {
  std::vector<std::pair<const char *, CrcFn>> Bodies{
      {"table", portableCrc32c}};
  if (simd::activeLevel() == simd::Level::Sse42)
    Bodies.emplace_back("instruction", crc32c);
  return Bodies;
}

/// CRC32C one bit at a time, straight from the reflected polynomial.
uint32_t bitwiseCrc32c(const uint8_t *Data, size_t Len, uint32_t Seed) {
  uint32_t Crc = ~Seed;
  for (size_t I = 0; I < Len; ++I) {
    Crc ^= Data[I];
    for (int Bit = 0; Bit < 8; ++Bit)
      Crc = (Crc >> 1) ^ ((Crc & 1) ? 0x82F63B78u : 0);
  }
  return ~Crc;
}

} // namespace

TEST(Simd, FindByteInSetMatchesScalar) {
  // One single-byte literal per needle: every needle byte is a match, so
  // the scan reports exactly the offsets a bitmap loop finds, and between
  // hits it runs the root skip from every position a hit leaves it at.
  Rng Random(0x53u);
  for (size_t Len : {size_t(0), size_t(1), size_t(2), size_t(15), size_t(16),
                     size_t(17), size_t(31), size_t(32), size_t(33),
                     size_t(100), size_t(257)})
    for (uint32_t NumNeedles : {1u, 2u, 3u, 8u})
      for (int Round = 0; Round < 12; ++Round) {
        // Distinct random needles plus the matching bitmap.
        std::set<uint8_t> NeedleSet;
        while (NeedleSet.size() < NumNeedles)
          NeedleSet.insert(static_cast<uint8_t>(Random.nextBelow(256)));
        std::vector<uint8_t> Needles(NeedleSet.begin(), NeedleSet.end());
        uint64_t Bitmap[4] = {0, 0, 0, 0};
        for (uint8_t B : Needles)
          Bitmap[B >> 6] |= uint64_t(1) << (B & 63);

        // Mostly non-needle bytes so hits land at interesting offsets;
        // some rounds have no hit at all.
        std::string Data(Len, '\0');
        for (char &C : Data) {
          uint8_t B;
          do
            B = static_cast<uint8_t>(Random.nextBelow(256));
          while (NeedleSet.count(B));
          C = static_cast<char>(B);
        }
        if (Len > 0 && Random.nextBool(0.7)) {
          size_t Hit = Random.nextBelow(Len);
          Data[Hit] = static_cast<char>(Needles[Random.nextBelow(NumNeedles)]);
          // Sometimes plant a second, later hit.
          if (Hit + 1 < Len && Random.nextBool(0.5))
            Data[Hit + 1 + Random.nextBelow(Len - Hit - 1)] =
                static_cast<char>(Needles[Random.nextBelow(NumNeedles)]);
        }

        std::vector<size_t> Expect;
        for (size_t I = 0; I < Len; ++I) {
          const uint8_t B = static_cast<uint8_t>(Data[I]);
          if (Bitmap[B >> 6] >> (B & 63) & 1)
            Expect.push_back(I);
        }

        std::vector<std::string> Literals;
        for (uint8_t B : Needles)
          Literals.emplace_back(1, static_cast<char>(B));
        const AhoCorasick Automaton(Literals);
        ASSERT_TRUE(Automaton.rootSkipEnabled());
        std::vector<size_t> Got;
        Automaton.scan(Data, [&](uint32_t Literal, size_t End) {
          EXPECT_EQ(static_cast<uint8_t>(Data[End - 1]), Needles[Literal]);
          Got.push_back(End - 1);
        });
        EXPECT_EQ(Got, Expect) << "Len=" << Len << " needles=" << NumNeedles;
      }
}

TEST(Simd, Crc32cMatchesReferenceAtEveryLengthAndAlignment) {
  Rng Random(0xC5Cu);
  std::vector<uint8_t> Buffer(1024 + 8);
  for (uint8_t &B : Buffer)
    B = static_cast<uint8_t>(Random.nextBelow(256));
  for (const auto &[Name, Crc] : crcBodies()) {
    SCOPED_TRACE(Name);
    for (size_t Shift = 0; Shift < 8; ++Shift)
      for (size_t Len = 0; Len <= 1024; ++Len) {
        const uint8_t *Data = Buffer.data() + Shift;
        const uint32_t Seed = static_cast<uint32_t>(Len * 0x9E3779B9u);
        ASSERT_EQ(Crc(Data, Len, 0), bitwiseCrc32c(Data, Len, 0))
            << "Len=" << Len << " shift=" << Shift;
        ASSERT_EQ(Crc(Data, Len, Seed), bitwiseCrc32c(Data, Len, Seed))
            << "Len=" << Len << " shift=" << Shift;
      }
  }
}

TEST(Simd, Crc32cIsTheSameChecksumAtEveryLevel) {
  // The standard CRC32C check value, and a running CRC that continues where
  // the last call stopped, through each body.
  const std::string Check = "123456789";
  for (const auto &[Name, Crc] : crcBodies()) {
    SCOPED_TRACE(Name);
    EXPECT_EQ(Crc(Check.data(), Check.size(), 0), 0xE3069283u);
    EXPECT_EQ(Crc(Check.data() + 4, 5, Crc(Check.data(), 4, 0)), 0xE3069283u);
    EXPECT_EQ(Crc(nullptr, 0, 0x1234u), 0x1234u);
  }
#if defined(__x86_64__)
  // The instruction is chosen wherever the CPU has it.
  EXPECT_EQ(simd::activeLevel() == simd::Level::Sse42,
            __builtin_cpu_supports("sse4.2") != 0);
#endif
}
