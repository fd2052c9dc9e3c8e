//===- SimdTest.cpp - vector kernel property tests -----------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Tests the level plumbing (availability, names, setLevel) and property-tests
// every compiled KernelTable's byte-class search, which powers the
// literal-prefilter root skip, against the scalar reference, and its CRC32C,
// which guards the artifact format, against a bitwise reference.
//
//===----------------------------------------------------------------------===//

#include "support/Checksum.h"
#include "support/Rng.h"
#include "support/SimdDispatch.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

using namespace mfsa;

namespace {

/// Every table compiled into this binary, scalar first.
std::vector<const simd::KernelTable *> compiledTables() {
  std::vector<const simd::KernelTable *> Tables{&simd::scalarKernels()};
  if (const simd::KernelTable *T = simd::sse42Kernels())
    Tables.push_back(T);
  if (const simd::KernelTable *T = simd::avx2Kernels())
    Tables.push_back(T);
  return Tables;
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

TEST(Simd, ScalarAlwaysAvailable) {
  EXPECT_TRUE(simd::levelAvailable(simd::Level::Scalar));
  std::vector<simd::Level> Levels = simd::availableLevels();
  ASSERT_FALSE(Levels.empty());
  EXPECT_EQ(Levels.front(), simd::Level::Scalar);
  EXPECT_TRUE(std::is_sorted(Levels.begin(), Levels.end()));
  // bestLevel is the top of the available list and what auto resolves to.
  EXPECT_EQ(simd::bestLevel(), Levels.back());
}

TEST(Simd, LevelNamesRoundTrip) {
  for (simd::Level L : {simd::Level::Scalar, simd::Level::Sse42,
                        simd::Level::Avx2}) {
    simd::Level Parsed;
    ASSERT_TRUE(simd::parseLevel(simd::levelName(L), Parsed));
    EXPECT_EQ(Parsed, L);
  }
  simd::Level Ignored;
  EXPECT_FALSE(simd::parseLevel("auto", Ignored));
  EXPECT_FALSE(simd::parseLevel("AVX2", Ignored));
  EXPECT_FALSE(simd::parseLevel("", Ignored));
}

TEST(Simd, SetLevelSwitchesOpsTable) {
  for (simd::Level L : simd::availableLevels()) {
    ASSERT_TRUE(simd::setLevel(L));
    EXPECT_EQ(simd::activeLevel(), L);
    EXPECT_STREQ(simd::ops().Name, simd::levelName(L));
  }
  simd::resetToEnv();
  EXPECT_TRUE(simd::levelAvailable(simd::activeLevel()));
}

TEST(Simd, FindByteInSetMatchesScalar) {
  const simd::KernelTable &Ref = simd::scalarKernels();
  Rng Random(0x53u);
  for (const simd::KernelTable *Table : compiledTables()) {
    SCOPED_TRACE(Table->Name);
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
          // some rounds have no hit at all (expect Len).
          std::vector<uint8_t> Data(Len);
          for (uint8_t &B : Data) {
            do
              B = static_cast<uint8_t>(Random.nextBelow(256));
            while (NeedleSet.count(B));
          }
          if (Len > 0 && Random.nextBool(0.7)) {
            size_t Hit = Random.nextBelow(Len);
            Data[Hit] = Needles[Random.nextBelow(Needles.size())];
            // Sometimes plant a second, later hit — first one must win.
            if (Hit + 1 < Len && Random.nextBool(0.5))
              Data[Hit + 1 + Random.nextBelow(Len - Hit - 1)] =
                  Needles[Random.nextBelow(Needles.size())];
          }

          size_t Expect = Ref.FindByteInSet(Data.data(), Len, Needles.data(),
                                            NumNeedles, Bitmap);
          size_t Got = Table->FindByteInSet(Data.data(), Len, Needles.data(),
                                            NumNeedles, Bitmap);
          EXPECT_EQ(Got, Expect) << "Len=" << Len << " needles=" << NumNeedles;
        }
  }
}

TEST(Simd, Crc32cMatchesReferenceAtEveryLengthAndAlignment) {
  Rng Random(0xC5Cu);
  std::vector<uint8_t> Buffer(1024 + 8);
  for (uint8_t &B : Buffer)
    B = static_cast<uint8_t>(Random.nextBelow(256));
  for (const simd::KernelTable *Table : compiledTables()) {
    SCOPED_TRACE(Table->Name);
    for (size_t Shift = 0; Shift < 8; ++Shift)
      for (size_t Len = 0; Len <= 1024; ++Len) {
        const uint8_t *Data = Buffer.data() + Shift;
        const uint32_t Seed = static_cast<uint32_t>(Len * 0x9E3779B9u);
        ASSERT_EQ(Table->Crc32c(Data, Len, 0), bitwiseCrc32c(Data, Len, 0))
            << "Len=" << Len << " shift=" << Shift;
        ASSERT_EQ(Table->Crc32c(Data, Len, Seed),
                  bitwiseCrc32c(Data, Len, Seed))
            << "Len=" << Len << " shift=" << Shift;
      }
  }
}

TEST(Simd, Crc32cIsTheSameChecksumAtEveryLevel) {
  // The standard CRC32C check value, and a running CRC that continues where
  // the last call stopped, through the dispatched crc32c() at each level.
  const std::string Check = "123456789";
  for (simd::Level L : simd::availableLevels()) {
    ASSERT_TRUE(simd::setLevel(L));
    SCOPED_TRACE(simd::levelName(L));
    EXPECT_EQ(crc32c(Check.data(), Check.size()), 0xE3069283u);
    EXPECT_EQ(crc32c(Check.data() + 4, 5, crc32c(Check.data(), 4)),
              0xE3069283u);
    EXPECT_EQ(crc32c(nullptr, 0, 0x1234u), 0x1234u);
  }
  simd::resetToEnv();
}
