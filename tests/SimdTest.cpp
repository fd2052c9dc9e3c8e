//===- SimdTest.cpp - vector kernel property tests -----------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Property-tests every compiled KernelTable against the scalar reference on
// randomized word counts — including widths that are not a multiple of the
// 128/256-bit lane size, the empty set, and all-ones — plus the DynamicBitset
// wrappers under every dispatch level and the byte-class search powering the
// literal-prefilter root skip.
//
//===----------------------------------------------------------------------===//

#include "support/DynamicBitset.h"
#include "support/Rng.h"
#include "support/SimdDispatch.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstring>
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

/// Word counts that straddle every kernel's main-loop/tail boundary: 0 and 1
/// (degenerate), 2/4 (exactly one 128/256-bit step), odd counts that leave a
/// tail at both lane sizes, and a few larger sizes.
const size_t kWidths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 64};

enum class Fill { Random, Zero, Ones, Sparse };

std::vector<uint64_t> makeWords(Rng &Random, size_t W, Fill Kind) {
  std::vector<uint64_t> Words(W, 0);
  switch (Kind) {
  case Fill::Zero:
    break;
  case Fill::Ones:
    std::fill(Words.begin(), Words.end(), ~uint64_t(0));
    break;
  case Fill::Random:
    for (uint64_t &Word : Words)
      Word = Random.next();
    break;
  case Fill::Sparse:
    for (uint64_t &Word : Words)
      Word = Random.nextBool(0.2) ? (uint64_t(1) << Random.nextBelow(64)) : 0;
    break;
  }
  return Words;
}

const Fill kFills[] = {Fill::Random, Fill::Zero, Fill::Ones, Fill::Sparse};

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

TEST(Simd, WordKernelsMatchScalar) {
  const simd::KernelTable &Ref = simd::scalarKernels();
  Rng Random(0x51u);
  for (const simd::KernelTable *Table : compiledTables()) {
    SCOPED_TRACE(Table->Name);
    for (size_t W : kWidths)
      for (Fill DstFill : kFills)
        for (Fill SrcFill : kFills) {
          std::vector<uint64_t> Dst = makeWords(Random, W, DstFill);
          std::vector<uint64_t> Src = makeWords(Random, W, SrcFill);

          std::vector<uint64_t> Expect = Dst, Got = Dst;
          Ref.OrWords(Expect.data(), Src.data(), W);
          Table->OrWords(Got.data(), Src.data(), W);
          EXPECT_EQ(Got, Expect) << "OrWords W=" << W;

          Expect = Dst;
          Got = Dst;
          Ref.AndWords(Expect.data(), Src.data(), W);
          Table->AndWords(Got.data(), Src.data(), W);
          EXPECT_EQ(Got, Expect) << "AndWords W=" << W;

          Expect = Dst;
          Got = Dst;
          Ref.AndNotWords(Expect.data(), Src.data(), W);
          Table->AndNotWords(Got.data(), Src.data(), W);
          EXPECT_EQ(Got, Expect) << "AndNotWords W=" << W;

          EXPECT_EQ(Table->AnyWords(Dst.data(), W),
                    Ref.AnyWords(Dst.data(), W))
              << "AnyWords W=" << W;
          EXPECT_EQ(Table->IntersectsWords(Dst.data(), Src.data(), W),
                    Ref.IntersectsWords(Dst.data(), Src.data(), W))
              << "IntersectsWords W=" << W;
          EXPECT_EQ(Table->CountWords(Dst.data(), W),
                    Ref.CountWords(Dst.data(), W))
              << "CountWords W=" << W;
        }
  }
}

TEST(Simd, FusedKernelsMatchScalar) {
  const simd::KernelTable &Ref = simd::scalarKernels();
  Rng Random(0x52u);
  for (const simd::KernelTable *Table : compiledTables()) {
    SCOPED_TRACE(Table->Name);
    for (size_t W : kWidths)
      for (int Round = 0; Round < 8; ++Round) {
        std::vector<uint64_t> Src =
            makeWords(Random, W, kFills[Random.nextBelow(4)]);
        std::vector<uint64_t> Bel =
            makeWords(Random, W, kFills[Random.nextBelow(4)]);

        std::vector<uint64_t> Expect(W, 0), Got(W, 0);
        bool RefAny = Ref.AndInto(Expect.data(), Src.data(), Bel.data(), W);
        bool GotAny = Table->AndInto(Got.data(), Src.data(), Bel.data(), W);
        EXPECT_EQ(Got, Expect) << "AndInto W=" << W;
        EXPECT_EQ(GotAny, RefAny) << "AndInto any W=" << W;
      }
  }
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

TEST(Simd, DynamicBitsetAgreesAcrossLevels) {
  // Model-check the DynamicBitset wrappers under every dispatch level
  // against a std::set-of-bits model, on widths that are deliberately not
  // multiples of 64 or of any lane size.
  Rng Random(0x54u);
  for (simd::Level L : simd::availableLevels()) {
    SCOPED_TRACE(simd::levelName(L));
    ASSERT_TRUE(simd::setLevel(L));
    for (size_t Bits : {size_t(1), size_t(63), size_t(64), size_t(65),
                        size_t(127), size_t(130), size_t(300), size_t(517)})
      for (int Round = 0; Round < 6; ++Round) {
        DynamicBitset A(Bits), B(Bits);
        std::set<size_t> ModelA, ModelB;
        size_t Pop = Random.nextBelow(Bits + 1);
        for (size_t I = 0; I < Pop; ++I) {
          size_t BitA = Random.nextBelow(Bits);
          size_t BitB = Random.nextBelow(Bits);
          A.set(BitA);
          ModelA.insert(BitA);
          B.set(BitB);
          ModelB.insert(BitB);
        }

        EXPECT_EQ(A.count(), ModelA.size());
        EXPECT_EQ(A.any(), !ModelA.empty());
        bool ModelIntersects = false;
        for (size_t Bit : ModelA)
          ModelIntersects |= ModelB.count(Bit) != 0;
        EXPECT_EQ(A.intersects(B), ModelIntersects);

        DynamicBitset Or = A;
        Or |= B;
        std::set<size_t> ModelOr = ModelA;
        ModelOr.insert(ModelB.begin(), ModelB.end());
        EXPECT_EQ(Or.count(), ModelOr.size());
        for (size_t Bit : ModelOr)
          EXPECT_TRUE(Or.test(Bit));

        DynamicBitset And = A;
        And &= B;
        size_t ModelAndCount = 0;
        for (size_t Bit : ModelA)
          if (ModelB.count(Bit)) {
            ++ModelAndCount;
            EXPECT_TRUE(And.test(Bit));
          }
        EXPECT_EQ(And.count(), ModelAndCount);

        DynamicBitset Sub = A;
        Sub.subtract(B);
        size_t ModelSubCount = 0;
        for (size_t Bit : ModelA)
          if (!ModelB.count(Bit)) {
            ++ModelSubCount;
            EXPECT_TRUE(Sub.test(Bit));
          }
        EXPECT_EQ(Sub.count(), ModelSubCount);
      }
  }
  simd::resetToEnv();
}
