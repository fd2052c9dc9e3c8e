//===- SupportTest.cpp - unit tests for the support library ------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/DynamicBitset.h"
#include "support/Result.h"
#include "support/Rng.h"
#include "support/StringUtil.h"
#include "support/SymbolSet.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>

using namespace mfsa;

//===----------------------------------------------------------------------===//
// SymbolSet
//===----------------------------------------------------------------------===//

TEST(SymbolSet, EmptyAndSingleton) {
  SymbolSet Empty;
  EXPECT_TRUE(Empty.empty());
  EXPECT_EQ(Empty.count(), 0u);
  EXPECT_FALSE(Empty.isSingleton());

  SymbolSet A = SymbolSet::singleton('a');
  EXPECT_FALSE(A.empty());
  EXPECT_TRUE(A.isSingleton());
  EXPECT_EQ(A.count(), 1u);
  EXPECT_TRUE(A.contains('a'));
  EXPECT_FALSE(A.contains('b'));
  EXPECT_EQ(A.min(), 'a');
}

TEST(SymbolSet, RangeAndCount) {
  SymbolSet Digits = SymbolSet::range('0', '9');
  EXPECT_EQ(Digits.count(), 10u);
  EXPECT_TRUE(Digits.contains('5'));
  EXPECT_FALSE(Digits.contains('a'));
  EXPECT_EQ(Digits.min(), '0');

  EXPECT_TRUE(SymbolSet::range('b', 'a').empty());
  EXPECT_EQ(SymbolSet::range(0, 255).count(), 256u);
}

TEST(SymbolSet, SetAlgebra) {
  SymbolSet A = SymbolSet::range('a', 'f');
  SymbolSet B = SymbolSet::range('d', 'k');
  SymbolSet Union = A | B;
  SymbolSet Inter = A & B;
  EXPECT_EQ(Union.count(), 11u);
  EXPECT_EQ(Inter.count(), 3u);
  EXPECT_TRUE(A.intersects(B));
  EXPECT_FALSE(A.intersects(SymbolSet::singleton('z')));

  SymbolSet Comp = A.complement();
  EXPECT_EQ(Comp.count(), 256u - 6u);
  EXPECT_FALSE(Comp.contains('a'));
  EXPECT_TRUE(Comp.contains('z'));
  EXPECT_EQ((A | Comp).count(), 256u);
}

TEST(SymbolSet, EqualityHashOrdering) {
  SymbolSet A = SymbolSet::of("abc");
  SymbolSet B = SymbolSet::range('a', 'c');
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
  SymbolSet C = SymbolSet::of("abd");
  EXPECT_NE(A, C);
  // Ordering is total and consistent with equality.
  EXPECT_TRUE((A < C) != (C < A));
  EXPECT_FALSE(A < B);
  EXPECT_FALSE(B < A);
}

TEST(SymbolSet, ForEachIteratesInOrder) {
  SymbolSet S = SymbolSet::of("zax0");
  std::string Seen;
  S.forEach([&](unsigned char C) { Seen.push_back(static_cast<char>(C)); });
  EXPECT_EQ(Seen, "0axz");
}

TEST(SymbolSet, ToStringSingletonAndClass) {
  EXPECT_EQ(SymbolSet::singleton('a').toString(), "a");
  EXPECT_EQ(SymbolSet::range('a', 'd').toString(), "[a-d]");
  EXPECT_EQ(SymbolSet::of("ab").toString(), "[ab]");
  // Metacharacters inside classes are escaped.
  EXPECT_EQ(SymbolSet::singleton('\\').toString(), "\\\\");
  // Non-printables render as hex escapes.
  EXPECT_EQ(SymbolSet::singleton('\n').toString(), "\\x0a");
}

//===----------------------------------------------------------------------===//
// DynamicBitset
//===----------------------------------------------------------------------===//

TEST(DynamicBitset, BasicSetTestReset) {
  DynamicBitset B(130);
  EXPECT_EQ(B.size(), 130u);
  EXPECT_TRUE(B.none());
  B.set(0);
  B.set(64);
  B.set(129);
  EXPECT_TRUE(B.test(0));
  EXPECT_TRUE(B.test(64));
  EXPECT_TRUE(B.test(129));
  EXPECT_FALSE(B.test(1));
  EXPECT_EQ(B.count(), 3u);
  B.reset(64);
  EXPECT_FALSE(B.test(64));
  EXPECT_EQ(B.count(), 2u);
  B.clear();
  EXPECT_TRUE(B.none());
}

TEST(DynamicBitset, AlgebraAndIntersects) {
  DynamicBitset A(100), B(100);
  A.set(3);
  A.set(77);
  B.set(77);
  B.set(99);
  EXPECT_TRUE(A.intersects(B));
  DynamicBitset U = A | B;
  EXPECT_EQ(U.count(), 3u);
  DynamicBitset I = A & B;
  EXPECT_EQ(I.count(), 1u);
  EXPECT_TRUE(I.test(77));
  B.reset(77);
  EXPECT_FALSE(A.intersects(B));
}

TEST(DynamicBitset, ForEachOrder) {
  DynamicBitset B(200);
  B.set(190);
  B.set(2);
  B.set(65);
  std::vector<unsigned> Seen;
  B.forEach([&](unsigned Bit) { Seen.push_back(Bit); });
  EXPECT_EQ(Seen, (std::vector<unsigned>{2, 65, 190}));
}

TEST(DynamicBitset, AlgebraAgreesWithSetModel) {
  // Model-check the bulk queries and set algebra against a std::set-of-bits
  // model, on widths that are deliberately not multiples of 64.
  Rng Random(0x54u);
  for (size_t Bits : {size_t(1), size_t(63), size_t(64), size_t(65),
                      size_t(127), size_t(130), size_t(300), size_t(517)})
    for (int Round = 0; Round < 6; ++Round) {
      SCOPED_TRACE("bits=" + std::to_string(Bits));
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

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(Rng, DeterministicForSeed) {
  Rng A(42), B(42), C(43);
  EXPECT_EQ(A.next(), B.next());
  EXPECT_EQ(A.next(), B.next());
  // Different seeds diverge (overwhelmingly likely for a correct PRNG).
  Rng A2(42);
  EXPECT_NE(A2.next(), C.next());
}

TEST(Rng, BoundsRespected) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.nextBelow(13);
    EXPECT_LT(V, 13u);
    uint64_t W = R.nextInRange(5, 9);
    EXPECT_GE(W, 5u);
    EXPECT_LE(W, 9u);
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Rng, RoughUniformity) {
  Rng R(11);
  std::vector<int> Buckets(10, 0);
  const int N = 100000;
  for (int I = 0; I < N; ++I)
    ++Buckets[R.nextBelow(10)];
  for (int Count : Buckets) {
    EXPECT_GT(Count, N / 10 * 0.9);
    EXPECT_LT(Count, N / 10 * 1.1);
  }
}

//===----------------------------------------------------------------------===//
// StringUtil
//===----------------------------------------------------------------------===//

TEST(StringUtil, XmlEscapeRoundTrip) {
  std::string Raw = "a<b>&c\"d'e";
  std::string Escaped = xmlEscape(Raw);
  EXPECT_EQ(Escaped, "a&lt;b&gt;&amp;c&quot;d&apos;e");
  EXPECT_EQ(xmlUnescape(Escaped), Raw);
}

TEST(StringUtil, XmlUnescapeNumericEntities) {
  EXPECT_EQ(xmlUnescape("&#65;&#x42;"), "AB");
  EXPECT_EQ(xmlUnescape("&unknown;"), "&unknown;");
}

TEST(StringUtil, SplitTrimFormat) {
  EXPECT_EQ(splitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(splitString("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(trimString("  x y \t\n"), "x y");
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_TRUE(startsWith("transition", "trans"));
  EXPECT_FALSE(startsWith("tr", "trans"));
}

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

TEST(Result, ValueAndError) {
  Result<int> Ok(7);
  ASSERT_TRUE(Ok.ok());
  EXPECT_EQ(*Ok, 7);

  Result<int> Err = Result<int>::error("boom", 12);
  ASSERT_FALSE(Err.ok());
  EXPECT_EQ(Err.diag().Message, "boom");
  EXPECT_EQ(Err.diag().Offset, 12u);
  EXPECT_EQ(Err.diag().render(), "offset 12: boom");

  Diag NoPos("plain", static_cast<size_t>(-1));
  EXPECT_EQ(NoPos.render(), "plain");
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool Pool(4);
  std::atomic<int> Counter{0};
  for (int I = 0; I < 100; ++I)
    Pool.submit([&Counter] { Counter.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 100);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool Pool(2);
  std::atomic<int> Counter{0};
  for (int Batch = 0; Batch < 3; ++Batch) {
    for (int I = 0; I < 10; ++I)
      Pool.submit([&Counter] { Counter.fetch_add(1); });
    Pool.wait();
    EXPECT_EQ(Counter.load(), (Batch + 1) * 10);
  }
}

TEST(ThreadPool, OversubscriptionWorks) {
  // More threads than tasks and vice versa.
  ThreadPool Pool(16);
  std::atomic<int> Counter{0};
  for (int I = 0; I < 4; ++I)
    Pool.submit([&Counter] { Counter.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 4);
}
