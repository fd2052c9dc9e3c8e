//===- AhoCorasick.cpp - multi-literal string matcher ---------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/AhoCorasick.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <iterator>
#include <map>

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

using namespace mfsa;

AhoCorasick::AhoCorasick(const std::vector<std::string> &Literals) {
  // The trie with sparse child maps; node 0 is the root.
  struct TrieNode {
    std::map<unsigned char, uint32_t> Children;
    std::vector<uint32_t> Ends; ///< Literals terminating here.
    uint32_t Fail = 0;
  };
  std::vector<TrieNode> Trie(1);
  bool Used[256] = {};

  for (size_t L = 0; L < Literals.size(); ++L) {
    const std::string &Literal = Literals[L];
    assert(!Literal.empty() && "empty prefilter literal");
    MaxLiteralLength = std::max(MaxLiteralLength, Literal.size());
    uint32_t Node = 0;
    for (char C : Literal) {
      unsigned char Byte = static_cast<unsigned char>(C);
      Used[Byte] = true;
      auto It = Trie[Node].Children.find(Byte);
      if (It == Trie[Node].Children.end()) {
        uint32_t Fresh = static_cast<uint32_t>(Trie.size());
        Trie[Node].Children.emplace(Byte, Fresh);
        Trie.emplace_back();
        Node = Fresh;
      } else {
        Node = It->second;
      }
    }
    Trie[Node].Ends.push_back(static_cast<uint32_t>(L));
  }

  // Classes: every literal byte its own, in byte order, after class 0 for
  // all other bytes (absent when the literals use all 256 values). Every
  // transition on an "other" byte returns to the root.
  const bool AllUsed = std::all_of(std::begin(Used), std::end(Used),
                                   [](bool U) { return U; });
  NumClasses = AllUsed ? 0 : 1;
  for (unsigned Byte = 0; Byte < 256; ++Byte)
    if (Used[Byte])
      ClassOfByte[Byte] = static_cast<uint8_t>(NumClasses++);
  const uint32_t K = NumClasses;

  // BFS order, fail links (walking the goto function up the suffix chain)
  // and flattened outputs: a node's own ends, then its fail target's.
  const uint32_t NumNodes = static_cast<uint32_t>(Trie.size());
  std::vector<uint32_t> Order{0};
  std::vector<std::vector<uint32_t>> Flattened(NumNodes);
  for (size_t Head = 0; Head < Order.size(); ++Head) {
    const uint32_t Node = Order[Head];
    Flattened[Node] = Trie[Node].Ends;
    if (Node != 0) {
      const std::vector<uint32_t> &Inherited = Flattened[Trie[Node].Fail];
      Flattened[Node].insert(Flattened[Node].end(), Inherited.begin(),
                             Inherited.end());
    }
    for (const auto &[Byte, Child] : Trie[Node].Children) {
      uint32_t Fail = 0;
      if (Node != 0)
        for (uint32_t F = Trie[Node].Fail;; F = Trie[F].Fail) {
          auto It = Trie[F].Children.find(Byte);
          if (It != Trie[F].Children.end()) {
            Fail = It->second;
            break;
          }
          if (F == 0)
            break;
        }
      Trie[Child].Fail = Fail;
      Order.push_back(Child);
    }
  }

  // Number the nodes without outputs first (the root is one: literals are
  // non-empty), then those with outputs, each part in BFS order.
  std::vector<uint32_t> ByNumber = Order;
  const auto FirstOutput = std::stable_partition(
      ByNumber.begin(), ByNumber.end(),
      [&](uint32_t Node) { return Flattened[Node].empty(); });
  std::vector<uint32_t> Renumbered(NumNodes);
  for (uint32_t Id = 0; Id < NumNodes; ++Id)
    Renumbered[ByNumber[Id]] = Id;
  FirstOutputRow = static_cast<uint32_t>(FirstOutput - ByNumber.begin()) * K;

  // The table, row by row in BFS order: a node's row is its fail target's
  // (filled earlier, as that node is shallower) with its own children laid
  // over it; the root's row is its children over zeros.
  Next.assign(static_cast<size_t>(NumNodes) * K, 0);
  for (uint32_t Node : Order) {
    uint32_t *Row = &Next[static_cast<size_t>(Renumbered[Node]) * K];
    if (Node != 0)
      std::copy_n(&Next[static_cast<size_t>(Renumbered[Trie[Node].Fail]) * K],
                  K, Row);
    for (const auto &[Byte, Child] : Trie[Node].Children)
      Row[ClassOfByte[Byte]] = Renumbered[Child] * K;
  }

  OutputOffsets.assign(1, 0);
  for (auto It = FirstOutput; It != ByNumber.end(); ++It) {
    Outputs.insert(Outputs.end(), Flattened[*It].begin(), Flattened[*It].end());
    OutputOffsets.push_back(static_cast<uint32_t>(Outputs.size()));
  }

  // Root-skip acceleration: collect the bytes that leave the root. While
  // scanning from the root every other byte provably stays there with no
  // output, so the scan loop may jump straight to the next start byte.
  for (const auto &[Byte, Child] : Trie[0].Children) {
    RootNeedles.push_back(Byte);
    RootBitmap[Byte >> 6] |= 1ULL << (Byte & 63);
  }
  RootSkipEnabled =
      !RootNeedles.empty() && RootNeedles.size() <= kMaxRootNeedles;
}

size_t AhoCorasick::findStartByte(const uint8_t *Data, size_t Len) const {
  if (RootNeedles.size() == 1) {
    const void *Hit = std::memchr(Data, RootNeedles[0], Len);
    return Hit ? static_cast<size_t>(static_cast<const uint8_t *>(Hit) - Data)
               : Len;
  }
  size_t I = 0;
#if defined(__x86_64__)
  __m128i Needles[kMaxRootNeedles];
  const size_t N = RootNeedles.size();
  for (size_t J = 0; J < N; ++J)
    Needles[J] = _mm_set1_epi8(static_cast<char>(RootNeedles[J]));
  for (; I + 16 <= Len; I += 16) {
    const __m128i Block =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(Data + I));
    __m128i Hit = _mm_setzero_si128();
    for (size_t J = 0; J < N; ++J)
      Hit = _mm_or_si128(Hit, _mm_cmpeq_epi8(Block, Needles[J]));
    if (const unsigned Mask = static_cast<unsigned>(_mm_movemask_epi8(Hit)))
      return I + static_cast<size_t>(__builtin_ctz(Mask));
  }
#endif
  for (; I < Len; ++I)
    if (RootBitmap[Data[I] >> 6] >> (Data[I] & 63) & 1)
      return I;
  return Len;
}
