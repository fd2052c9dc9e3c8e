//===- AhoCorasick.cpp - multi-literal string matcher ---------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/AhoCorasick.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>
#include <queue>

#if defined(__x86_64__)
#include <emmintrin.h>
#endif

using namespace mfsa;

AhoCorasick::AhoCorasick(const std::vector<std::string> &Literals)
    : NumLiterals(Literals.size()) {
  // Build the trie with sparse child maps first; densify afterwards.
  struct TrieNode {
    std::map<unsigned char, uint32_t> Children;
    std::vector<uint32_t> Ends; ///< Literals terminating here.
    uint32_t Fail = 0;
  };
  std::vector<TrieNode> Trie(1);

  for (size_t L = 0; L < Literals.size(); ++L) {
    const std::string &Literal = Literals[L];
    assert(!Literal.empty() && "empty prefilter literal");
    MaxLiteralLength = std::max(MaxLiteralLength, Literal.size());
    uint32_t Node = 0;
    for (char C : Literal) {
      unsigned char Byte = static_cast<unsigned char>(C);
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

  NumNodes = static_cast<uint32_t>(Trie.size());
  Next.assign(static_cast<size_t>(NumNodes) * 256, 0);

  // BFS: fail links, flattened outputs (own ends plus the fail target's
  // already-flattened outputs), and the dense next table (goto where a
  // child exists, fail-resolved transition otherwise).
  std::vector<std::vector<uint32_t>> Flattened(NumNodes);
  std::queue<uint32_t> Work;

  Flattened[0] = Trie[0].Ends;
  for (unsigned Byte = 0; Byte < 256; ++Byte) {
    auto It = Trie[0].Children.find(static_cast<unsigned char>(Byte));
    if (It != Trie[0].Children.end()) {
      Trie[It->second].Fail = 0;
      Next[Byte] = It->second;
      Work.push(It->second);
    } else {
      Next[Byte] = 0;
    }
  }

  while (!Work.empty()) {
    uint32_t Node = Work.front();
    Work.pop();
    uint32_t Fail = Trie[Node].Fail;
    Flattened[Node] = Trie[Node].Ends;
    Flattened[Node].insert(Flattened[Node].end(), Flattened[Fail].begin(),
                           Flattened[Fail].end());
    for (unsigned Byte = 0; Byte < 256; ++Byte) {
      size_t Row = static_cast<size_t>(Node) * 256 + Byte;
      auto It = Trie[Node].Children.find(static_cast<unsigned char>(Byte));
      if (It != Trie[Node].Children.end()) {
        Trie[It->second].Fail =
            Next[static_cast<size_t>(Fail) * 256 + Byte];
        Next[Row] = It->second;
        Work.push(It->second);
      } else {
        Next[Row] = Next[static_cast<size_t>(Fail) * 256 + Byte];
      }
    }
  }

  OutputOffsets.assign(NumNodes + 1, 0);
  for (uint32_t Node = 0; Node < NumNodes; ++Node)
    OutputOffsets[Node + 1] =
        OutputOffsets[Node] + static_cast<uint32_t>(Flattened[Node].size());
  Outputs.resize(OutputOffsets[NumNodes]);
  for (uint32_t Node = 0; Node < NumNodes; ++Node)
    std::copy(Flattened[Node].begin(), Flattened[Node].end(),
              Outputs.begin() + OutputOffsets[Node]);

  // Root-skip acceleration: collect the bytes that leave the root. While
  // scanning from the root every other byte provably stays there with no
  // output, so the scan loop may jump straight to the next start byte.
  for (unsigned Byte = 0; Byte < 256; ++Byte)
    if (Next[Byte] != 0) {
      RootNeedles.push_back(static_cast<uint8_t>(Byte));
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
