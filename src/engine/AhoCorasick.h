//===- AhoCorasick.h - multi-literal string matcher -------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares AhoCorasick, the classic multi-pattern string matcher used as
/// the literal-prefilter substrate (see Prefilter.h). The paper's §I/§VII
/// discuss the decomposition approach of Hyperscan [Wang et al., NSDI'19]:
/// "exploits regex decomposition to split complex patterns into disjoint
/// sets of string and FSA components, thus alleviating the computation load
/// by delaying FSA execution until the string matching analysis is
/// required". This class is the string-matching half of that baseline.
///
/// The automaton is built goto/fail-style and flattened into a byte-class
/// transition table, the grouped layout the dense iMFAnt engine uses: every
/// byte that occurs in some literal is its own class and all other bytes
/// share one, so a node's row is K entries wide instead of 256. Entries are
/// premultiplied row offsets (node × K), so a step is one class lookup and
/// one table load. Nodes are numbered so that those with outputs come last;
/// a step tests its row against the first output row instead of loading
/// output bounds. Outputs are flattened through the suffix links at build
/// time, so scanning reports every occurrence of every literal, including
/// overlapping and nested ones.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ENGINE_AHOCORASICK_H
#define MFSA_ENGINE_AHOCORASICK_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mfsa {

/// Byte-class Aho-Corasick automaton over byte strings.
class AhoCorasick {
public:
  /// Builds the automaton for \p Literals (empty literals are rejected by
  /// assertion; duplicates are allowed and each reports separately).
  explicit AhoCorasick(const std::vector<std::string> &Literals);

  /// Scans \p Input, invoking Fn(LiteralIndex, EndOffset) for every
  /// occurrence (end-exclusive offset, matching the library's match
  /// convention).
  ///
  /// While the automaton sits in the root state no output is possible
  /// (literals are non-empty) and only bytes that begin some literal leave
  /// the root. When those start bytes are few (<= kMaxRootNeedles distinct
  /// values), the scan skips ahead to the next such byte (findStartByte)
  /// whenever it is back at the root. Otherwise it walks the table with no
  /// root test: the choice is made once per call, not per byte.
  template <typename CallableT>
  void scan(std::string_view Input, CallableT Fn) const {
    const uint8_t *Data = reinterpret_cast<const uint8_t *>(Input.data());
    const size_t Size = Input.size();
    const uint8_t *ClassOf = ClassOfByte;
    const uint32_t *Table = Next.data();
    const uint32_t OutputRow = FirstOutputRow;
    uint32_t Row = 0;
    if (!RootSkipEnabled) {
      for (size_t Pos = 0; Pos < Size; ++Pos) {
        Row = Table[Row + ClassOf[Data[Pos]]];
        if (__builtin_expect(Row >= OutputRow, 0))
          report(Row, Pos + 1, Fn);
      }
      return;
    }
    size_t Pos = 0;
    while (Pos < Size) {
      if (Row == 0) {
        Pos += findStartByte(Data + Pos, Size - Pos);
        if (Pos >= Size)
          break;
      }
      Row = Table[Row + ClassOf[Data[Pos]]];
      if (Row >= OutputRow)
        report(Row, Pos + 1, Fn);
      ++Pos;
    }
  }

  /// Length of the longest literal: an occurrence ending at offset E
  /// starts no earlier than E - maxLiteralLength().
  size_t maxLiteralLength() const { return MaxLiteralLength; }

  /// Bytes of the transition table (nodes × classes × 4).
  size_t tableBytes() const { return Next.size() * sizeof(uint32_t); }

  /// True when the root-skip fast path is active (few distinct literal
  /// start bytes); exposed for tests and bench provenance.
  bool rootSkipEnabled() const { return RootSkipEnabled; }

  /// The block loop compares against each start byte; beyond this the skip
  /// would cost more than the table walk it replaces.
  static constexpr size_t kMaxRootNeedles = 8;

private:
  /// Reports the outputs of the node at \p Row, an output row, ending at
  /// \p End.
  template <typename CallableT>
  void report(uint32_t Row, size_t End, CallableT &Fn) const {
    const uint32_t Node = (Row - FirstOutputRow) / NumClasses;
    for (uint32_t OutIdx = OutputOffsets[Node],
                  OutEnd = OutputOffsets[Node + 1];
         OutIdx != OutEnd; ++OutIdx)
      Fn(Outputs[OutIdx], End);
  }

  size_t MaxLiteralLength = 0;
  uint32_t NumClasses = 0;     ///< K: literal bytes, plus one for the rest.
  uint32_t FirstOutputRow = 0; ///< Row offset of the first node with output.
  uint8_t ClassOfByte[256] = {};
  /// Nodes × K, premultiplied: the successor's row offset (node × K).
  std::vector<uint32_t> Next;
  std::vector<uint32_t> Outputs; ///< Flattened literal indices.
  /// Output node i (counting from the first output row) reports
  /// Outputs[OutputOffsets[i], OutputOffsets[i + 1]).
  std::vector<uint32_t> OutputOffsets;

  /// \returns the index of the first byte of Data[0, Len) that leaves the
  /// root, or Len if none does: memchr for one start byte; otherwise 16-byte
  /// PCMPEQB blocks on x86-64 (SSE2, the baseline) and the bitmap probe for
  /// the tail, or for the whole buffer on other targets.
  size_t findStartByte(const uint8_t *Data, size_t Len) const;

  /// Root-skip state: the distinct bytes with a root transition, as a list
  /// for memchr and the block compares and as a 256-bit membership bitmap.
  std::vector<uint8_t> RootNeedles;
  uint64_t RootBitmap[4] = {0, 0, 0, 0};
  bool RootSkipEnabled = false;
};

} // namespace mfsa

#endif // MFSA_ENGINE_AHOCORASICK_H
