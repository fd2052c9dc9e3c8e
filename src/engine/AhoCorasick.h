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
/// The automaton is built goto/fail-style and then flattened into a dense
/// per-byte next table (one lookup per input byte); outputs are flattened
/// through the suffix links at build time, so scanning reports every
/// occurrence of every literal, including overlapping and nested ones.
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

/// Dense Aho-Corasick automaton over byte strings.
class AhoCorasick {
public:
  /// Builds the automaton for \p Literals (empty literals are rejected by
  /// assertion; duplicates are allowed and each reports separately).
  explicit AhoCorasick(const std::vector<std::string> &Literals);

  /// Scans \p Input, invoking Fn(LiteralIndex, EndOffset) for every
  /// occurrence (end-exclusive offset, matching the library's match
  /// convention).
  ///
  /// While the automaton sits in the root state — the common case for a
  /// selective prefilter — no output is possible (literals are non-empty)
  /// and only bytes that begin some literal leave the root. When those
  /// start bytes are few (<= kMaxRootNeedles distinct values), the scan
  /// skips ahead to the next such byte (findStartByte) instead of walking
  /// the dense table byte-at-a-time.
  template <typename CallableT>
  void scan(std::string_view Input, CallableT Fn) const {
    const uint8_t *Data = reinterpret_cast<const uint8_t *>(Input.data());
    uint32_t State = 0;
    size_t Pos = 0;
    while (Pos < Input.size()) {
      if (State == 0 && RootSkipEnabled) {
        Pos += findStartByte(Data + Pos, Input.size() - Pos);
        if (Pos >= Input.size())
          break;
      }
      State = Next[static_cast<size_t>(State) * 256 + Data[Pos]];
      for (uint32_t OutIdx = OutputOffsets[State],
                    OutEnd = OutputOffsets[State + 1];
           OutIdx != OutEnd; ++OutIdx)
        Fn(Outputs[OutIdx], Pos + 1);
      ++Pos;
    }
  }

  uint32_t numNodes() const { return NumNodes; }
  /// Length of the longest literal: an occurrence ending at offset E
  /// starts no earlier than E - maxLiteralLength().
  size_t maxLiteralLength() const { return MaxLiteralLength; }

  /// True when the root-skip fast path is active (few distinct literal
  /// start bytes); exposed for tests and bench provenance.
  bool rootSkipEnabled() const { return RootSkipEnabled; }

  /// The block loop compares against each start byte; beyond this the skip
  /// would cost more than the dense table walk it replaces.
  static constexpr size_t kMaxRootNeedles = 8;

private:
  uint32_t NumNodes = 0;
  size_t MaxLiteralLength = 0;
  std::vector<uint32_t> Next;          ///< NumNodes x 256 dense table.
  std::vector<uint32_t> Outputs;       ///< Flattened literal indices.
  std::vector<uint32_t> OutputOffsets; ///< NumNodes + 1 row starts.

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
