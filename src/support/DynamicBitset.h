//===- DynamicBitset.h - variable-width bitset ------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines DynamicBitset, a heap-backed bitset sized at runtime. It backs two
/// MFSA concepts from the paper: the per-transition belonging set `bel`
/// (which merged FSAs a transition derives from, Fig. 2) and the activation
/// set J(q) tracked by iMFAnt during traversal (Eq. 4-6).
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_SUPPORT_DYNAMICBITSET_H
#define MFSA_SUPPORT_DYNAMICBITSET_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mfsa {

/// A runtime-sized bitset with the set-algebra operations the activation
/// function needs: union, intersection, any/none tests, and iteration.
class DynamicBitset {
public:
  DynamicBitset() = default;

  /// Creates a bitset able to hold bits [0, NumBits), all clear.
  explicit DynamicBitset(unsigned NumBits)
      : NumBits(NumBits), Words((NumBits + 63) / 64, 0) {}

  unsigned size() const { return NumBits; }

  // The single-bit accessors assert in checked builds and degrade to a
  // no-op / false in builds that define NDEBUG: an out-of-range index must
  // never scribble past Words (belonging sets index live engine state).

  void set(unsigned Bit) {
    assert(Bit < NumBits && "bit index out of range");
    if (Bit >= NumBits)
      return;
    Words[Bit >> 6] |= 1ULL << (Bit & 63);
  }

  void reset(unsigned Bit) {
    assert(Bit < NumBits && "bit index out of range");
    if (Bit >= NumBits)
      return;
    Words[Bit >> 6] &= ~(1ULL << (Bit & 63));
  }

  bool test(unsigned Bit) const {
    assert(Bit < NumBits && "bit index out of range");
    if (Bit >= NumBits)
      return false;
    return (Words[Bit >> 6] >> (Bit & 63)) & 1;
  }

  /// Clears every bit without changing capacity.
  void clear() {
    for (uint64_t &W : Words)
      W = 0;
  }

  // The bulk queries and set-algebra operators below are plain word loops:
  // bitsets here are a few words wide, where the compiler's own code beats
  // a dispatched kernel call.

  bool any() const {
    for (uint64_t W : Words)
      if (W)
        return true;
    return false;
  }

  bool none() const { return !any(); }

  unsigned count() const {
    unsigned N = 0;
    for (uint64_t W : Words)
      N += static_cast<unsigned>(__builtin_popcountll(W));
    return N;
  }

  // The set-algebra operators likewise assert on width mismatch but never
  // read or write past the shorter operand.

  DynamicBitset &operator|=(const DynamicBitset &Other) {
    assert(NumBits == Other.NumBits && "bitset width mismatch");
    for (size_t I = 0, E = commonWords(Other); I != E; ++I)
      Words[I] |= Other.Words[I];
    return *this;
  }

  DynamicBitset &operator&=(const DynamicBitset &Other) {
    assert(NumBits == Other.NumBits && "bitset width mismatch");
    for (size_t I = 0, E = commonWords(Other); I != E; ++I)
      Words[I] &= Other.Words[I];
    return *this;
  }

  /// Removes every bit of \p Other from this set (this &= ~Other).
  DynamicBitset &subtract(const DynamicBitset &Other) {
    assert(NumBits == Other.NumBits && "bitset width mismatch");
    for (size_t I = 0, E = commonWords(Other); I != E; ++I)
      Words[I] &= ~Other.Words[I];
    return *this;
  }

  friend DynamicBitset operator|(DynamicBitset A, const DynamicBitset &B) {
    return A |= B;
  }
  friend DynamicBitset operator&(DynamicBitset A, const DynamicBitset &B) {
    return A &= B;
  }

  /// \returns true if this set and \p Other share at least one bit.
  bool intersects(const DynamicBitset &Other) const {
    assert(NumBits == Other.NumBits && "bitset width mismatch");
    for (size_t I = 0, E = commonWords(Other); I != E; ++I)
      if (Words[I] & Other.Words[I])
        return true;
    return false;
  }

  friend bool operator==(const DynamicBitset &A, const DynamicBitset &B) {
    return A.NumBits == B.NumBits && A.Words == B.Words;
  }
  friend bool operator!=(const DynamicBitset &A, const DynamicBitset &B) {
    return !(A == B);
  }

  /// Calls \p Fn for every set bit, in increasing order.
  template <typename CallableT> void forEach(CallableT Fn) const {
    for (size_t W = 0, E = Words.size(); W != E; ++W) {
      uint64_t Bits = Words[W];
      while (Bits) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Bits));
        Fn(static_cast<unsigned>(W * 64 + Bit));
        Bits &= Bits - 1;
      }
    }
  }

  /// Direct word access for the engine's hot loop.
  const std::vector<uint64_t> &words() const { return Words; }
  std::vector<uint64_t> &words() { return Words; }

private:
  size_t commonWords(const DynamicBitset &Other) const {
    return std::min(Words.size(), Other.Words.size());
  }

  unsigned NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace mfsa

#endif // MFSA_SUPPORT_DYNAMICBITSET_H
