//===- Determinize.h - scanning subset construction -------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares the DFA baseline of the paper's §II discussion: determinization
/// trades the NFA's multiple active states for single-transition traversal
/// at the price of (potentially exponential) state explosion. The bench
/// suite uses it both as a per-rule execution baseline and to demonstrate
/// the explosion that motivates MFSAs for whole rulesets.
///
/// The construction is a *scanning* subset construction over a multi-rule
/// union NFA:
///
///   - the start subset holds every rule's initial state;
///   - unanchored rules' initial states are re-injected into every successor
///     subset, realizing match attempts at every input offset (anchored-
///     start rules only live in subsets reached without restart);
///   - transitions are computed per alphabet-partition atom
///     (AlphabetPartition.h), keeping the table narrow;
///   - each DFA state carries two per-rule accept sets: reported at every
///     offset, or only at end-of-input (for `$`-anchored rules).
///
/// determinize() fails gracefully with a diagnostic when the subset count
/// exceeds MaxStates — the explosion itself is a measured result, not a
/// crash. The planner's DFA probe (analysis/CostModel.h) relies on that: it
/// runs this construction under a 4096-state cap on every M=50 group.
///
/// Algorithm. Let R be the restart set. Every subset contains R, so a
/// subset is interned by its part outside R. Each state keeps one list of
/// (atom, successor) moves, built once, without the moves R makes on the
/// same atom anyway. Expanding a subset scatters its states' lists into one
/// flat bucket per atom (a counting sort), then per atom in order:
///
///   - a bucket of at most one move always leads to the same target (R's
///     successors on the atom, plus the move's successor): its id is
///     interned on first use and then read from a per-atom or per-move
///     cache;
///   - otherwise the target is R's successors ∪ the bucket. The two are
///     disjoint, so the bucket's repeats are dropped with a stamp array and
///     the union is hashed as a sum of per-state mixes, without merging.
///     The hash table compares a candidate only on a hash and size match,
///     by checking every state of the stored subset against the stamps; a
///     new target is merged into the pool from the sorted bucket and R's
///     presorted successors.
///
/// Cost. Expanding a subset costs its states' moves (outside R's) plus, per
/// atom, O(1) for a cached target or O(|R's successors| + |bucket|) for the
/// others, instead of (subset states × atoms) cell probes and a sort of the
/// whole target per atom.
///
/// Why the output is unchanged. Subsets are still expanded in id order and
/// their atoms in atom order, and every target is still interned the first
/// time it is met (a later intern of a known subset would return its id, so
/// reading a cached id instead changes nothing). The cap is checked after
/// every intern that can add a subset. So ids, breadth-first discovery
/// order, Next, the accept sets and the explosion point equal the textbook
/// construction's, which tests/AnalysisTest.cpp keeps as the oracle
/// (`Exactness.Determinize*`).
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_FSA_DETERMINIZE_H
#define MFSA_FSA_DETERMINIZE_H

#include "fsa/Nfa.h"
#include "support/DynamicBitset.h"
#include "support/Result.h"

#include <cstdint>
#include <vector>

namespace mfsa {

/// A dense scanning DFA over a multi-rule union automaton.
struct Dfa {
  uint32_t NumStates = 0;
  uint32_t NumAtoms = 0;
  uint32_t NumRules = 0;

  /// Row-major transition table: Next[State * NumAtoms + Atom].
  std::vector<uint32_t> Next;
  /// Byte -> atom index.
  std::vector<uint8_t> AtomOfByte;
  /// Per-state rule-accept sets (width NumRules).
  std::vector<DynamicBitset> Accept;      ///< Report at any offset.
  std::vector<DynamicBitset> AcceptAtEnd; ///< Report at end-of-input only.
  /// Local rule -> dataset rule id.
  std::vector<uint32_t> GlobalIds;

  uint32_t start() const { return 0; }

  /// Approximate memory footprint of the matching structure in bytes.
  size_t footprintBytes() const;
};

/// Options for determinize().
struct DeterminizeOptions {
  /// Abort with a diagnostic beyond this many DFA states.
  uint32_t MaxStates = 1u << 17;
};

/// Builds the scanning DFA for \p Fsas (ε-free; one rule per automaton,
/// global ids parallel to it). Fails when the subset construction exceeds
/// Options.MaxStates.
Result<Dfa> determinize(const std::vector<Nfa> &Fsas,
                        const std::vector<uint32_t> &GlobalIds,
                        const DeterminizeOptions &Options = {});

} // namespace mfsa

#endif // MFSA_FSA_DETERMINIZE_H
