//===- AlphabetPartition.h - symbol-equivalence atoms -----------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the paper's proposed character-class improvement (§VI-A): "we
/// currently merge CCs that describe the same exact set of characters, while
/// it could be possible to partially merge two CCs based on the characters
/// belonging to both. For instance, in CCs [abce] and [bcd] it could be
/// possible to merge the common characters [bc] only."
///
/// The realization: compute the *alphabet partition* induced by every
/// distinct transition label in a ruleset — the coarsest partition of the
/// 256-symbol alphabet such that each label is a union of partition atoms
/// (the classical symbol-equivalence construction behind alphabet
/// reduction [Becchi & Crowley 2007]). Splitting every transition into its
/// atoms makes two classes share exactly their common atoms under the
/// merger's exact-equality rule: [abce] and [bcd] both contain the atom
/// [bc], which merges; the residual atoms [ae] and [d] stay per-rule.
///
/// The trade-off the ablation bench measures: splitting multiplies
/// transitions (hurting the transition count and the engine's per-symbol
/// table) in exchange for finer state sharing.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_FSA_ALPHABETPARTITION_H
#define MFSA_FSA_ALPHABETPARTITION_H

#include "fsa/Nfa.h"

#include <vector>

namespace mfsa {

/// Computes the coarsest partition of the alphabet such that every label in
/// \p Labels is a union of atoms. Symbols in no label are grouped into one
/// residual atom (or dropped if none). Atoms are returned ordered by their
/// smallest symbol; there are at most 256 of them.
std::vector<SymbolSet>
computeAlphabetAtoms(const std::vector<SymbolSet> &Labels);

/// The partition over every transition label of every automaton in \p Fsas.
std::vector<SymbolSet> computeAlphabetAtoms(const std::vector<Nfa> &Fsas);

/// Splits every transition of \p A into one parallel transition per atom it
/// intersects. Labels must be unions of atoms for exact splitting, which
/// computeAlphabetAtoms guarantees; the language is unchanged.
Nfa splitByAtoms(const Nfa &A, const std::vector<SymbolSet> &Atoms);

/// Convenience: atoms over \p Fsas, then split every automaton.
std::vector<Nfa> splitAllByAtoms(const std::vector<Nfa> &Fsas);

} // namespace mfsa

#endif // MFSA_FSA_ALPHABETPARTITION_H
