//===- LiteralAnalysis.h - mandatory-literal extraction ---------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares the analysis half of the Hyperscan-style decomposition baseline
/// (paper §I/§VII, Wang et al.): find a *mandatory literal* of an RE — a
/// string every match is guaranteed to contain — and a bound on the match
/// length. Rules with both can be matched lazily: a fast multi-literal scan
/// (AhoCorasick.h) locates candidate regions and the full automaton runs
/// only inside a bounded window around each hit (Prefilter.h).
///
/// The extraction is conservative: returning the empty string ("no literal
/// found") is always sound; a returned literal must genuinely occur in
/// every match.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_FSA_LITERALANALYSIS_H
#define MFSA_FSA_LITERALANALYSIS_H

#include "fsa/Nfa.h"
#include "regex/Ast.h"

#include <cstdint>
#include <string>

namespace mfsa {

/// \returns the longest mandatory literal the analysis can prove for
/// \p Node, or "" when none is found. Conservative: alternations only
/// contribute when every branch shares the same literal.
std::string mandatoryLiteral(const AstNode &Node);

/// \returns the maximum number of symbols any match of \p A consumes, or 0
/// when the automaton is cyclic (unbounded matches). Requires an ε-free
/// automaton.
uint32_t boundedMatchLength(const Nfa &A);

/// Shortest mandatory literal worth gating a rule on: shorter literals hit
/// too often for the confirm windows to stay rare.
inline constexpr uint32_t MinPrefilterLiteralLength = 3;

/// The per-rule prefilter decision.
struct PrefilterInfo {
  bool Prefilterable = false;
  std::string Literal;          ///< Mandatory literal (when prefilterable).
  uint32_t MaxMatchLength = 0;  ///< Window bound (when prefilterable).
};

/// Decides whether a rule can be literal-prefiltered: it must be unanchored,
/// have a mandatory literal of at least MinPrefilterLiteralLength bytes, and
/// a bounded match length.
PrefilterInfo analyzeForPrefilter(const Regex &Re, const Nfa &OptimizedFsa);

} // namespace mfsa

#endif // MFSA_FSA_LITERALANALYSIS_H
