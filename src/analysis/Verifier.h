//===- Verifier.h - multi-level IR verifier ---------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares the structural verifier for the pipeline's IR levels (paper
/// §IV / Fig. 4). The compiler lowers rulesets through four representations
/// — regex AST, ε-NFA, optimized FSA, merged MFSA — and each lowering
/// promises invariants the next stage (and ultimately the iMFAnt engine)
/// relies on. The verifier checks them cheaply and reports violations as
/// positioned diagnostics, LLVM-verifier style: it never mutates, never
/// crashes on corrupt input, and finds *every* violation rather than
/// stopping at the first.
///
/// Invariants per level (docs/static-analysis.md has the full catalog):
///
///   RawNfa (post Thompson construction, §IV-B)
///     - at least one state; initial state in range
///     - every transition endpoint in range; every final state in range
///     - ε-arcs permitted (removed by stage 3)
///
///   OptimizedFsa (post single-FSA optimization, §IV-C)
///     - all RawNfa checks
///     - ε-freedom: every label non-empty
///     - canonical COO: transitions sorted by (From, To, Label), deduplicated;
///       finals sorted and deduplicated (canonicalize() postcondition)
///     - compaction: every state reachable from the initial state and
///       co-reachable to a final state (empty-language automata collapse to
///       exactly one state with no transitions)
///
///   Mfsa (post Algorithm-1 merging, §III, Eq. 10)
///     - every transition endpoint in range; labels non-empty (ε-free)
///     - every belonging set exactly numRules() wide (bel ⊆ R) and non-empty
///     - parallel (From, To, Label) duplicates coalesced (J-consistency: a
///       duplicate arc would double-count activations)
///     - per-rule initial and final states in range (I/F consistency)
///     - per-rule connectivity: every transition owned by rule j is reachable
///       from j's initial state inside j's own sub-automaton (the Merge
///       relabeling is injective, so a disconnected bel-j arc means the
///       relabel map was corrupted)
///     - per-rule GlobalIds pairwise distinct (match attribution)
///
/// Each checker appends findings to a DiagnosticEngine and returns true when
/// the object is clean. The *Error convenience wrappers return the first
/// error rendered as a string (empty = clean) for Result-style call sites.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ANALYSIS_VERIFIER_H
#define MFSA_ANALYSIS_VERIFIER_H

#include "analysis/Diagnostics.h"
#include "fsa/Nfa.h"
#include "mfsa/Mfsa.h"

namespace mfsa {

/// Which lowering the automaton claims to have completed; selects the
/// invariant set verifyNfa enforces.
enum class IrLevel : uint8_t {
  RawNfa,       ///< Stage-2 output: ε-arcs allowed, no canonical form.
  OptimizedFsa, ///< Stage-3 output: ε-free, canonical, compacted.
};

/// Verifies \p A against the invariants of \p Level, appending every
/// violation to \p Diags. \p RuleIndex, when not kNoRule, tags findings with
/// the rule the automaton belongs to. \returns true when clean.
bool verifyNfa(const Nfa &A, IrLevel Level, DiagnosticEngine &Diags,
               uint32_t RuleIndex = SourceSpan::kNoRule);

/// Verifies the merged MFSA invariants of Eq. 10 (see file comment),
/// appending every violation to \p Diags. \returns true when clean.
bool verifyMfsa(const Mfsa &Z, DiagnosticEngine &Diags);

/// First-error wrappers: run the checker and return the first error finding
/// rendered as one line, or the empty string when the object verifies.
std::string verifyNfaError(const Nfa &A, IrLevel Level);
std::string verifyMfsaError(const Mfsa &Z);

} // namespace mfsa

#endif // MFSA_ANALYSIS_VERIFIER_H
