//===- TranslationValidate.h - per-pass equivalence proofs ------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares translation validation for the compile pipeline: instead of
/// trusting each optimization pass and the Algorithm-1 merge, *prove* after
/// the fact that the transformation preserved the language, using the
/// antichain inclusion checker (Inclusion.h). Two entry points:
///
///   - validatePassEquivalence: L(Before) == L(After) for one single-FSA
///     pass application (ε-removal, multiplicity folding, bisimulation
///     merging, compaction, atom splitting). Anchor flags must also agree —
///     passes never touch them, so a flip is a pass bug.
///   - validateMergeProjection: the paper's central claim (§III-B, Eq. 10),
///     per rule r: L(project(MFSA, bel_r)) == L(FSA_r), with the projection
///     materialized by Mfsa::extractRule.
///
/// A failed proof produces a Finding carrying the (shortest) counterexample
/// word. Before reporting, the word is replayed through the independent
/// whole-word oracle (acceptsWord) on both automata; agreement between
/// prover and oracle means the failure self-confirms as a real miscompile.
/// If the oracle *disagrees* with the prover, the finding is downgraded to
/// `validate.replay.diverged` — the checker itself is buggy, which must
/// never be silently reported as a miscompile (or vice versa).
///
/// Check catalog (docs/static-analysis.md has the user-facing docs):
///
///   validate.pass.language-changed    a pass changed the language (error)
///   validate.pass.anchor-changed      a pass flipped an anchor flag (error)
///   validate.pass.inconclusive        proof hit the macrostate cutoff (note)
///   validate.merge.projection-changed the merged MFSA's bel-projection of a
///                                     rule differs from the rule's input
///                                     FSA (error)
///   validate.merge.anchor-changed     merge lost a rule's anchors (error)
///   validate.merge.inconclusive       projection proof hit the cutoff (note)
///   validate.replay.diverged          prover and replay oracle disagree on
///                                     the counterexample — a checker bug,
///                                     not a miscompile (error)
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ANALYSIS_TRANSLATIONVALIDATE_H
#define MFSA_ANALYSIS_TRANSLATIONVALIDATE_H

#include "analysis/Diagnostics.h"
#include "analysis/Inclusion.h"
#include "fsa/Nfa.h"
#include "mfsa/Mfsa.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mfsa {

/// Knobs for one validation run.
struct ValidateOptions {
  /// Per-proof resource cap (see InclusionOptions).
  InclusionOptions Inclusion;

  /// Automata larger than this many states (on either side) are not proven;
  /// the proof is counted as skipped rather than attempted, since the
  /// antichain bound is worst-case exponential. 0 means no cutoff.
  uint32_t MaxProofStates = 4096;
};

/// Aggregate cost/outcome accounting for a validation run, published as
/// `analysis.inclusion.*` metrics by the pipeline.
struct ValidateStats {
  uint64_t Proofs = 0;       ///< Equivalences proven.
  uint64_t Failures = 0;     ///< Refuted proofs (real miscompiles).
  uint64_t Inconclusive = 0; ///< Proofs that hit the macrostate cutoff.
  uint64_t Skipped = 0;      ///< Automata over MaxProofStates.
  uint64_t MacrostatesExplored = 0;
  uint64_t AntichainPeak = 0; ///< Max over individual proofs.
  double WallMs = 0.0;

  void absorb(const InclusionStats &S) {
    MacrostatesExplored += S.MacrostatesExplored;
    AntichainPeak = AntichainPeak > S.AntichainPeak ? AntichainPeak
                                                    : S.AntichainPeak;
    WallMs += S.WallMs;
  }
};

/// Renders \p Word for embedding in a diagnostic message: printable ASCII
/// kept, everything else as \xNN, the whole word quoted; ε renders as "".
std::string renderWord(const std::string &Word);

/// Proves L(Before) == L(After) (and anchor agreement) for one application
/// of pass \p PassName on rule \p RuleIndex (SourceSpan::kNoRule when the
/// rule is unknown). Failures and inconclusive proofs are reported to
/// \p Diags per the catalog above. \returns false iff the proof was refuted
/// (an inconclusive or skipped proof returns true: not proven wrong).
bool validatePassEquivalence(const Nfa &Before, const Nfa &After,
                             const char *PassName, uint32_t RuleIndex,
                             const ValidateOptions &Options,
                             DiagnosticEngine &Diags,
                             ValidateStats *Stats = nullptr);

/// validatePassEquivalence with the string-error calling convention the
/// pipeline's quarantine path uses (mirrors verifyNfaError): \returns the
/// first error finding's text, or an empty string when nothing was refuted.
std::string validatePassEquivalenceError(const Nfa &Before, const Nfa &After,
                                         const char *PassName,
                                         const ValidateOptions &Options,
                                         ValidateStats *Stats = nullptr);

/// Proves, for every rule r of \p Z, that the belonging-set projection
/// extractRule(r) accepts exactly L(*\p Inputs[r]) (Eq. 10). \p Inputs is
/// parallel to Z's rule ids (the same automata the merge consumed).
/// Findings reference the rules' GlobalIds. \returns false iff some
/// projection proof was refuted.
bool validateMergeProjection(const Mfsa &Z,
                             const std::vector<const Nfa *> &Inputs,
                             const ValidateOptions &Options,
                             DiagnosticEngine &Diags,
                             ValidateStats *Stats = nullptr);

/// String-error wrapper of validateMergeProjection (see above).
std::string validateMergeProjectionError(const Mfsa &Z,
                                         const std::vector<const Nfa *> &Inputs,
                                         const ValidateOptions &Options,
                                         ValidateStats *Stats = nullptr);

} // namespace mfsa

#endif // MFSA_ANALYSIS_TRANSLATIONVALIDATE_H
