//===- Lint.h - mfsalint ruleset analyzer -----------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares the ruleset linter behind the `mfsalint` CLI: static analyses
/// that flag rules which will compile fine but behave pathologically at
/// match time or waste the merger's work. TDFA-style static ambiguity
/// analysis (Borsotti & Trafimovich 2022) motivates catching these before
/// execution; the CompileBudget (Pipeline.h) only catches them after the
/// blowup has already been attempted.
///
/// Rule catalog (docs/static-analysis.md documents each with examples):
///
///   lint.parse-error              the pattern does not parse (error)
///   lint.build-error              the pattern parses but FSA construction
///                                 fails, e.g. a repeat bound over the
///                                 builder limit (error)
///   lint.redos.nested-quantifier  an unbounded quantifier wraps a
///                                 variable-iteration quantifier, e.g.
///                                 `(a+)+` — ambiguity grows the active
///                                 state set and is catastrophic in
///                                 backtracking consumers (warning)
///   lint.redos.ambiguous-loop     the rule's ε-free NFA has a state with
///                                 two looping out-transitions over
///                                 overlapping symbols — the NFA-level
///                                 ambiguity witness of the same defect
///                                 (warning)
///   lint.expansion.state-blowup   bounded-repeat expansion (§IV-C (2))
///                                 will allocate ~N states, above the lint
///                                 threshold — it would hit (or dwarf) the
///                                 CompileBudget; the rule is excluded from
///                                 the NFA/language/pairwise layers so the
///                                 linter doesn't pay the blowup it just
///                                 reported (warning)
///   lint.language.empty           the rule can never report a match: no
///                                 final state survives optimization, or
///                                 its language is ⊆ {ε} and zero-length
///                                 matches are never reported (warning)
///   lint.language.universal       every single-byte input matches, so the
///                                 rule fires at every offset (warning)
///   lint.duplicate-rule           two rules have identical optimized
///                                 automata, proven-equal languages
///                                 (antichain inclusion checker, tagged
///                                 "exact"), or agree on every probe input
///                                 of the brute-force Reference oracle
///                                 (tagged "heuristic") (warning)
///   lint.subsumed-rule            rule A's language is proven included in
///                                 rule B's ("exact"), or A's matches are a
///                                 subset of B's on every probe input
///                                 ("heuristic") (note)
///
/// Post-merge passes over an Mfsa (belonging-set analysis):
///
///   lint.merge.identical-rules    two rules map to the same merged
///                                 sub-automaton: same initial, same finals,
///                                 same belonging on every arc (warning)
///   lint.merge.subsumed-rule      every arc of rule A is shared with rule
///                                 B, same initial, finals ⊆ (note)
///   lint.merge.unreachable-state  a merged state no rule can reach (dead
///                                 weight in the transition table) (warning)
///
/// Cost-model passes over an Mfsa (analysis/CostModel.h; run by `mfsalint
/// --cost`, which compiles the surviving rules and merges them first):
///
///   lint.cost.width-hotspot       the sound activation-width bound proves
///                                 at least CostWidthWarnRules rules can be
///                                 simultaneously active — the dense engine
///                                 pays the full belonging-union on every
///                                 step; tagged "exact" when the antichain
///                                 search finished inside its macrostate
///                                 budget, "heuristic" when it fell back to
///                                 the trivial all-rules bound (warning)
///   lint.cost.dfa-blowup          budgeted subset-construction probing of a
///                                 rule exceeded the probe's state cap, so
///                                 DFA/strided compilation of this ruleset
///                                 would blow up before its budget; "exact"
///                                 — the blowup is demonstrated, not
///                                 estimated (warning)
///   lint.cost.prefilter-defeated  the ruleset is literal-heavy (at least
///                                 half the rules carry an extractable
///                                 required literal) but this rule has none,
///                                 so choosing the Hyperscan-style prefilter
///                                 path forces a full residual scan on its
///                                 behalf; "exact" (note)
///
/// All passes append to a DiagnosticEngine (Diagnostics.h) in deterministic
/// order so `--format=json` output is golden-testable.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ANALYSIS_LINT_H
#define MFSA_ANALYSIS_LINT_H

#include "analysis/Diagnostics.h"
#include "mfsa/Mfsa.h"
#include "regex/Parser.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mfsa {

/// Linter knobs. Defaults are tuned so the example rulesets lint clean and
/// the classic pathologies all fire.
struct LintOptions {
  /// Front-end options used when the linter parses patterns itself.
  ParseOptions Parse;

  /// Exact pairwise checking: pairs where both optimized automata have at
  /// most this many states are decided by the antichain language-inclusion
  /// prover (analysis/Inclusion.h) — findings become proofs, tagged
  /// `"method":"exact"` in JSON — before any oracle probing. Pairs above
  /// the cutoff (or whose proof hits its macrostate cap) fall back to the
  /// brute-force oracle, tagged `"method":"heuristic"`. 0 disables the
  /// exact path entirely.
  uint32_t ExactCheckMaxStates = 512;

  /// Master switches for the pairwise passes (quadratic in ruleset size).
  bool CheckDuplicates = true;
  bool CheckSubsumption = true;

  /// Cost-model pass knobs (lintCost; `mfsalint --cost`).
  /// Warn when the sound simultaneous-active-rules bound reaches this many
  /// rules.
  uint32_t CostWidthWarnRules = 32;
  /// Macrostate budget for the antichain width search; exhausting it
  /// degrades the finding's method tag to "heuristic" (the trivial
  /// all-rules bound is still sound).
  uint64_t CostWidthMaxMacrostates = 1u << 12;
  /// State cap for the subset-construction blowup probe.
  uint32_t CostDfaProbeMaxStates = 1u << 14;
};

/// Per-ruleset lint summary.
struct LintSummary {
  uint32_t RulesAnalyzed = 0; ///< Patterns that parsed and built.
  uint32_t RulesBroken = 0;   ///< Patterns rejected by the front-end.
};

/// Lints \p Patterns (the standalone, pre-compilation pass): parses and
/// builds each rule itself, appending findings to \p Diags in rule order
/// (pairwise findings follow, ordered by the lower rule index). Returns a
/// summary; inspect \p Diags for the findings.
LintSummary lintRuleset(const std::vector<std::string> &Patterns,
                        const LintOptions &Options, DiagnosticEngine &Diags);

/// Post-merge belonging-set analysis over one MFSA (see catalog above).
/// Rule indices in findings are the rules' GlobalIds, matching the input
/// ruleset the MFSA was compiled from.
void lintMfsa(const Mfsa &Z, const LintOptions &Options,
              DiagnosticEngine &Diags);

/// Cost-model analysis over one MFSA (see the lint.cost.* catalog above).
/// \p Patterns is the original ruleset indexed by the rules' GlobalIds and
/// is needed only by the prefilter pass — pass an empty vector to skip it.
/// Findings are appended in pass order (width, blowup, then per-rule
/// prefilter notes by GlobalId), keeping JSON output golden-testable.
void lintCost(const Mfsa &Z, const std::vector<std::string> &Patterns,
              const LintOptions &Options, DiagnosticEngine &Diags);

} // namespace mfsa

#endif // MFSA_ANALYSIS_LINT_H
