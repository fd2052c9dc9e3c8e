//===- Diagnostics.h - shared static-analysis diagnostics -------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines the diagnostics engine shared by the IR verifier (Verifier.h) and
/// the ruleset linter (Lint.h): a Finding carries a severity, a stable check
/// identifier (e.g. "verify.mfsa.bel-width" or "lint.redos.nested-quantifier"),
/// a human message, a source span locating the problem (rule index plus a
/// byte offset into the pattern, or an element index into an automaton), and
/// an optional fix hint. DiagnosticEngine collects findings and renders them
/// as human-readable text or as a stable JSON document (`--format=json`).
///
/// Check identifiers are contractual: tests and CI grep for them, and the
/// rule catalog in docs/static-analysis.md documents each one. Renaming a
/// check id is an API break.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ANALYSIS_DIAGNOSTICS_H
#define MFSA_ANALYSIS_DIAGNOSTICS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mfsa {

/// Severity ladder shared by verifier and linter findings.
enum class Severity : uint8_t {
  Note,    ///< Informational; never affects exit codes.
  Warning, ///< Suspicious but not definitely wrong (lint heuristics).
  Error,   ///< Invariant violation or definite defect.
};

/// Human-readable severity name ("note", "warning", "error").
const char *severityName(Severity Sev);

/// Where a finding points. Every field is optional; kNone/npos mean "not
/// applicable". Rule indices refer to the original ruleset order (the same
/// ids CompileArtifacts::CompiledRuleIds and QuarantinedRule use), Offset is
/// a byte offset into that rule's pattern text for lint findings, and
/// Element is an index into an automaton's transition (or state) vector for
/// verifier findings.
struct SourceSpan {
  static constexpr uint32_t kNoRule = UINT32_MAX;
  static constexpr size_t kNoPos = static_cast<size_t>(-1);

  uint32_t Rule = kNoRule; ///< Rule index in the ruleset, if any.
  size_t Offset = kNoPos;  ///< Byte offset into the rule's pattern.
  size_t Element = kNoPos; ///< Transition/state index inside an automaton.

  bool hasRule() const { return Rule != kNoRule; }
  bool hasOffset() const { return Offset != kNoPos; }
  bool hasElement() const { return Element != kNoPos; }

  static SourceSpan forRule(uint32_t Rule) {
    SourceSpan S;
    S.Rule = Rule;
    return S;
  }
  static SourceSpan forPattern(uint32_t Rule, size_t Offset) {
    SourceSpan S;
    S.Rule = Rule;
    S.Offset = Offset;
    return S;
  }
  static SourceSpan forElement(size_t Element) {
    SourceSpan S;
    S.Element = Element;
    return S;
  }

  /// Renders "rule 3, offset 7" / "element 12" / "" for messages.
  std::string render() const;
};

/// One diagnostic produced by a checker.
struct Finding {
  Severity Sev = Severity::Error;
  std::string CheckId; ///< Stable dotted identifier, e.g. "verify.nfa.target".
  std::string Message; ///< Human-readable description of the defect.
  SourceSpan Span;     ///< Where it was found.
  std::string FixHint; ///< Optional remediation suggestion; may be empty.

  /// How the finding was established: "exact" (a proof — structural
  /// identity or the antichain inclusion checker) or "heuristic" (sampled
  /// probes). Empty for checks where the distinction is meaningless;
  /// rendered as the JSON "method" field when set.
  std::string Method;

  /// Witness word for translation-validation failures: a word accepted by
  /// exactly one side of a failed equivalence proof. May contain arbitrary
  /// bytes (it is escaped on rendering); distinct from "unset" via
  /// HasCounterexample, since ε — the empty word — is a legal witness.
  std::string Counterexample;
  bool HasCounterexample = false;
};

/// Collects findings from any number of checkers and renders reports. The
/// engine is a plain accumulator — checkers call report(), callers inspect
/// counters or render. Findings keep insertion order, which checkers keep
/// deterministic so golden-output tests stay stable.
class DiagnosticEngine {
public:
  void report(Finding F);

  /// Convenience for the common case.
  void report(Severity Sev, std::string CheckId, std::string Message,
              SourceSpan Span = {}, std::string FixHint = {});

  const std::vector<Finding> &findings() const { return Findings; }
  size_t numErrors() const { return NumErrors; }
  size_t numWarnings() const { return NumWarnings; }
  bool empty() const { return Findings.empty(); }
  void clear();

  /// Renders one finding per line:
  ///   error: rule 2, offset 4: nested unbounded quantifiers ... [check-id]
  std::string renderText() const;

  /// Renders a stable JSON document:
  ///   {"findings":[{"severity":"error","check":"...","message":"...",
  ///                 "rule":2,"offset":4,"hint":"..."}, ...],
  ///    "errors":1,"warnings":0}
  /// Span fields and the hint are omitted when absent, so the output is
  /// golden-testable without placeholder noise.
  std::string renderJson() const;

private:
  std::vector<Finding> Findings;
  size_t NumErrors = 0;
  size_t NumWarnings = 0;
};

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters).
std::string jsonEscape(const std::string &Text);

} // namespace mfsa

#endif // MFSA_ANALYSIS_DIAGNOSTICS_H
