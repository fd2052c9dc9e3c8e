//===- TranslationValidate.cpp - per-pass equivalence proofs -----------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/TranslationValidate.h"

#include <cstdio>

using namespace mfsa;

std::string mfsa::renderWord(const std::string &Word) {
  std::string Out = "\"";
  for (unsigned char C : Word) {
    if (C >= 0x20 && C < 0x7f && C != '"' && C != '\\') {
      Out += static_cast<char>(C);
    } else {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\x%02x", C);
      Out += Buf;
    }
  }
  Out += "\"";
  return Out;
}

namespace {

/// Severity-independent helper: builds and reports one validation finding.
void reportFinding(DiagnosticEngine &Diags, Severity Sev, std::string CheckId,
                   std::string Message, SourceSpan Span,
                   const std::string *Counterexample = nullptr,
                   std::string FixHint = {}) {
  Finding F;
  F.Sev = Sev;
  F.CheckId = std::move(CheckId);
  F.Message = std::move(Message);
  F.Span = Span;
  F.FixHint = std::move(FixHint);
  F.Method = "exact";
  if (Counterexample) {
    F.Counterexample = *Counterexample;
    F.HasCounterexample = true;
  }
  Diags.report(std::move(F));
}

/// Shared proof driver for the pass and merge entry points. \p Subject
/// names the transformation in messages ("pass 'remove-epsilons'" /
/// "merge projection of rule 3"); \p FailCheck / \p InconclusiveCheck pick
/// the catalog ids. \returns false iff refuted.
bool validateEquivalence(const Nfa &Before, const Nfa &After,
                         const std::string &Subject,
                         const char *FailCheck, const char *AnchorCheck,
                         const char *InconclusiveCheck, SourceSpan Span,
                         const ValidateOptions &Options,
                         DiagnosticEngine &Diags, ValidateStats *Stats) {
  ValidateStats Local;
  ValidateStats &S = Stats ? *Stats : Local;

  if (Before.anchoredStart() != After.anchoredStart() ||
      Before.anchoredEnd() != After.anchoredEnd()) {
    ++S.Failures;
    reportFinding(Diags, Severity::Error, AnchorCheck,
                  Subject + " changed the anchor flags (before ^" +
                      std::to_string(Before.anchoredStart()) + "$" +
                      std::to_string(Before.anchoredEnd()) + ", after ^" +
                      std::to_string(After.anchoredStart()) + "$" +
                      std::to_string(After.anchoredEnd()) + ")",
                  Span);
    return false;
  }

  if (Options.MaxProofStates != 0 &&
      (Before.numStates() > Options.MaxProofStates ||
       After.numStates() > Options.MaxProofStates)) {
    ++S.Skipped;
    return true; // Not proven wrong; counted so coverage gaps are visible.
  }

  const EquivalenceResult Proof =
      checkEquivalence(Before, After, Options.Inclusion);
  S.absorb(Proof.AInB.Stats);
  S.absorb(Proof.BInA.Stats);

  if (Proof.equal()) {
    ++S.Proofs;
    return true;
  }

  if (!Proof.conclusive()) {
    ++S.Inconclusive;
    reportFinding(Diags, Severity::Note, InconclusiveCheck,
                  Subject + ": equivalence proof hit the macrostate cutoff (" +
                      std::to_string(Options.Inclusion.MaxMacrostates) +
                      "); language preservation is unverified",
                  Span, nullptr,
                  "raise the cutoff or rely on the differential harness for "
                  "this rule");
    return true;
  }

  // Refuted. The witness is accepted by exactly one side according to the
  // prover; replay it through the independent whole-word oracle so the
  // report distinguishes a real miscompile from a prover bug.
  const InclusionResult *Cex = Proof.counterexample();
  const bool WitnessInBefore = Cex == &Proof.AInB; // A=Before ⊆ B=After side.
  const std::string &Word = Cex->Counterexample;

  const bool InBefore = acceptsWord(Before, Word);
  const bool InAfter = acceptsWord(After, Word);
  const bool Confirmed = InBefore != InAfter && InBefore == WitnessInBefore;
  if (!Confirmed) {
    ++S.Failures;
    reportFinding(
        Diags, Severity::Error, "validate.replay.diverged",
        Subject + ": prover found counterexample " + renderWord(Word) +
            " but oracle replay disagrees (oracle: before=" +
            std::to_string(InBefore) + " after=" + std::to_string(InAfter) +
            ") — inclusion checker bug, not a miscompile",
        Span, &Word);
    return false;
  }

  ++S.Failures;
  reportFinding(Diags, Severity::Error, FailCheck,
                Subject + " changed the language: " + renderWord(Word) +
                    (WitnessInBefore ? " is accepted before but not after"
                                     : " is accepted after but not before") +
                    " (confirmed by oracle replay)",
                Span, &Word);
  return false;
}

} // namespace

bool mfsa::validatePassEquivalence(const Nfa &Before, const Nfa &After,
                                   const char *PassName, uint32_t RuleIndex,
                                   const ValidateOptions &Options,
                                   DiagnosticEngine &Diags,
                                   ValidateStats *Stats) {
  SourceSpan Span;
  if (RuleIndex != SourceSpan::kNoRule)
    Span = SourceSpan::forRule(RuleIndex);
  return validateEquivalence(Before, After,
                             std::string("pass '") + PassName + "'",
                             "validate.pass.language-changed",
                             "validate.pass.anchor-changed",
                             "validate.pass.inconclusive", Span, Options,
                             Diags, Stats);
}

std::string mfsa::validatePassEquivalenceError(const Nfa &Before,
                                               const Nfa &After,
                                               const char *PassName,
                                               const ValidateOptions &Options,
                                               ValidateStats *Stats) {
  DiagnosticEngine Diags;
  if (validatePassEquivalence(Before, After, PassName, SourceSpan::kNoRule,
                              Options, Diags, Stats))
    return {};
  for (const Finding &F : Diags.findings())
    if (F.Sev == Severity::Error)
      return F.Message + " [" + F.CheckId + "]";
  return "translation validation failed";
}

bool mfsa::validateMergeProjection(const Mfsa &Z,
                                   const std::vector<const Nfa *> &Inputs,
                                   const ValidateOptions &Options,
                                   DiagnosticEngine &Diags,
                                   ValidateStats *Stats) {
  bool Ok = true;
  const uint32_t NumRules =
      Inputs.size() < Z.numRules() ? static_cast<uint32_t>(Inputs.size())
                                   : Z.numRules();
  const std::vector<Nfa> Projections = Z.extractAllRules();
  for (RuleId Id = 0; Id < NumRules; ++Id) {
    const uint32_t GlobalId = Z.rule(Id).GlobalId;
    if (!validateEquivalence(
            *Inputs[Id], Projections[Id],
            "merge projection of rule " + std::to_string(GlobalId),
            "validate.merge.projection-changed",
            "validate.merge.anchor-changed", "validate.merge.inconclusive",
            SourceSpan::forRule(GlobalId), Options, Diags, Stats))
      Ok = false;
  }
  return Ok;
}

std::string
mfsa::validateMergeProjectionError(const Mfsa &Z,
                                   const std::vector<const Nfa *> &Inputs,
                                   const ValidateOptions &Options,
                                   ValidateStats *Stats) {
  DiagnosticEngine Diags;
  if (validateMergeProjection(Z, Inputs, Options, Diags, Stats))
    return {};
  for (const Finding &F : Diags.findings())
    if (F.Sev == Severity::Error)
      return F.Message + " [" + F.CheckId + "]";
  return "translation validation failed";
}
