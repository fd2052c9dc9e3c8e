//===- Lint.cpp - mfsalint ruleset analyzer ---------------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Pass structure. lintRuleset runs three layers per rule, cheapest first:
//
//   AST layer      nested-quantifier walk + expansion-size estimate; needs
//                  only the parse tree, so it fires even for rules whose
//                  construction would bust the budget.
//   NFA layer      ambiguity witness: SCC decomposition of the ε-free NFA,
//                  looking for a state with two looping out-arcs over
//                  overlapping symbols (the structural core of ReDoS).
//   Language layer empty/universal checks on the optimized FSA via the
//                  Reference simulator.
//
// The pairwise layer (duplicates/subsumption) decides small pairs exactly
// with the antichain language-inclusion prover (analysis/Inclusion.h),
// tagging those findings "exact"; pairs above the exact cutoff (or whose
// proof hits the macrostate cap) fall back to the brute-force oracle —
// enumerate every string up to a bounded length over the rules' joint
// representative alphabet and compare match-end sets — tagged "heuristic".
// Pairs are gated by cheap signatures (anchors; label union for the oracle)
// so the quadratic pass stays affordable on real rulesets.
//
// lintMfsa is independent: it reads only the merged automaton's belonging
// sets. Sub[i] = ∩ { bel(t) : rule i owns t } is computed in one sweep; any
// j ∈ Sub[i] shares every arc of i, which with initial/final agreement is
// exactly merged-level subsumption (and mutual subsumption, duplication).
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"

#include "analysis/CostModel.h"
#include "analysis/Inclusion.h"
#include "fsa/Builder.h"
#include "fsa/Passes.h"
#include "fsa/Reference.h"

#include <algorithm>
#include <map>
#include <queue>

using namespace mfsa;

namespace {

/// Warn when the estimated structural expansion of bounded repeats exceeds
/// this many states (compare CompileBudget::MaxFsaStates, whose default is
/// far higher — lint warns well before the budget kills).
constexpr uint64_t kExpansionWarnStates = 1u << 14;

/// Duplicate/subsumption oracle caps: automata above this many optimized
/// states are never cross-checked (the oracle is brute force)...
constexpr uint32_t kOracleMaxStates = 64;
/// ...probe strings are enumerated up to this length...
constexpr uint32_t kOracleMaxLength = 4;
/// ...over at most this many representative symbols.
constexpr uint32_t kOracleMaxAlphabet = 4;

/// Macrostate cap per exact pairwise proof (see InclusionOptions).
constexpr uint64_t kExactCheckMaxMacrostates = 1u << 14;

} // namespace

//===----------------------------------------------------------------------===//
// AST layer
//===----------------------------------------------------------------------===//

namespace {

/// Calls \p Fn on every direct child of \p N.
template <typename CallableT>
void forEachChild(const AstNode &N, CallableT Fn) {
  switch (N.kind()) {
  case AstKind::Empty:
  case AstKind::Symbols:
    break;
  case AstKind::Concat:
    for (const auto &C : static_cast<const ConcatNode &>(N).children())
      Fn(*C);
    break;
  case AstKind::Alternate:
    for (const auto &C : static_cast<const AlternateNode &>(N).children())
      Fn(*C);
    break;
  case AstKind::Repeat:
    Fn(static_cast<const RepeatNode &>(N).child());
    break;
  }
}

/// True if the repeat can iterate a variable number of times — the
/// ingredient that makes an enclosing unbounded repeat ambiguous.
bool isVariableRepeat(const RepeatNode &R) {
  return R.isUnbounded() || R.max() > R.min();
}

/// True if \p N contains (at any depth) a variable-iteration repeat.
bool containsVariableRepeat(const AstNode &N) {
  if (N.kind() == AstKind::Repeat &&
      isVariableRepeat(static_cast<const RepeatNode &>(N)))
    return true;
  bool Found = false;
  forEachChild(N, [&](const AstNode &C) {
    if (!Found)
      Found = containsVariableRepeat(C);
  });
  return Found;
}

/// Reports every unbounded repeat whose body contains a variable repeat
/// (`(a+)+`, `(a{1,3})*`, ...). One finding per rule keeps output stable.
bool hasNestedQuantifier(const AstNode &N) {
  if (N.kind() == AstKind::Repeat) {
    const auto &R = static_cast<const RepeatNode &>(N);
    if (R.isUnbounded() && containsVariableRepeat(R.child()))
      return true;
  }
  bool Found = false;
  forEachChild(N, [&](const AstNode &C) {
    if (!Found)
      Found = hasNestedQuantifier(C);
  });
  return Found;
}

constexpr uint64_t kEstimateCap = uint64_t(1) << 40;

uint64_t saturatingMul(uint64_t A, uint64_t B) {
  if (A != 0 && B > kEstimateCap / A)
    return kEstimateCap;
  return A * B;
}

/// Estimates the states Thompson construction with loop expansion (§IV-C
/// (2)) allocates for \p N — the same arithmetic the builder performs, run
/// before any allocation happens. Saturates at kEstimateCap.
uint64_t estimateExpandedStates(const AstNode &N) {
  switch (N.kind()) {
  case AstKind::Empty:
    return 2;
  case AstKind::Symbols:
    return 2;
  case AstKind::Concat: {
    uint64_t Sum = 0;
    forEachChild(N, [&](const AstNode &C) {
      Sum = std::min(Sum + estimateExpandedStates(C), kEstimateCap);
    });
    return std::max<uint64_t>(Sum, 2);
  }
  case AstKind::Alternate: {
    uint64_t Sum = 2;
    forEachChild(N, [&](const AstNode &C) {
      Sum = std::min(Sum + estimateExpandedStates(C), kEstimateCap);
    });
    return Sum;
  }
  case AstKind::Repeat: {
    const auto &R = static_cast<const RepeatNode &>(N);
    uint64_t Child = estimateExpandedStates(R.child());
    // m mandatory plus (n - m) optional copies; an unbounded tail adds one
    // cyclic copy after the m mandatory ones.
    uint64_t Copies =
        R.isUnbounded() ? uint64_t(R.min()) + 1 : uint64_t(R.max());
    return std::min(saturatingMul(Child, std::max<uint64_t>(Copies, 1)) + 2,
                    kEstimateCap);
  }
  }
  return 2;
}

//===----------------------------------------------------------------------===//
// NFA layer: ambiguity witness
//===----------------------------------------------------------------------===//

/// Iterative Kosaraju SCC decomposition; returns the component id per state.
std::vector<uint32_t> computeSccs(uint32_t NumStates,
                                  const std::vector<Transition> &Ts) {
  std::vector<std::vector<StateId>> Out(NumStates), In(NumStates);
  for (const Transition &T : Ts) {
    Out[T.From].push_back(T.To);
    In[T.To].push_back(T.From);
  }

  // Pass 1: post-order over the forward graph.
  std::vector<StateId> Order;
  Order.reserve(NumStates);
  std::vector<uint8_t> Seen(NumStates, 0);
  for (StateId Root = 0; Root < NumStates; ++Root) {
    if (Seen[Root])
      continue;
    // Explicit stack of (state, next-child-index).
    std::vector<std::pair<StateId, size_t>> Stack{{Root, 0}};
    Seen[Root] = 1;
    while (!Stack.empty()) {
      auto &[Q, Next] = Stack.back();
      if (Next < Out[Q].size()) {
        StateId S = Out[Q][Next++];
        if (!Seen[S]) {
          Seen[S] = 1;
          Stack.emplace_back(S, 0);
        }
      } else {
        Order.push_back(Q);
        Stack.pop_back();
      }
    }
  }

  // Pass 2: reverse graph, reverse post-order.
  std::vector<uint32_t> Comp(NumStates, UINT32_MAX);
  uint32_t NumComps = 0;
  for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
    if (Comp[*It] != UINT32_MAX)
      continue;
    uint32_t Id = NumComps++;
    std::queue<StateId> Work;
    Work.push(*It);
    Comp[*It] = Id;
    while (!Work.empty()) {
      StateId Q = Work.front();
      Work.pop();
      for (StateId S : In[Q])
        if (Comp[S] == UINT32_MAX) {
          Comp[S] = Id;
          Work.push(S);
        }
    }
  }
  return Comp;
}

/// Looks for a state with two looping out-transitions (both staying in the
/// state's SCC) over overlapping symbols but different targets: two distinct
/// ways to consume the same symbol without leaving the loop, the NFA-level
/// witness of quantifier ambiguity.
bool findAmbiguousLoop(const Nfa &A) {
  std::vector<uint32_t> Comp = computeSccs(A.numStates(), A.transitions());

  // An SCC is cyclic if it has ≥ 2 members or a self-loop.
  std::vector<uint32_t> CompSize(A.numStates(), 0);
  for (uint32_t C : Comp)
    ++CompSize[C];
  std::vector<uint8_t> SelfLoop(A.numStates(), 0);
  for (const Transition &T : A.transitions())
    if (T.From == T.To)
      SelfLoop[Comp[T.From]] = 1;

  std::vector<std::vector<const Transition *>> LoopOut(A.numStates());
  for (const Transition &T : A.transitions()) {
    if (Comp[T.From] != Comp[T.To])
      continue;
    if (CompSize[Comp[T.From]] < 2 && !SelfLoop[Comp[T.From]])
      continue;
    LoopOut[T.From].push_back(&T);
  }
  for (StateId Q = 0; Q < A.numStates(); ++Q) {
    const auto &Arcs = LoopOut[Q];
    for (size_t I = 0; I < Arcs.size(); ++I)
      for (size_t J = I + 1; J < Arcs.size(); ++J)
        if (Arcs[I]->To != Arcs[J]->To &&
            Arcs[I]->Label.intersects(Arcs[J]->Label))
          return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Pairwise layer: brute-force oracle
//===----------------------------------------------------------------------===//

/// Union of every transition label (the rule's effective alphabet).
SymbolSet labelUnion(const Nfa &A) {
  SymbolSet U;
  for (const Transition &T : A.transitions())
    U |= T.Label;
  return U;
}

/// Picks up to \p MaxSymbols representative bytes from \p Alphabet (one per
/// distinct transition label would be ideal; the smallest members spread
/// over the set are a practical stand-in), plus one byte outside it when one
/// exists, so probes also exercise non-matching symbols.
std::vector<unsigned char> representativeSymbols(const SymbolSet &Alphabet,
                                                 uint32_t MaxSymbols) {
  std::vector<unsigned char> Symbols;
  Alphabet.forEach([&](unsigned char C) {
    if (Symbols.size() < MaxSymbols)
      Symbols.push_back(C);
  });
  SymbolSet Outside = Alphabet.complement();
  if (!Outside.empty())
    Symbols.push_back(Outside.min());
  return Symbols;
}

/// Probe-set comparison outcome.
struct OracleVerdict {
  bool Equal = true;
  bool ASubB = true; ///< ends(A) ⊆ ends(B) on every probe.
  bool BSubA = true;
  uint32_t Probes = 0;
};

/// Enumerates every string of length 1..MaxLength over \p Symbols and
/// compares the two automata's match-end sets on each.
OracleVerdict runOracle(const Nfa &A, const Nfa &B,
                        const std::vector<unsigned char> &Symbols,
                        uint32_t MaxLength) {
  OracleVerdict V;
  std::string Probe;
  // Iterative odometer over Symbols^Length for each length.
  for (uint32_t Length = 1;
       Length <= MaxLength && (V.Equal || V.ASubB || V.BSubA); ++Length) {
    std::vector<uint32_t> Digits(Length, 0);
    for (;;) {
      Probe.clear();
      for (uint32_t D : Digits)
        Probe.push_back(static_cast<char>(Symbols[D]));
      std::set<size_t> EndsA = simulateNfa(A, Probe);
      std::set<size_t> EndsB = simulateNfa(B, Probe);
      ++V.Probes;
      if (EndsA != EndsB)
        V.Equal = false;
      if (!std::includes(EndsB.begin(), EndsB.end(), EndsA.begin(),
                         EndsA.end()))
        V.ASubB = false;
      if (!std::includes(EndsA.begin(), EndsA.end(), EndsB.begin(),
                         EndsB.end()))
        V.BSubA = false;
      if (!V.Equal && !V.ASubB && !V.BSubA)
        break;
      // Advance the odometer.
      uint32_t Pos = 0;
      while (Pos < Length && ++Digits[Pos] == Symbols.size()) {
        Digits[Pos] = 0;
        ++Pos;
      }
      if (Pos == Length)
        break;
    }
  }
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// lintRuleset
//===----------------------------------------------------------------------===//

LintSummary mfsa::lintRuleset(const std::vector<std::string> &Patterns,
                              const LintOptions &Options,
                              DiagnosticEngine &Diags) {
  LintSummary Summary;

  struct RuleArtifacts {
    bool Built = false;
    Regex Re;
    Nfa Optimized;
    SymbolSet Alphabet;
  };
  std::vector<RuleArtifacts> Rules(Patterns.size());

  for (uint32_t I = 0; I < Patterns.size(); ++I) {
    RuleArtifacts &R = Rules[I];

    // Front-end.
    Result<Regex> Re = parseRegex(Patterns[I], Options.Parse);
    if (!Re.ok()) {
      ++Summary.RulesBroken;
      Diags.report(Severity::Error, "lint.parse-error", Re.diag().Message,
                   SourceSpan::forPattern(I, Re.diag().Offset));
      continue;
    }
    R.Re = Re.take();

    // AST layer.
    if (hasNestedQuantifier(*R.Re.Root))
      Diags.report(
          Severity::Warning, "lint.redos.nested-quantifier",
          "unbounded quantifier wraps a variable-iteration quantifier "
          "(catastrophic-ambiguity shape, e.g. (a+)+)",
          SourceSpan::forRule(I),
          "make the inner repetition fixed-count or unroll the outer one");
    uint64_t Estimate = estimateExpandedStates(*R.Re.Root);
    if (Estimate > kExpansionWarnStates) {
      Diags.report(Severity::Warning, "lint.expansion.state-blowup",
                   "bounded-repeat expansion allocates ~" +
                       std::to_string(Estimate) +
                       " states (lint threshold " +
                       std::to_string(kExpansionWarnStates) + ")",
                   SourceSpan::forRule(I),
                   "lower the repeat bounds or raise the compile budget "
                   "knowingly");
      // Don't build what we just flagged: the NFA/language/pairwise layers
      // on a blowup automaton would cost exactly the time the warning tells
      // the user to avoid spending.
      continue;
    }

    // Middle-end. Cap construction so the linter itself stays bounded on
    // the very blowups it just warned about.
    BuildOptions Build;
    Build.MaxStates = 1u << 18;
    Result<Nfa> Raw = buildNfa(R.Re, Build);
    if (!Raw.ok()) {
      ++Summary.RulesBroken;
      Diags.report(Severity::Error, "lint.build-error", Raw.diag().Message,
                   SourceSpan::forRule(I));
      continue;
    }
    ++Summary.RulesAnalyzed;

    // NFA layer: ambiguity on the ε-free (but unfolded) automaton, where
    // every Thompson branch still has its own states.
    Nfa EpsFree = removeEpsilons(*Raw);
    if (findAmbiguousLoop(EpsFree))
      Diags.report(Severity::Warning, "lint.redos.ambiguous-loop",
                   "a state has two looping transitions over overlapping "
                   "symbols: the same input can cycle along distinct paths",
                   SourceSpan::forRule(I),
                   "disambiguate the alternation/quantifier so loop symbols "
                   "are disjoint");

    // Language layer.
    R.Optimized = optimizeForMerging(*Raw);
    R.Alphabet = labelUnion(R.Optimized);
    R.Built = true;

    if (R.Optimized.finals().empty() ||
        R.Optimized.numTransitions() == 0) {
      Diags.report(Severity::Warning, "lint.language.empty",
                   "rule can never report a match (language empty or "
                   "zero-length only)",
                   SourceSpan::forRule(I),
                   "zero-length matches are never reported; drop or fix the "
                   "rule");
    } else {
      bool Universal = true;
      for (unsigned C = 0; C < 256 && Universal; ++C) {
        if (C == '\n')
          continue; // `.` conventionally excludes newline; a `.*` rule is
                    // still universal for every realistic input.
        const char Byte = static_cast<char>(C);
        Universal = !simulateNfa(R.Optimized,
                                 std::string_view(&Byte, 1))
                         .empty();
      }
      if (Universal)
        Diags.report(Severity::Warning, "lint.language.universal",
                     "every single-byte input matches: the rule fires at "
                     "every offset",
                     SourceSpan::forRule(I),
                     "anchor or constrain the rule; universal rules drown "
                     "the match stream");
    }
  }

  // Pairwise layer. Pairs small enough for the antichain prover are
  // *decided* — duplicate/subsumption findings become language proofs
  // (method "exact") and non-findings mean the languages really are
  // incomparable. The brute-force probe oracle survives as the fallback
  // for pairs over the exact cutoff or whose proof hits the macrostate cap
  // (method "heuristic").
  if (!Options.CheckDuplicates && !Options.CheckSubsumption)
    return Summary;
  // Rendered as a (method-tagged) finding; the convenience report() has no
  // Method parameter on purpose — only pairwise findings carry one.
  auto Report = [&](Severity Sev, const char *CheckId, std::string Message,
                    uint32_t Rule, std::string FixHint, const char *Method) {
    Finding F;
    F.Sev = Sev;
    F.CheckId = CheckId;
    F.Message = std::move(Message);
    F.Span = SourceSpan::forRule(Rule);
    F.FixHint = std::move(FixHint);
    F.Method = Method;
    Diags.report(std::move(F));
  };
  // Subsumption notes on a rule whose whole language is empty (or ε-only)
  // are vacuous — lint.language.empty already covers it.
  auto Trivial = [](const RuleArtifacts &R) {
    return R.Optimized.finals().empty() || R.Optimized.numTransitions() == 0;
  };
  for (uint32_t I = 0; I < Rules.size(); ++I) {
    const RuleArtifacts &A = Rules[I];
    if (!A.Built)
      continue;
    for (uint32_t J = I + 1; J < Rules.size(); ++J) {
      const RuleArtifacts &B = Rules[J];
      if (!B.Built)
        continue;
      const bool ExactEligible =
          Options.ExactCheckMaxStates != 0 &&
          A.Optimized.numStates() <= Options.ExactCheckMaxStates &&
          B.Optimized.numStates() <= Options.ExactCheckMaxStates;
      const bool OracleEligible =
          A.Optimized.numStates() <= kOracleMaxStates &&
          B.Optimized.numStates() <= kOracleMaxStates;
      if (!ExactEligible && !OracleEligible)
        continue;
      if (A.Optimized.anchoredStart() != B.Optimized.anchoredStart() ||
          A.Optimized.anchoredEnd() != B.Optimized.anchoredEnd())
        continue;

      // Fast path: canonical automata are structurally comparable, and
      // structural identity is an exact proof for free.
      if (Options.CheckDuplicates && A.Optimized == B.Optimized) {
        Report(Severity::Warning, "lint.duplicate-rule",
               "duplicate of rule " + std::to_string(I) +
                   ": identical optimized automaton",
               J, "remove one of the two rules", "exact");
        continue;
      }

      if (ExactEligible) {
        InclusionOptions Exact;
        Exact.MaxMacrostates = kExactCheckMaxMacrostates;
        const EquivalenceResult E =
            checkEquivalence(A.Optimized, B.Optimized, Exact);
        const bool AInB = E.AInB.included();
        const bool BInA = E.BInA.included();
        if (AInB && BInA) {
          if (Options.CheckDuplicates)
            Report(Severity::Warning, "lint.duplicate-rule",
                   "duplicate of rule " + std::to_string(I) +
                       ": languages proven equal",
                   J, "the rules accept exactly the same words; remove one",
                   "exact");
          else if (Options.CheckSubsumption && !Trivial(A))
            Report(Severity::Note, "lint.subsumed-rule",
                   "rule " + std::to_string(I) + " subsumed by rule " +
                       std::to_string(J) + " (language inclusion proven)",
                   I, {}, "exact");
          continue;
        }
        if (AInB || BInA) {
          // One-sided inclusion holds even if the other direction hit the
          // macrostate cap — a proof is a proof.
          const uint32_t Sub = AInB ? I : J;
          const uint32_t Super = AInB ? J : I;
          if (Options.CheckSubsumption && !Trivial(AInB ? A : B))
            Report(Severity::Note, "lint.subsumed-rule",
                   "rule " + std::to_string(Sub) + " subsumed by rule " +
                       std::to_string(Super) +
                       " (language inclusion proven)",
                   Sub, {}, "exact");
          continue;
        }
        if (E.AInB.conclusive() && E.BInA.conclusive())
          continue; // Proven incomparable; nothing to report.
        // Both directions undecided (macrostate cap): fall back to probes.
      }

      // Oracle path, gated on identical effective alphabets so the
      // quadratic pass only probes plausible pairs.
      if (!OracleEligible || A.Alphabet != B.Alphabet)
        continue;
      std::vector<unsigned char> Symbols =
          representativeSymbols(A.Alphabet, kOracleMaxAlphabet);
      if (Symbols.empty())
        continue;
      OracleVerdict V = runOracle(A.Optimized, B.Optimized, Symbols,
                                  kOracleMaxLength);
      if (Options.CheckDuplicates && V.Equal) {
        Report(Severity::Warning, "lint.duplicate-rule",
               "likely duplicate of rule " + std::to_string(I) +
                   ": identical matches on all " + std::to_string(V.Probes) +
                   " probe inputs",
               J,
               "the rules report the same (rule, end) matches; remove one",
               "heuristic");
      } else if (Options.CheckSubsumption && V.ASubB) {
        Report(Severity::Note, "lint.subsumed-rule",
               "rule " + std::to_string(I) + " appears subsumed by rule " +
                   std::to_string(J) + " (matches ⊆ on " +
                   std::to_string(V.Probes) + " probe inputs)",
               I, {}, "heuristic");
      } else if (Options.CheckSubsumption && V.BSubA) {
        Report(Severity::Note, "lint.subsumed-rule",
               "rule " + std::to_string(J) + " appears subsumed by rule " +
                   std::to_string(I) + " (matches ⊆ on " +
                   std::to_string(V.Probes) + " probe inputs)",
               J, {}, "heuristic");
      }
    }
  }
  return Summary;
}

//===----------------------------------------------------------------------===//
// lintMfsa: post-merge belonging-set analysis
//===----------------------------------------------------------------------===//

void mfsa::lintMfsa(const Mfsa &Z, const LintOptions &Options,
                    DiagnosticEngine &Diags) {
  const uint32_t R = Z.numRules();
  const uint32_t N = Z.numStates();
  const std::vector<MfsaTransition> &Ts = Z.transitions();

  // Sub[i] = ∩ { bel(t) : rule i owns t }: the rules sharing *every* arc of
  // rule i. One sweep over the transitions computes all R intersections.
  std::vector<DynamicBitset> Sub(R);
  std::vector<uint8_t> Owns(R, 0);
  for (const MfsaTransition &T : Ts) {
    if (T.Bel.size() != R)
      continue; // Corrupt arc; the verifier reports it.
    T.Bel.forEach([&](unsigned I) {
      if (!Owns[I]) {
        Sub[I] = T.Bel;
        Owns[I] = 1;
      } else {
        Sub[I] &= T.Bel;
      }
    });
  }

  auto SortedFinals = [&](RuleId Id) {
    std::vector<StateId> F = Z.rule(Id).Finals;
    std::sort(F.begin(), F.end());
    F.erase(std::unique(F.begin(), F.end()), F.end());
    return F;
  };

  for (RuleId I = 0; I < R; ++I) {
    if (!Owns[I])
      continue;
    for (RuleId J = 0; J < R; ++J) {
      if (I == J || !Owns[J] || !Sub[I].test(J))
        continue;
      if (Z.rule(I).Initial != Z.rule(J).Initial)
        continue;
      const bool Mutual = Sub[J].test(I);
      std::vector<StateId> FinalsI = SortedFinals(I), FinalsJ = SortedFinals(J);
      if (Mutual && J > I && FinalsI == FinalsJ) {
        if (Options.CheckDuplicates)
          Diags.report(Severity::Warning, "lint.merge.identical-rules",
                       "rules with global ids " +
                           std::to_string(Z.rule(I).GlobalId) + " and " +
                           std::to_string(Z.rule(J).GlobalId) +
                           " map to the same merged sub-automaton",
                       SourceSpan::forRule(Z.rule(J).GlobalId),
                       "the rules are duplicates; remove one");
      } else if (!Mutual && Options.CheckSubsumption &&
                 std::includes(FinalsJ.begin(), FinalsJ.end(),
                               FinalsI.begin(), FinalsI.end())) {
        Diags.report(Severity::Note, "lint.merge.subsumed-rule",
                     "every arc of rule with global id " +
                         std::to_string(Z.rule(I).GlobalId) +
                         " is shared with rule " +
                         std::to_string(Z.rule(J).GlobalId),
                     SourceSpan::forRule(Z.rule(I).GlobalId));
      }
    }
  }

  // Dead weight: states no rule reaches from its initial state. They cost
  // transition-table width in every engine yet can never influence a match.
  if (N > 0) {
    std::vector<uint8_t> Seen(N, 0);
    std::queue<StateId> Work;
    for (RuleId I = 0; I < R; ++I)
      if (Z.rule(I).Initial < N && !Seen[Z.rule(I).Initial]) {
        Seen[Z.rule(I).Initial] = 1;
        Work.push(Z.rule(I).Initial);
      }
    std::vector<std::vector<StateId>> Out(N);
    for (const MfsaTransition &T : Ts)
      if (T.From < N && T.To < N)
        Out[T.From].push_back(T.To);
    while (!Work.empty()) {
      StateId Q = Work.front();
      Work.pop();
      for (StateId S : Out[Q])
        if (!Seen[S]) {
          Seen[S] = 1;
          Work.push(S);
        }
    }
    uint32_t Unreached = 0;
    StateId First = 0;
    for (StateId Q = 0; Q < N; ++Q)
      if (!Seen[Q]) {
        if (!Unreached)
          First = Q;
        ++Unreached;
      }
    if (Unreached)
      Diags.report(Severity::Warning, "lint.merge.unreachable-state",
                   std::to_string(Unreached) +
                       " merged state(s) unreachable from every rule's "
                       "initial state (first: " +
                       std::to_string(First) + ")",
                   SourceSpan::forElement(First),
                   "re-run compaction or report a merge bug");
  }
}

//===----------------------------------------------------------------------===//
// lintCost: cost-model analysis (analysis/CostModel.h)
//===----------------------------------------------------------------------===//

void mfsa::lintCost(const Mfsa &Z, const std::vector<std::string> &Patterns,
                    const LintOptions &Options, DiagnosticEngine &Diags) {
  const uint32_t R = Z.numRules();
  if (R == 0)
    return;

  // Width pass. The bound is sound either way; the method tag records
  // whether the antichain search finished ("exact") or fell back to the
  // trivial all-rules bound after exhausting its budget ("heuristic").
  WidthOptions WO;
  WO.MaxMacrostates = Options.CostWidthMaxMacrostates;
  const WidthBound W = boundActivationWidth(Z, WO);
  if (W.MaxActiveRules >= Options.CostWidthWarnRules) {
    Finding F;
    F.Sev = Severity::Warning;
    F.CheckId = "lint.cost.width-hotspot";
    F.Message = "activation width bound: up to " +
                std::to_string(W.MaxActiveRules) + " of " + std::to_string(R) +
                " rules simultaneously active (" +
                std::to_string(W.MaxActiveStates) +
                " states); every engine step pays the full belonging union";
    F.FixHint = "split hot rules into their own merge group or lower the "
                "merging factor";
    F.Method = W.Exact ? "exact" : "heuristic";
    Diags.report(std::move(F));
  }

  // Blowup pass. A probe that hits its cap has *constructed* that many
  // subset states, so the finding is a demonstration, not an estimate.
  DfaProbeOptions PO;
  PO.MaxStates = Options.CostDfaProbeMaxStates;
  const DfaEstimate D = probeDfaBlowup(Z, PO);
  if (!D.Completed) {
    Finding F;
    F.Sev = Severity::Warning;
    F.CheckId = "lint.cost.dfa-blowup";
    F.Message = "subset construction exceeded the probe budget of " +
                std::to_string(PO.MaxStates) +
                " states; DFA and strided engines would blow up on this "
                "ruleset";
    F.FixHint = "keep this ruleset on the iMFAnt or prefilter paths";
    F.Method = "exact";
    Diags.report(std::move(F));
  }

  // Prefilter pass: in a literal-heavy ruleset, each literal-free rule
  // forces the residual full-scan path on the whole input. Only meaningful
  // when the original patterns are available.
  if (!Patterns.empty()) {
    const LiteralProfile L = profileLiterals(Z, Patterns);
    if (L.TotalRules >= 4 && L.PrefilterableFraction >= 0.5 &&
        L.PrefilterableRules < L.TotalRules) {
      for (RuleId I = 0; I < R; ++I) {
        if (I < L.Rules.size() && L.Rules[I].Prefilterable)
          continue;
        Finding F;
        F.Sev = Severity::Note;
        F.CheckId = "lint.cost.prefilter-defeated";
        F.Message = "rule has no required literal of length >= " +
                    std::to_string(MinPrefilterLiteralLength) +
                    " in a literal-heavy ruleset (" +
                    std::to_string(L.PrefilterableRules) + "/" +
                    std::to_string(L.TotalRules) +
                    " prefilterable); it forces the residual full scan";
        F.Span = SourceSpan::forRule(Z.rule(I).GlobalId);
        F.FixHint = "anchor the rule on a distinctive literal, or exclude "
                    "it from the prefiltered group";
        F.Method = "exact";
        Diags.report(std::move(F));
      }
    }
  }
}
