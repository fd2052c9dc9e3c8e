//===- Verifier.cpp - multi-level IR verifier -------------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Every check is written defensively: a corrupt automaton must produce a
// positioned finding, never an out-of-range access. Index validity is
// therefore established before any derived check (reachability, belonging
// lookups) uses the index; derived checks skip elements whose indices were
// already reported invalid.
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"

#include <algorithm>
#include <queue>

using namespace mfsa;

namespace {

/// Forward BFS over in-range transitions from \p Start.
std::vector<bool> reachableFrom(uint32_t NumStates,
                                const std::vector<Transition> &Transitions,
                                StateId Start) {
  std::vector<bool> Seen(NumStates, false);
  if (Start >= NumStates)
    return Seen;
  std::vector<std::vector<StateId>> Out(NumStates);
  for (const Transition &T : Transitions)
    if (T.From < NumStates && T.To < NumStates)
      Out[T.From].push_back(T.To);
  std::queue<StateId> Work;
  Work.push(Start);
  Seen[Start] = true;
  while (!Work.empty()) {
    StateId Q = Work.front();
    Work.pop();
    for (StateId S : Out[Q])
      if (!Seen[S]) {
        Seen[S] = true;
        Work.push(S);
      }
  }
  return Seen;
}

/// Backward BFS from every in-range final state.
std::vector<bool> coReachable(uint32_t NumStates,
                              const std::vector<Transition> &Transitions,
                              const std::vector<StateId> &Finals) {
  std::vector<bool> Seen(NumStates, false);
  std::vector<std::vector<StateId>> In(NumStates);
  for (const Transition &T : Transitions)
    if (T.From < NumStates && T.To < NumStates)
      In[T.To].push_back(T.From);
  std::queue<StateId> Work;
  for (StateId F : Finals)
    if (F < NumStates && !Seen[F]) {
      Seen[F] = true;
      Work.push(F);
    }
  while (!Work.empty()) {
    StateId Q = Work.front();
    Work.pop();
    for (StateId S : In[Q])
      if (!Seen[S]) {
        Seen[S] = true;
        Work.push(S);
      }
  }
  return Seen;
}

} // namespace

bool mfsa::verifyNfa(const Nfa &A, IrLevel Level, DiagnosticEngine &Diags,
                     uint32_t RuleIndex) {
  const size_t Before = Diags.numErrors();
  auto Span = [&](size_t Element) {
    SourceSpan S;
    S.Rule = RuleIndex;
    S.Element = Element;
    return S;
  };
  auto WholeSpan = [&] {
    SourceSpan S;
    S.Rule = RuleIndex;
    return S;
  };
  const uint32_t N = A.numStates();

  if (N == 0) {
    Diags.report(Severity::Error, "verify.nfa.empty",
                 "automaton has no states", WholeSpan(),
                 "every automaton needs at least an initial state");
    return false; // Nothing else is meaningful.
  }

  if (A.initial() >= N)
    Diags.report(Severity::Error, "verify.nfa.initial-range",
                 "initial state " + std::to_string(A.initial()) +
                     " out of range (automaton has " + std::to_string(N) +
                     " states)",
                 WholeSpan());

  bool IndicesOk = A.initial() < N;
  const std::vector<Transition> &Ts = A.transitions();
  for (size_t I = 0; I < Ts.size(); ++I) {
    const Transition &T = Ts[I];
    if (T.From >= N) {
      Diags.report(Severity::Error, "verify.nfa.transition-source",
                   "transition source state " + std::to_string(T.From) +
                       " out of range",
                   Span(I));
      IndicesOk = false;
    }
    if (T.To >= N) {
      Diags.report(Severity::Error, "verify.nfa.transition-target",
                   "transition target state " + std::to_string(T.To) +
                       " out of range (dangling arc)",
                   Span(I));
      IndicesOk = false;
    }
    if (Level == IrLevel::OptimizedFsa && T.Label.empty())
      Diags.report(Severity::Error, "verify.nfa.epsilon",
                   "ε-labeled transition survives single-FSA optimization",
                   Span(I), "run removeEpsilons() before merging");
  }

  for (size_t I = 0; I < A.finals().size(); ++I)
    if (A.finals()[I] >= N) {
      Diags.report(Severity::Error, "verify.nfa.final-range",
                   "final state " + std::to_string(A.finals()[I]) +
                       " out of range",
                   Span(I));
      IndicesOk = false;
    }

  if (Level == IrLevel::OptimizedFsa) {
    // Canonical-form postconditions of Nfa::canonicalize(): the COO triple
    // list strictly sorted (sorted + deduplicated), finals likewise.
    for (size_t I = 1; I < Ts.size(); ++I) {
      if (Ts[I] < Ts[I - 1]) {
        Diags.report(Severity::Error, "verify.nfa.coo-order",
                     "transitions not in canonical (From, To, Label) order",
                     Span(I), "call canonicalize() after mutating");
        break;
      }
      if (Ts[I] == Ts[I - 1]) {
        Diags.report(Severity::Error, "verify.nfa.coo-duplicate",
                     "duplicate transition", Span(I),
                     "call canonicalize() after mutating");
        break;
      }
    }
    for (size_t I = 1; I < A.finals().size(); ++I)
      if (A.finals()[I] <= A.finals()[I - 1]) {
        Diags.report(Severity::Error, "verify.nfa.final-order",
                     "final states not sorted and deduplicated", Span(I));
        break;
      }

    // Compaction: no unreachable and no dead state. compactReachable()
    // collapses an empty-language automaton to one transition-less state, so
    // a final-less automaton is only legal in exactly that shape.
    if (IndicesOk) {
      if (A.finals().empty()) {
        if (N != 1 || !Ts.empty())
          Diags.report(Severity::Error, "verify.nfa.dead-state",
                       "automaton has no final states but is not the "
                       "single-state empty-language form",
                       WholeSpan(), "run compactReachable()");
      } else {
        std::vector<bool> Fwd = reachableFrom(N, Ts, A.initial());
        std::vector<bool> Bwd = coReachable(N, Ts, A.finals());
        for (StateId Q = 0; Q < N; ++Q) {
          if (!Fwd[Q]) {
            Diags.report(Severity::Error, "verify.nfa.unreachable-state",
                         "state " + std::to_string(Q) +
                             " unreachable from the initial state",
                         Span(Q), "run compactReachable()");
          } else if (!Bwd[Q]) {
            Diags.report(Severity::Error, "verify.nfa.dead-state",
                         "state " + std::to_string(Q) +
                             " cannot reach a final state",
                         Span(Q), "run compactReachable()");
          }
        }
      }
    }
  }

  return Diags.numErrors() == Before;
}

bool mfsa::verifyMfsa(const Mfsa &Z, DiagnosticEngine &Diags) {
  const size_t Before = Diags.numErrors();
  const uint32_t N = Z.numStates();
  const uint32_t R = Z.numRules();
  const std::vector<MfsaTransition> &Ts = Z.transitions();

  // Element-indexed structural checks. Index validity feeds the later
  // connectivity pass, which skips arcs already reported broken.
  std::vector<bool> ArcOk(Ts.size(), true);
  for (size_t I = 0; I < Ts.size(); ++I) {
    const MfsaTransition &T = Ts[I];
    if (T.From >= N) {
      Diags.report(Severity::Error, "verify.mfsa.transition-source",
                   "transition source state " + std::to_string(T.From) +
                       " out of range (automaton has " + std::to_string(N) +
                       " states)",
                   SourceSpan::forElement(I));
      ArcOk[I] = false;
    }
    if (T.To >= N) {
      Diags.report(Severity::Error, "verify.mfsa.transition-target",
                   "transition target state " + std::to_string(T.To) +
                       " out of range (dangling arc)",
                   SourceSpan::forElement(I));
      ArcOk[I] = false;
    }
    if (T.Label.empty())
      Diags.report(Severity::Error, "verify.mfsa.epsilon-label",
                   "MFSA transition carries an empty (ε) label",
                   SourceSpan::forElement(I));
    if (T.Bel.size() != R) {
      Diags.report(Severity::Error, "verify.mfsa.bel-width",
                   "belonging set is " + std::to_string(T.Bel.size()) +
                       " bits wide, expected " + std::to_string(R) +
                       " (one per registered rule)",
                   SourceSpan::forElement(I),
                   "belonging sets must be sized with Mfsa::makeBel()");
      ArcOk[I] = false; // Bel lookups on this arc are unsafe.
    } else if (T.Bel.none()) {
      Diags.report(Severity::Error, "verify.mfsa.bel-empty",
                   "transition belongs to no rule", SourceSpan::forElement(I),
                   "merging must drop arcs with empty belonging sets");
    }
  }

  // Coalescing: duplicate parallel arcs double-count activations (Eq. 4-6).
  {
    std::vector<size_t> Order(Ts.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      const MfsaTransition &X = Ts[A], &Y = Ts[B];
      if (X.From != Y.From)
        return X.From < Y.From;
      if (X.To != Y.To)
        return X.To < Y.To;
      return X.Label < Y.Label;
    });
    for (size_t I = 1; I < Order.size(); ++I) {
      const MfsaTransition &X = Ts[Order[I - 1]], &Y = Ts[Order[I]];
      if (X.From == Y.From && X.To == Y.To && X.Label == Y.Label)
        Diags.report(Severity::Error, "verify.mfsa.duplicate-arc",
                     "parallel transitions with identical (from, to, label) "
                     "were not coalesced",
                     SourceSpan::forElement(Order[I]),
                     "merge their belonging sets into one arc");
    }
  }

  // Per-rule metadata (I, F, provenance).
  std::vector<bool> RuleOk(R, true);
  for (RuleId Id = 0; Id < R; ++Id) {
    const Mfsa::RuleInfo &Info = Z.rule(Id);
    if (Info.Initial >= N) {
      Diags.report(Severity::Error, "verify.mfsa.rule-initial-range",
                   "rule " + std::to_string(Id) + " initial state " +
                       std::to_string(Info.Initial) + " out of range",
                   SourceSpan::forRule(Id));
      RuleOk[Id] = false;
    }
    for (StateId F : Info.Finals)
      if (F >= N) {
        Diags.report(Severity::Error, "verify.mfsa.rule-final-range",
                     "rule " + std::to_string(Id) + " final state " +
                         std::to_string(F) + " out of range",
                     SourceSpan::forRule(Id));
        RuleOk[Id] = false;
      }
  }

  // Match attribution: two rules sharing a GlobalId would merge their match
  // counters downstream.
  {
    std::vector<std::pair<uint32_t, RuleId>> Ids;
    Ids.reserve(R);
    for (RuleId Id = 0; Id < R; ++Id)
      Ids.emplace_back(Z.rule(Id).GlobalId, Id);
    std::sort(Ids.begin(), Ids.end());
    for (size_t I = 1; I < Ids.size(); ++I)
      if (Ids[I].first == Ids[I - 1].first)
        Diags.report(Severity::Error, "verify.mfsa.global-id-collision",
                     "rules " + std::to_string(Ids[I - 1].second) + " and " +
                         std::to_string(Ids[I].second) +
                         " share global id " + std::to_string(Ids[I].first),
                     SourceSpan::forRule(Ids[I].second));
  }

  // Per-rule connectivity: BFS from the rule's initial state over the arcs
  // whose belonging set contains the rule; every such arc must be reached.
  // An unreached arc means the Merge relabeling lost injectivity (or the
  // belonging set was corrupted), which silently changes the rule's language.
  for (RuleId Id = 0; Id < R; ++Id) {
    if (!RuleOk[Id])
      continue;
    std::vector<std::vector<StateId>> Out(N);
    bool Owns = false;
    for (size_t I = 0; I < Ts.size(); ++I)
      if (ArcOk[I] && Ts[I].Bel.test(Id)) {
        Out[Ts[I].From].push_back(Ts[I].To);
        Owns = true;
      }
    if (!Owns)
      continue; // Transition-less rule (empty language); legal.
    std::vector<bool> Seen(N, false);
    std::queue<StateId> Work;
    Work.push(Z.rule(Id).Initial);
    Seen[Z.rule(Id).Initial] = true;
    while (!Work.empty()) {
      StateId Q = Work.front();
      Work.pop();
      for (StateId S : Out[Q])
        if (!Seen[S]) {
          Seen[S] = true;
          Work.push(S);
        }
    }
    for (size_t I = 0; I < Ts.size(); ++I)
      if (ArcOk[I] && Ts[I].Bel.test(Id) && !Seen[Ts[I].From]) {
        SourceSpan Span = SourceSpan::forElement(I);
        Span.Rule = Id; // position on both the rule and the offending arc
        Diags.report(Severity::Error, "verify.mfsa.rule-disconnected",
                     "transition owned by rule " + std::to_string(Id) +
                         " is unreachable from the rule's initial state " +
                         std::to_string(Z.rule(Id).Initial),
                     Span,
                     "the merge relabeling corrupted this rule's "
                     "sub-automaton");
        break; // One finding per rule keeps reports readable.
      }
  }

  return Diags.numErrors() == Before;
}

std::string mfsa::verifyNfaError(const Nfa &A, IrLevel Level) {
  DiagnosticEngine Diags;
  if (verifyNfa(A, Level, Diags))
    return {};
  for (const Finding &F : Diags.findings())
    if (F.Sev == Severity::Error) {
      std::string Where = F.Span.render();
      return (Where.empty() ? "" : Where + ": ") + F.Message + " [" +
             F.CheckId + "]";
    }
  return "verification failed";
}

std::string mfsa::verifyMfsaError(const Mfsa &Z) {
  DiagnosticEngine Diags;
  if (verifyMfsa(Z, Diags))
    return {};
  for (const Finding &F : Diags.findings())
    if (F.Sev == Severity::Error) {
      std::string Where = F.Span.render();
      return (Where.empty() ? "" : Where + ": ") + F.Message + " [" +
             F.CheckId + "]";
    }
  return "verification failed";
}
