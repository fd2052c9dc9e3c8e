//===- FsaTest.cpp - unit + property tests for the FSA middle-end ------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "fsa/Builder.h"
#include "fsa/Nfa.h"
#include "fsa/Passes.h"
#include "fsa/Reference.h"
#include "regex/Parser.h"
#include "workload/Datasets.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <map>
#include <queue>

using namespace mfsa;
using namespace mfsa::test;

//===----------------------------------------------------------------------===//
// Nfa model basics
//===----------------------------------------------------------------------===//

TEST(Nfa, AddAndQuery) {
  Nfa A;
  StateId S0 = A.addState();
  StateId S1 = A.addState();
  A.setInitial(S0);
  A.addFinal(S1);
  A.addTransition(S0, S1, SymbolSet::singleton('x'));
  EXPECT_EQ(A.numStates(), 2u);
  EXPECT_EQ(A.numTransitions(), 1u);
  EXPECT_TRUE(A.isFinal(S1));
  EXPECT_FALSE(A.isFinal(S0));
  EXPECT_FALSE(A.hasEpsilons());
  A.addTransition(S0, S0, SymbolSet());
  EXPECT_TRUE(A.hasEpsilons());
}

TEST(Nfa, CanonicalizeSortsAndDedupes) {
  Nfa A;
  StateId S0 = A.addState();
  StateId S1 = A.addState();
  A.addTransition(S1, S0, SymbolSet::singleton('b'));
  A.addTransition(S0, S1, SymbolSet::singleton('a'));
  A.addTransition(S0, S1, SymbolSet::singleton('a')); // duplicate
  A.addFinal(S1);
  A.addFinal(S1);
  A.canonicalize();
  EXPECT_EQ(A.numTransitions(), 2u);
  EXPECT_EQ(A.finals().size(), 1u);
  EXPECT_EQ(A.transitions()[0].From, S0);
}

TEST(Nfa, StatsCountCcTransitions) {
  Nfa A;
  StateId S0 = A.addState();
  StateId S1 = A.addState();
  A.addTransition(S0, S1, SymbolSet::singleton('a'));
  A.addTransition(S0, S1, SymbolSet::range('0', '9'));
  NfaStats S = computeStats(A);
  EXPECT_EQ(S.NumStates, 2u);
  EXPECT_EQ(S.NumTransitions, 2u);
  EXPECT_EQ(S.NumCcTransitions, 1u);
  EXPECT_EQ(S.TotalCcLength, 10u);
}

TEST(Nfa, DotOutputMentionsStates) {
  Nfa A;
  StateId S0 = A.addState();
  StateId S1 = A.addState();
  A.setInitial(S0);
  A.addFinal(S1);
  A.addTransition(S0, S1, SymbolSet::singleton('q'));
  std::string Dot = writeDot(A, "t");
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("0 -> 1"), std::string::npos);
  EXPECT_NE(Dot.find("doublecircle"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Thompson construction
//===----------------------------------------------------------------------===//

namespace {

Nfa buildFor(const std::string &Pattern, BuildOptions Options = {}) {
  Result<Regex> Re = parseRegex(Pattern);
  EXPECT_TRUE(Re.ok()) << Pattern;
  Result<Nfa> A = buildNfa(*Re, Options);
  EXPECT_TRUE(A.ok()) << Pattern;
  return A.take();
}

/// Shorthand: simulate the ε-NFA built from Pattern over Input.
std::set<size_t> nfaEnds(const std::string &Pattern,
                         const std::string &Input) {
  return simulateNfa(buildFor(Pattern), Input);
}

/// Shorthand: AST-oracle ends.
std::set<size_t> astEnds(const std::string &Pattern,
                         const std::string &Input) {
  Result<Regex> Re = parseRegex(Pattern);
  EXPECT_TRUE(Re.ok()) << Pattern;
  return astMatchEnds(*Re, Input);
}

} // namespace

TEST(Builder, SingleSymbol) {
  Nfa A = buildFor("a");
  EXPECT_EQ(A.numStates(), 2u);
  EXPECT_EQ(A.numTransitions(), 1u);
  EXPECT_FALSE(A.hasEpsilons());
}

TEST(Builder, ConcatAlternateProduceEpsilons) {
  Nfa A = buildFor("ab|c");
  EXPECT_TRUE(A.hasEpsilons());
  EXPECT_EQ(simulateNfa(A, "xabx"), (std::set<size_t>{3}));
  EXPECT_EQ(simulateNfa(A, "c"), (std::set<size_t>{1}));
}

TEST(Builder, BoundedRepeatExpansion) {
  // a{2,4} on "aaaaa": ends wherever 2..4 consecutive a's finish.
  EXPECT_EQ(nfaEnds("a{2,4}", "aaaaa"), (std::set<size_t>{2, 3, 4, 5}));
  EXPECT_EQ(nfaEnds("a{3}", "aaa"), (std::set<size_t>{3}));
  EXPECT_EQ(nfaEnds("a{3}", "aa"), (std::set<size_t>{}));
  EXPECT_EQ(nfaEnds("(ab){2}", "abab"), (std::set<size_t>{4}));
}

TEST(Builder, UnboundedRepeats) {
  EXPECT_EQ(nfaEnds("ab*", "abbb"), (std::set<size_t>{1, 2, 3, 4}));
  EXPECT_EQ(nfaEnds("ab+", "abbb"), (std::set<size_t>{2, 3, 4}));
  EXPECT_EQ(nfaEnds("a{2,}", "aaaa"),
            (std::set<size_t>{2, 3, 4})); // every run of >= 2
  EXPECT_EQ(nfaEnds("(ab){2,}", "ababab"), (std::set<size_t>{4, 6}));
}

TEST(Builder, RepeatBoundCapRejected) {
  BuildOptions Options;
  Options.MaxRepeatBound = 10;
  Result<Regex> Re = parseRegex("a{3,11}");
  ASSERT_TRUE(Re.ok());
  Result<Nfa> A = buildNfa(*Re, Options);
  EXPECT_FALSE(A.ok());
  EXPECT_NE(A.diag().Message.find("MaxRepeatBound"), std::string::npos);
}

TEST(Builder, CompactLoopModeOverapproximates) {
  // Ablation mode: a{2,3} degrades to a+; the language is a superset.
  BuildOptions Compact;
  Compact.ExpandBoundedRepeats = false;
  Result<Regex> Re = parseRegex("xa{2,3}y");
  ASSERT_TRUE(Re.ok());
  Result<Nfa> A = buildNfa(*Re, Compact);
  ASSERT_TRUE(A.ok());
  // Exact matches still match...
  EXPECT_EQ(simulateNfa(*A, "xaay"), (std::set<size_t>{4}));
  // ...and so does the over-approximated count (documented deviation).
  EXPECT_EQ(simulateNfa(*A, "xay"), (std::set<size_t>{3}));
  // Expanded mode is exact.
  EXPECT_EQ(nfaEnds("xa{2,3}y", "xay"), (std::set<size_t>{}));
}

TEST(Builder, CompactLoopHasFewerStates) {
  BuildOptions Compact;
  Compact.ExpandBoundedRepeats = false;
  Result<Regex> Re = parseRegex("(fg){2,8}");
  ASSERT_TRUE(Re.ok());
  Result<Nfa> Expanded = buildNfa(*Re);
  Result<Nfa> Loop = buildNfa(*Re, Compact);
  ASSERT_TRUE(Expanded.ok());
  ASSERT_TRUE(Loop.ok());
  EXPECT_GT(Expanded->numStates(), Loop->numStates());
}

TEST(Builder, AnchorsCarriedToAutomaton) {
  Nfa A = buildFor("^ab$");
  EXPECT_TRUE(A.anchoredStart());
  EXPECT_TRUE(A.anchoredEnd());
  EXPECT_EQ(simulateNfa(A, "ab"), (std::set<size_t>{2}));
  EXPECT_EQ(simulateNfa(A, "xab"), (std::set<size_t>{})); // not at start
  EXPECT_EQ(simulateNfa(A, "abx"), (std::set<size_t>{})); // not at end
}

//===----------------------------------------------------------------------===//
// Reference oracles agree with hand-computed cases
//===----------------------------------------------------------------------===//

TEST(Oracle, HandComputedCases) {
  EXPECT_EQ(astEnds("abc", "zabcabc"), (std::set<size_t>{4, 7}));
  EXPECT_EQ(astEnds("a|ab", "ab"), (std::set<size_t>{1, 2}));
  EXPECT_EQ(astEnds("a*", "aa"), (std::set<size_t>{1, 2}));   // non-empty only
  EXPECT_EQ(astEnds("a?", "b"), (std::set<size_t>{}));        // ε not reported
  EXPECT_EQ(astEnds("(a|b){2}", "ab"), (std::set<size_t>{2}));
  EXPECT_EQ(astEnds("", "abc"), (std::set<size_t>{}));        // ε-only RE
}

TEST(Oracle, EpsilonHeavyRepeatTermination) {
  // (a?)* and (a?){3,} have ε-matching bodies; the fixpoint must terminate
  // and still report the non-empty matches.
  EXPECT_EQ(astEnds("(a?)*", "aa"), (std::set<size_t>{1, 2}));
  EXPECT_EQ(astEnds("(a?){3,}", "a"), (std::set<size_t>{1}));
  EXPECT_EQ(nfaEnds("(a?)*", "aa"), (std::set<size_t>{1, 2}));
}

TEST(Oracle, LongStarredRunStaysFast) {
  // a[b-y]*z over a 64 KiB run: the starred fixpoint adds one position per
  // round, so re-evaluating every known position in each round would be
  // quadratic in the run; the oracle evaluates each position once.
  std::string Input = "a";
  for (size_t I = 0; I < 64 * 1024; ++I)
    Input.push_back(static_cast<char>('b' + I % 24));
  Input.push_back('z');
  const std::set<size_t> Ends = astEnds("a[b-y]*z", Input);
  EXPECT_EQ(Ends, (std::set<size_t>{Input.size()}));
  EXPECT_EQ(Ends, nfaEnds("a[b-y]*z", Input));
}

TEST(Oracle, AnchoredSemantics) {
  Result<Regex> Re = parseRegex("^ab");
  ASSERT_TRUE(Re.ok());
  EXPECT_EQ(astMatchEnds(*Re, "abab"), (std::set<size_t>{2}));
  Result<Regex> ReEnd = parseRegex("ab$");
  ASSERT_TRUE(ReEnd.ok());
  EXPECT_EQ(astMatchEnds(*ReEnd, "abab"), (std::set<size_t>{4}));
}

//===----------------------------------------------------------------------===//
// Optimization passes preserve the language
//===----------------------------------------------------------------------===//

TEST(Passes, EpsilonRemovalPreservesLanguage) {
  const char *Patterns[] = {"ab|cd", "(a|b)*c", "a{2,4}b?", "x.*y",
                            "(ab)+|c{3}"};
  const char *Inputs[] = {"abcd", "ababcc", "aaaab", "xzzy", "ababccc"};
  for (const char *Pattern : Patterns) {
    Nfa Raw = buildFor(Pattern);
    Nfa Clean = removeEpsilons(Raw);
    EXPECT_FALSE(Clean.hasEpsilons());
    for (const char *Input : Inputs)
      EXPECT_EQ(simulateNfa(Raw, Input), simulateNfa(Clean, Input))
          << Pattern << " on " << Input;
  }
}

TEST(Passes, FoldMultiplicityMergesParallelArcs) {
  // (a|b|c) folds to one [abc] arc (Fig. 5b): alternation exits are
  // bisimilar, merging them turns the branches into parallel arcs which
  // foldMultiplicity unions into a class.
  Nfa Final = optimizeForMerging(buildFor("(a|b|c)x"));
  // After the full pipeline: states {0,1,2}, arcs 0-[abc]->1, 1-x->2.
  EXPECT_EQ(Final.numStates(), 3u);
  EXPECT_EQ(Final.numTransitions(), 2u);
  bool FoundClass = false;
  for (const Transition &T : Final.transitions())
    if (T.Label == SymbolSet::of("abc"))
      FoundClass = true;
  EXPECT_TRUE(FoundClass);
}

TEST(Passes, BisimulationMergesEquivalentExits) {
  // a(x|y)z: both branch exits behave identically (single z arc to final).
  Nfa NoEps = removeEpsilons(buildFor("a(x|y)z"));
  Nfa Merged = mergeBisimilarStates(NoEps);
  EXPECT_LT(Merged.numStates(), NoEps.numStates());
  // Language unchanged.
  EXPECT_EQ(simulateNfa(Merged, "baxzc"), (std::set<size_t>{4}));
  EXPECT_EQ(simulateNfa(Merged, "ayz"), (std::set<size_t>{3}));
  EXPECT_EQ(simulateNfa(Merged, "az"), (std::set<size_t>{}));
}

TEST(Passes, BisimulationKeepsDistinctFutures) {
  // xa vs yb: the states after x and after y have different futures and
  // must not merge.
  Nfa Final = optimizeForMerging(buildFor("xa|yb"));
  EXPECT_EQ(simulateNfa(Final, "xa"), (std::set<size_t>{2}));
  EXPECT_EQ(simulateNfa(Final, "xb"), (std::set<size_t>{}));
  EXPECT_EQ(simulateNfa(Final, "yb"), (std::set<size_t>{2}));
  EXPECT_EQ(simulateNfa(Final, "ya"), (std::set<size_t>{}));
}

TEST(Passes, CompactDropsUnreachableAndDead) {
  Nfa A;
  StateId S0 = A.addState();
  StateId S1 = A.addState();
  StateId Dead = A.addState();        // reachable, no path to final
  StateId Unreachable = A.addState(); // not reachable at all
  A.setInitial(S0);
  A.addFinal(S1);
  A.addTransition(S0, S1, SymbolSet::singleton('a'));
  A.addTransition(S0, Dead, SymbolSet::singleton('b'));
  A.addTransition(Unreachable, S1, SymbolSet::singleton('c'));
  Nfa Out = compactReachable(A);
  EXPECT_EQ(Out.numStates(), 2u);
  EXPECT_EQ(Out.numTransitions(), 1u);
}

TEST(Passes, CompactKeepsInitialForEmptyLanguage) {
  Nfa A;
  StateId S0 = A.addState();
  A.addState();
  A.setInitial(S0);
  // No finals at all.
  Nfa Out = compactReachable(A);
  EXPECT_EQ(Out.numStates(), 1u);
  EXPECT_TRUE(Out.finals().empty());
  EXPECT_TRUE(simulateNfa(Out, "abc").empty());
}

TEST(Passes, FullPipelinePreservesLanguageOnSamples) {
  const char *Patterns[] = {"ab|cd",       "(a|b)*cc",  "a{2,4}[bc]?",
                            "x.*y",        "(ab)+|c{3}", "[a-d]{2}e",
                            "(a|b|c)(d|e)", "a+b+c+"};
  Rng Random(99);
  for (const char *Pattern : Patterns) {
    Nfa Raw = buildFor(Pattern);
    Nfa Optimized = optimizeForMerging(Raw);
    EXPECT_FALSE(Optimized.hasEpsilons());
    for (int Trial = 0; Trial < 20; ++Trial) {
      std::string Input = randomInput(Random, 24);
      EXPECT_EQ(simulateNfa(Raw, Input), simulateNfa(Optimized, Input))
          << Pattern << " on " << Input;
    }
  }
}

//===----------------------------------------------------------------------===//
// Optimizer passes agree byte for byte with the naive reference passes
//===----------------------------------------------------------------------===//

namespace naive {

// The straightforward versions of the four passes: per-state BFS closures,
// a std::map fold, std::map signature refinement one round at a time, and
// a fold/merge loop that stops once the counts stop moving. The library's
// passes must produce exactly the automata these do.

Nfa removeEpsilons(const Nfa &A) {
  std::vector<std::vector<StateId>> EpsOut(A.numStates());
  std::vector<std::vector<uint32_t>> SymbolicOut(A.numStates());
  for (uint32_t I = 0; I < A.numTransitions(); ++I) {
    const Transition &T = A.transitions()[I];
    if (T.isEpsilon())
      EpsOut[T.From].push_back(T.To);
    else
      SymbolicOut[T.From].push_back(I);
  }
  Nfa Out;
  for (StateId Q = 0; Q < A.numStates(); ++Q)
    Out.addState();
  Out.setInitial(A.initial());
  Out.setAnchors(A.anchoredStart(), A.anchoredEnd());
  for (StateId Q = 0; Q < A.numStates(); ++Q) {
    std::vector<bool> Seen(A.numStates(), false);
    std::queue<StateId> Work;
    Work.push(Q);
    Seen[Q] = true;
    bool IsFinal = false;
    while (!Work.empty()) {
      StateId R = Work.front();
      Work.pop();
      IsFinal = IsFinal || A.isFinal(R);
      for (uint32_t TIdx : SymbolicOut[R])
        Out.addTransition(Q, A.transitions()[TIdx].To,
                          A.transitions()[TIdx].Label);
      for (StateId S : EpsOut[R])
        if (!Seen[S]) {
          Seen[S] = true;
          Work.push(S);
        }
    }
    if (IsFinal)
      Out.addFinal(Q);
  }
  Out.canonicalize();
  return Out;
}

Nfa foldMultiplicity(const Nfa &A) {
  std::map<std::pair<StateId, StateId>, SymbolSet> Folded;
  for (const Transition &T : A.transitions())
    Folded[{T.From, T.To}] |= T.Label;
  Nfa Out;
  for (StateId Q = 0; Q < A.numStates(); ++Q)
    Out.addState();
  Out.setInitial(A.initial());
  Out.setAnchors(A.anchoredStart(), A.anchoredEnd());
  for (StateId F : A.finals())
    Out.addFinal(F);
  for (const auto &[Pair, Label] : Folded)
    Out.addTransition(Pair.first, Pair.second, Label);
  Out.canonicalize();
  return Out;
}

Nfa compactReachable(const Nfa &A) {
  std::vector<std::vector<uint32_t>> OutIdx = A.buildOutgoingIndex();
  std::vector<std::vector<StateId>> InAdj(A.numStates());
  for (const Transition &T : A.transitions())
    InAdj[T.To].push_back(T.From);
  auto Walk = [&](std::vector<StateId> Roots, bool Forward,
                  const std::vector<bool> *Allowed) {
    std::vector<StateId> Order;
    std::vector<bool> Seen(A.numStates(), false);
    std::queue<StateId> Work;
    for (StateId R : Roots)
      if (!Seen[R]) {
        Seen[R] = true;
        Work.push(R);
      }
    while (!Work.empty()) {
      StateId Q = Work.front();
      Work.pop();
      Order.push_back(Q);
      std::vector<StateId> Next;
      if (Forward)
        for (uint32_t TIdx : OutIdx[Q])
          Next.push_back(A.transitions()[TIdx].To);
      else
        Next = InAdj[Q];
      for (StateId S : Next)
        if (!Seen[S] && (!Allowed || (*Allowed)[S])) {
          Seen[S] = true;
          Work.push(S);
        }
    }
    return Order;
  };
  std::vector<bool> Fwd(A.numStates(), false), Live(A.numStates(), false);
  for (StateId Q : Walk({A.initial()}, true, nullptr))
    Fwd[Q] = true;
  for (StateId Q : Walk(A.finals(), false, nullptr))
    Live[Q] = Fwd[Q];
  Live[A.initial()] = true;
  std::vector<StateId> Order = Walk({A.initial()}, true, &Live);
  constexpr StateId Unmapped = UINT32_MAX;
  std::vector<StateId> NewId(A.numStates(), Unmapped);
  Nfa Out;
  for (StateId Q : Order)
    NewId[Q] = Out.addState();
  Out.setInitial(NewId[A.initial()]);
  Out.setAnchors(A.anchoredStart(), A.anchoredEnd());
  for (StateId F : A.finals())
    if (NewId[F] != Unmapped)
      Out.addFinal(NewId[F]);
  for (const Transition &T : A.transitions())
    if (NewId[T.From] != Unmapped && NewId[T.To] != Unmapped)
      Out.addTransition(NewId[T.From], NewId[T.To], T.Label);
  Out.canonicalize();
  return Out;
}

Nfa mergeBisimilarStates(const Nfa &A) {
  std::vector<std::vector<uint32_t>> OutIdx = A.buildOutgoingIndex();
  std::vector<uint32_t> ClassOf(A.numStates(), 0);
  for (StateId F : A.finals())
    ClassOf[F] = 1;
  size_t NumClasses = A.finals().empty() ? 1 : 2;
  using Signature =
      std::pair<uint32_t, std::vector<std::pair<SymbolSet, uint32_t>>>;
  for (;;) {
    std::map<Signature, uint32_t> NewClassIds;
    std::vector<uint32_t> NewClassOf(A.numStates());
    for (StateId Q = 0; Q < A.numStates(); ++Q) {
      Signature Sig;
      Sig.first = ClassOf[Q];
      for (uint32_t TIdx : OutIdx[Q])
        Sig.second.emplace_back(A.transitions()[TIdx].Label,
                                ClassOf[A.transitions()[TIdx].To]);
      std::sort(Sig.second.begin(), Sig.second.end());
      Sig.second.erase(std::unique(Sig.second.begin(), Sig.second.end()),
                       Sig.second.end());
      NewClassOf[Q] =
          NewClassIds
              .emplace(std::move(Sig),
                       static_cast<uint32_t>(NewClassIds.size()))
              .first->second;
    }
    size_t NewCount = NewClassIds.size();
    ClassOf = std::move(NewClassOf);
    if (NewCount == NumClasses)
      break;
    NumClasses = NewCount;
  }
  constexpr uint32_t Unset = UINT32_MAX;
  std::vector<StateId> ClassState(NumClasses, Unset);
  Nfa Out;
  for (StateId Q = 0; Q < A.numStates(); ++Q)
    if (ClassState[ClassOf[Q]] == Unset)
      ClassState[ClassOf[Q]] = Out.addState();
  Out.setInitial(ClassState[ClassOf[A.initial()]]);
  Out.setAnchors(A.anchoredStart(), A.anchoredEnd());
  for (StateId F : A.finals())
    Out.addFinal(ClassState[ClassOf[F]]);
  for (const Transition &T : A.transitions())
    Out.addTransition(ClassState[ClassOf[T.From]], ClassState[ClassOf[T.To]],
                      T.Label);
  Out.canonicalize();
  return Out;
}

/// The reference pipeline; \\p Rounds receives its fold/merge round count.
Nfa optimizeForMerging(const Nfa &A, unsigned *Rounds = nullptr) {
  Nfa Current = naive::removeEpsilons(A);
  unsigned Count = 0;
  for (;;) {
    ++Count;
    const uint32_t States = Current.numStates();
    const uint32_t Transitions = Current.numTransitions();
    Current = naive::mergeBisimilarStates(naive::foldMultiplicity(Current));
    if (Current.numStates() == States &&
        Current.numTransitions() == Transitions)
      break;
  }
  if (Rounds)
    *Rounds = Count;
  return naive::compactReachable(naive::foldMultiplicity(Current));
}

} // namespace naive

namespace {

/// \\p A with its transitions and finals in a scrambled order: the public
/// passes accept non-canonical automata, and compaction's numbering follows
/// transition order.
Nfa scrambled(const Nfa &A, Rng &Random) {
  Nfa Out = A;
  std::vector<Transition> &Ts = Out.transitions();
  for (size_t I = Ts.size(); I > 1; --I)
    std::swap(Ts[I - 1], Ts[Random.nextBelow(I)]);
  std::reverse(Out.finals().begin(), Out.finals().end());
  return Out;
}

/// Runs every pass of the reference pipeline on \\p Raw and requires each of
/// the library's passes, on the same input (canonical and scrambled), to
/// produce exactly the reference's automaton; then the whole pipeline.
void expectMatchesReference(const Nfa &Raw, const std::string &What) {
  SCOPED_TRACE(What);
  Rng Random(Raw.numStates() * 7919u + Raw.numTransitions());
  auto Check = [&](Nfa (*Pass)(const Nfa &), Nfa (*Reference)(const Nfa &),
                   const Nfa &Input, const char *Name) {
    const Nfa Expected = Reference(Input);
    EXPECT_TRUE(Pass(Input) == Expected) << Name;
    const Nfa Shuffled = scrambled(Input, Random);
    EXPECT_TRUE(Pass(Shuffled) == Reference(Shuffled)) << Name
                                                       << " (scrambled)";
    return Expected;
  };
  Nfa Current = Check(removeEpsilons, naive::removeEpsilons, Raw,
                      "remove-epsilons");
  for (;;) {
    const uint32_t States = Current.numStates();
    const uint32_t Transitions = Current.numTransitions();
    Current = Check(mergeBisimilarStates, naive::mergeBisimilarStates,
                    Check(foldMultiplicity, naive::foldMultiplicity, Current,
                          "fold-multiplicity"),
                    "merge-bisimilar-states");
    if (Current.numStates() == States &&
        Current.numTransitions() == Transitions)
      break;
  }
  Check(compactReachable, naive::compactReachable,
        naive::foldMultiplicity(Current), "compact-reachable");
  EXPECT_TRUE(optimizeForMerging(Raw) == naive::optimizeForMerging(Raw))
      << "optimizeForMerging";
}

/// A random automaton over a four-symbol label pool: self-loops, parallel
/// and duplicate arcs, unreachable and dead states all occur; \\p Epsilons
/// adds ε-arcs.
Nfa randomAutomaton(Rng &Random, bool Epsilons) {
  const SymbolSet Pool[] = {SymbolSet::singleton('a'),
                            SymbolSet::singleton('b'), SymbolSet::of("ab"),
                            SymbolSet::of("cd")};
  Nfa A;
  const uint32_t N = 1 + static_cast<uint32_t>(Random.nextBelow(64));
  for (uint32_t Q = 0; Q < N; ++Q)
    A.addState();
  A.setInitial(static_cast<StateId>(Random.nextBelow(N)));
  for (uint32_t Q = 0; Q < N; ++Q)
    if (Random.nextBool(0.3))
      A.addFinal(Q);
  const uint64_t Arcs = Random.nextBelow(3 * N + 1);
  for (uint64_t I = 0; I < Arcs; ++I) {
    const StateId From = static_cast<StateId>(Random.nextBelow(N));
    const StateId To = static_cast<StateId>(Random.nextBelow(N));
    if (Epsilons && Random.nextBool(0.25))
      A.addTransition(From, To, SymbolSet());
    else
      A.addTransition(From, To, Pool[Random.nextBelow(4)]);
  }
  return A;
}

} // namespace

TEST(PassesReference, RandomAutomata) {
  Rng Random(2024);
  for (int Round = 0; Round < 1000; ++Round) {
    const Nfa A = randomAutomaton(Random, Round % 2 == 0);
    expectMatchesReference(A, "random automaton " + std::to_string(Round));
    if (!A.hasEpsilons()) {
      // Straight into the ε-free passes, without ε-removal canonicalizing
      // the input first.
      EXPECT_TRUE(mergeBisimilarStates(A) == naive::mergeBisimilarStates(A))
          << Round;
      EXPECT_TRUE(foldMultiplicity(A) == naive::foldMultiplicity(A)) << Round;
      EXPECT_TRUE(compactReachable(A) == naive::compactReachable(A)) << Round;
    }
  }
}

TEST(PassesReference, LongBoundedRepeatChains) {
  for (const char *Pattern : {"(ab|cd){1,120}e", "a{200}", "x(a|b){3,90}y",
                              "(a{2,7}b){1,20}"})
    expectMatchesReference(buildFor(Pattern), Pattern);
}

TEST(PassesReference, NestedEpsilonCycles) {
  for (const char *Pattern :
       {"((a*)*|b?)*c", "((a?)*b*)*", "(((a|b?)*)+c?)*d", "(a*|(b*)*)+"})
    expectMatchesReference(buildFor(Pattern), Pattern);
}

TEST(PassesReference, AllFinalAndEmptyLanguageAutomata) {
  for (const char *Pattern : {"(ab|cd){1,5}e", "a*b", "(a|b)(c|d)"}) {
    Nfa AllFinal = buildFor(Pattern);
    for (StateId Q = 0; Q < AllFinal.numStates(); ++Q)
      AllFinal.addFinal(Q);
    expectMatchesReference(AllFinal, std::string("all-final ") + Pattern);
    Nfa Empty = buildFor(Pattern);
    Empty.clearFinals();
    expectMatchesReference(Empty, std::string("no finals ") + Pattern);
    EXPECT_EQ(optimizeForMerging(Empty).numStates(), 1u) << Pattern;
  }
}

TEST(PassesReference, RuleNeedingManyFoldMergeRounds) {
  // DS9 rule 258 only settles after five fold/merge rounds of the
  // reference loop: each merge exposes parallel arcs for the next fold.
  const DatasetSpec *Spec = findDataset("DS9");
  ASSERT_NE(Spec, nullptr);
  const std::vector<std::string> Rules = generateRuleset(*Spec);
  ASSERT_GT(Rules.size(), 258u);
  const Nfa Raw = buildFor(Rules[258]);
  unsigned Rounds = 0;
  naive::optimizeForMerging(Raw, &Rounds);
  EXPECT_GE(Rounds, 3u) << Rules[258];
  expectMatchesReference(Raw, Rules[258]);
}

//===----------------------------------------------------------------------===//
// Property tests: AST oracle == ε-NFA simulation == optimized simulation
//===----------------------------------------------------------------------===//

struct OracleAgreementParam {
  uint64_t Seed;
};

class OracleAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleAgreement, RandomPatternsAgreeAcrossLayers) {
  Rng Random(GetParam());
  for (int Round = 0; Round < 12; ++Round) {
    std::string Pattern = randomPattern(Random);
    Result<Regex> Re = parseRegex(Pattern);
    ASSERT_TRUE(Re.ok()) << Pattern;
    Result<Nfa> Built = buildNfa(*Re);
    ASSERT_TRUE(Built.ok()) << Pattern;
    Nfa Optimized = optimizeForMerging(*Built);
    expectMatchesReference(*Built, Pattern);
    for (int Trial = 0; Trial < 6; ++Trial) {
      std::string Input = randomInput(Random, 16);
      std::set<size_t> FromAst = astMatchEnds(*Re, Input);
      std::set<size_t> FromRaw = simulateNfa(*Built, Input);
      std::set<size_t> FromOpt = simulateNfa(Optimized, Input);
      EXPECT_EQ(FromAst, FromRaw) << Pattern << " on " << Input << " ast "
                                  << formatEnds(FromAst) << " raw "
                                  << formatEnds(FromRaw);
      EXPECT_EQ(FromRaw, FromOpt) << Pattern << " on " << Input;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleAgreement,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233));
