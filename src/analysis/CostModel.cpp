//===- CostModel.cpp - static cost & activation-width analyzer ------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/CostModel.h"

#include "fsa/Determinize.h"
#include "obs/Metrics.h"
#include "regex/Parser.h"
#include "support/SymbolSet.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <unordered_set>
#include <vector>

namespace mfsa {

namespace {

/// The stride-2 table ceiling (entries = states × atom-pairs) a completed
/// probe is judged against, matching StrideOptions::MaxTableEntries.
constexpr uint64_t kMaxStride2Entries = 1u << 26;

/// A \ B over the fixed-width symbol alphabet.
SymbolSet symbolDifference(const SymbolSet &A, const SymbolSet &B) {
  std::array<uint64_t, SymbolSet::NumWords> W = A.words();
  const std::array<uint64_t, SymbolSet::NumWords> &BW = B.words();
  for (unsigned I = 0; I < SymbolSet::NumWords; ++I)
    W[I] &= ~BW[I];
  return SymbolSet::fromWords(W);
}

/// The coarsest partition of the union of \p Labels such that every label
/// is a union of atoms. Same construction as fsa/AlphabetPartition.h, but
/// over Mfsa transition labels (no residual atom: bytes outside every label
/// kill the frontier, which the width search models as the empty start
/// macrostate it already explored).
std::vector<SymbolSet> atomsOfLabels(const std::vector<SymbolSet> &Labels) {
  std::vector<SymbolSet> Atoms;
  for (const SymbolSet &L : Labels) {
    if (L.empty())
      continue;
    std::vector<SymbolSet> Next;
    SymbolSet Rest = L;
    for (const SymbolSet &A : Atoms) {
      SymbolSet Common = A & L;
      if (Common.empty()) {
        Next.push_back(A);
        continue;
      }
      SymbolSet OnlyA = symbolDifference(A, Common);
      if (!OnlyA.empty())
        Next.push_back(OnlyA);
      Next.push_back(Common);
      Rest = symbolDifference(Rest, Common);
    }
    if (!Rest.empty())
      Next.push_back(Rest);
    Atoms = std::move(Next);
  }
  return Atoms;
}

/// The ⊆-maximal frontiers kept by the width search, indexed so that both
/// antichain queries touch only members that can answer them:
///
///  - "is S ⊆ some member?": such a member holds every state of S, so only
///    the members holding S's rarest state are scanned (ByState);
///  - "which members are ⊆ S?": each member is filed under one of its own
///    states, so only the buckets of S's states are scanned (ByRarest). A
///    member is filed under its rarest state when it joins: the state held
///    by the fewest frontiers so far, and so the least likely to lie in a
///    later S. (Filing under the lowest state instead piles most members
///    into the buckets of the always-injected low states; on DS9's M=0
///    group that made the sweep 16× slower.)
///
/// Popcounts filter both scans before any word is compared. Neither answer
/// depends on the order members are kept in. Each frontier is stored once
/// for both the antichain and the worklist: ids are handed out in push
/// order, so the FIFO worklist is the id range past the search's cursor. A
/// frontier's words are freed once it has been explored and has left the
/// antichain.
class FrontierStore {
public:
  explicit FrontierStore(uint32_t NumStates)
      : NumWords((NumStates + 63) / 64), ByState(NumStates),
        ByRarest(NumStates) {}

  uint32_t size() const { return static_cast<uint32_t>(Frontiers.size()); }
  uint64_t numMembers() const { return Members; }
  const std::vector<uint64_t> &words(uint32_t Id) const {
    return Frontiers[Id].Words;
  }

  /// Queues \p Words without making it a member (the search's ∅ seed).
  void addSeed(std::vector<uint64_t> Words) {
    Frontiers.push_back({std::move(Words), 0, false, false});
  }

  /// True iff some member is ⊇ \p S, whose set bits are \p States.
  bool dominated(const std::vector<uint64_t> &S,
                 const std::vector<uint32_t> &States) {
    if (States.empty())
      return Members != 0;
    const uint32_t Pop = static_cast<uint32_t>(States.size());
    // Ids of former members linger in ByState; drop them while scanning.
    std::vector<uint32_t> &Holders = ByState[rarest(States)];
    size_t Kept = 0;
    bool Found = false;
    for (uint32_t Id : Holders) {
      const Frontier &T = Frontiers[Id];
      if (!T.Member)
        continue;
      Holders[Kept++] = Id;
      Found = Found || (T.Pop >= Pop && isSubset(S, T.Words));
    }
    Holders.resize(Kept);
    return Found;
  }

  /// Drops every member ⊆ \p S, then adds S as a member and queues it.
  void insert(std::vector<uint64_t> S, const std::vector<uint32_t> &States) {
    const uint32_t Pop = static_cast<uint32_t>(States.size());
    if (EmptyMember != None) {
      leave(EmptyMember);
      EmptyMember = None;
    }
    for (uint32_t Q : States) {
      std::vector<uint32_t> &Bucket = ByRarest[Q];
      for (size_t I = 0; I < Bucket.size();) {
        const Frontier &T = Frontiers[Bucket[I]];
        if (T.Pop <= Pop && isSubset(T.Words, S)) {
          leave(Bucket[I]);
          Bucket[I] = Bucket.back();
          Bucket.pop_back();
        } else {
          ++I;
        }
      }
    }
    const uint32_t Id = size();
    Frontiers.push_back({std::move(S), Pop, true, false});
    ++Members;
    if (States.empty()) {
      EmptyMember = Id;
      return;
    }
    ByRarest[rarest(States)].push_back(Id);
    for (uint32_t Q : States)
      ByState[Q].push_back(Id);
  }

  /// Marks frontier \p Id explored, freeing it if it is no longer a member.
  void markExplored(uint32_t Id) {
    Frontier &F = Frontiers[Id];
    F.Explored = true;
    if (!F.Member)
      F.Words = {};
  }

private:
  struct Frontier {
    std::vector<uint64_t> Words;
    uint32_t Pop;
    bool Member;
    bool Explored;
  };
  static constexpr uint32_t None = ~0u;

  /// The state of \p States held by the fewest frontiers so far.
  uint32_t rarest(const std::vector<uint32_t> &States) const {
    uint32_t Rarest = States.front();
    for (uint32_t Q : States)
      if (ByState[Q].size() < ByState[Rarest].size())
        Rarest = Q;
    return Rarest;
  }

  /// True iff every bit of \p A is also set in \p B.
  bool isSubset(const std::vector<uint64_t> &A,
                const std::vector<uint64_t> &B) const {
    for (size_t I = 0; I < NumWords; ++I)
      if (A[I] & ~B[I])
        return false;
    return true;
  }

  void leave(uint32_t Id) {
    Frontier &F = Frontiers[Id];
    F.Member = false;
    --Members;
    if (F.Explored)
      F.Words = {};
  }

  size_t NumWords;
  std::vector<Frontier> Frontiers;
  /// Per state: the members holding it, plus ids of former members.
  std::vector<std::vector<uint32_t>> ByState;
  /// Per state: exactly the members filed under it as their rarest state.
  std::vector<std::vector<uint32_t>> ByRarest;
  uint32_t EmptyMember = None;
  uint64_t Members = 0;
};

} // namespace

WidthBound boundActivationWidth(const Mfsa &Z, const WidthOptions &Options) {
  Timer Clock;
  WidthBound Bound;
  const uint32_t NumStates = Z.numStates();
  const uint32_t NumRules = Z.numRules();
  Bound.ReachableStates = DynamicBitset(NumStates);
  if (NumStates == 0 || Z.numTransitions() == 0) {
    Bound.Exact = true;
    Bound.WallMs = Clock.elapsedMs();
    return Bound;
  }

  // Deterministic alphabet atoms over the distinct transition labels, so
  // the branching factor is the number of symbol classes, not 256.
  std::vector<SymbolSet> Distinct;
  {
    std::unordered_set<SymbolSet, SymbolSetHash> Seen;
    for (const MfsaTransition &T : Z.transitions())
      if (Seen.insert(T.Label).second)
        Distinct.push_back(T.Label);
  }
  const std::vector<SymbolSet> Atoms = atomsOfLabels(Distinct);
  const uint32_t NumAtoms = static_cast<uint32_t>(Atoms.size());

  // Per-state (atom, successor) edges and per-atom initial-state injection
  // sets. A label that intersects an atom contains it (atoms refine labels),
  // so intersection is the membership test. Injection over-approximates the
  // engine: every rule's initial state injects at every offset, anchored or
  // not.
  const size_t NumWords = (NumStates + 63) / 64;
  std::vector<std::vector<std::pair<uint32_t, StateId>>> Edges(NumStates);
  std::vector<std::vector<uint64_t>> Inject(NumAtoms,
                                            std::vector<uint64_t>(NumWords));
  DynamicBitset IsInitial(NumStates);
  for (uint32_t R = 0; R < NumRules; ++R)
    IsInitial.set(Z.rule(R).Initial);
  for (const MfsaTransition &T : Z.transitions())
    for (uint32_t A = 0; A < NumAtoms; ++A) {
      if (!T.Label.intersects(Atoms[A]))
        continue;
      Edges[T.From].emplace_back(A, T.To);
      if (IsInitial.test(T.From))
        Inject[A][T.To >> 6] |= 1ULL << (T.To & 63);
    }

  // Per-state possible-rule sets: J(q) is always ⊆ the union of bel over
  // q's incoming arcs, because J only ever propagates through ∩ bel.
  std::vector<DynamicBitset> PossRules(NumStates, DynamicBitset(NumRules));
  for (const MfsaTransition &T : Z.transitions())
    PossRules[T.To] |= T.Bel;

  // Antichain-pruned reachability over ⊆-maximal frontiers, seeded with the
  // empty pre-scan frontier (see the soundness argument in CostModel.h).
  FrontierStore Store(NumStates);
  Store.addSeed(std::vector<uint64_t>(NumWords));
  std::vector<std::vector<uint64_t>> Succ(NumAtoms);
  std::vector<uint32_t> States;
  DynamicBitset RuleUnion(NumRules);
  std::vector<uint64_t> &Reachable = Bound.ReachableStates.words();
  bool Budgeted = false;

  for (uint32_t Next = 0; Next < Store.size(); ++Next) {
    if (Options.MaxMacrostates &&
        Bound.MacrostatesExplored >= Options.MaxMacrostates) {
      Budgeted = true;
      break;
    }
    ++Bound.MacrostatesExplored;

    // Every atom's successor in one pass over S's states and their edges.
    const std::vector<uint64_t> &S = Store.words(Next);
    for (uint32_t A = 0; A < NumAtoms; ++A)
      Succ[A] = Inject[A];
    uint32_t Width = 0;
    RuleUnion.clear();
    for (size_t W = 0; W < NumWords; ++W)
      for (uint64_t Bits = S[W]; Bits; Bits &= Bits - 1) {
        const uint32_t Q =
            static_cast<uint32_t>(W * 64 + __builtin_ctzll(Bits));
        ++Width;
        RuleUnion |= PossRules[Q];
        for (const auto &[A, To] : Edges[Q])
          Succ[A][To >> 6] |= 1ULL << (To & 63);
      }
    Store.markExplored(Next);
    Bound.MaxActiveStates = std::max(Bound.MaxActiveStates, Width);
    if (Width)
      Bound.MaxActiveRules = std::max(
          Bound.MaxActiveRules, static_cast<uint32_t>(RuleUnion.count()));

    for (uint32_t A = 0; A < NumAtoms; ++A) {
      States.clear();
      for (size_t W = 0; W < NumWords; ++W)
        for (uint64_t Bits = Succ[A][W]; Bits; Bits &= Bits - 1)
          States.push_back(
              static_cast<uint32_t>(W * 64 + __builtin_ctzll(Bits)));
      if (Store.dominated(Succ[A], States))
        continue;
      // Every reachable frontier is ⊆ some kept (pushed) one, so the union
      // over pushed frontiers covers every state that can ever be active.
      for (size_t W = 0; W < NumWords; ++W)
        Reachable[W] |= Succ[A][W];
      Store.insert(std::move(Succ[A]), States);
      Bound.AntichainPeak = std::max(Bound.AntichainPeak, Store.numMembers());
    }
  }

  if (Budgeted) {
    // Budget exhausted: substitute the trivial (still sound) bound.
    Bound.MaxActiveStates = NumStates;
    Bound.MaxActiveRules = NumRules;
    for (uint32_t S = 0; S < NumStates; ++S)
      Bound.ReachableStates.set(S);
    Bound.Exact = false;
  } else {
    Bound.Exact = true;
  }
  Bound.WallMs = Clock.elapsedMs();
  return Bound;
}

DfaEstimate probeDfaBlowup(const Mfsa &Z, const DfaProbeOptions &Options) {
  Timer Clock;
  DfaEstimate Est;
  const std::vector<Nfa> Fsas = Z.extractAllRules();
  std::vector<uint32_t> GlobalIds;
  GlobalIds.reserve(Z.numRules());
  for (RuleId R = 0; R < Z.numRules(); ++R)
    GlobalIds.push_back(Z.rule(R).GlobalId);

  DeterminizeOptions DetOpts;
  DetOpts.MaxStates = Options.MaxStates;
  Result<Dfa> Probe = determinize(Fsas, GlobalIds, DetOpts);
  if (Probe) {
    Est.Completed = true;
    Est.DfaStates = Probe->NumStates;
    Est.NumAtoms = Probe->NumAtoms;
    Est.Stride2Entries = static_cast<uint64_t>(Est.DfaStates) * Est.NumAtoms *
                         Est.NumAtoms;
    Est.Stride2Feasible =
        Est.NumAtoms > 0 && Est.Stride2Entries <= kMaxStride2Entries;
  } else {
    Est = blowupEstimate(Options);
  }
  Est.WallMs = Clock.elapsedMs();
  return Est;
}

DfaEstimate blowupEstimate(const DfaProbeOptions &Options) {
  // The proven blowup-before-budget fact: the real DFA has at least
  // MaxStates states.
  DfaEstimate Est;
  Est.Completed = false;
  Est.DfaStates = Options.MaxStates;
  Est.Stride2Feasible = false;
  return Est;
}

LiteralProfile profileLiterals(const Mfsa &Z,
                               const std::vector<std::string> &Patterns) {
  // Without patterns no rule is profiled, so none needs extracting.
  return profileLiterals(
      Z, Patterns.empty() ? std::vector<Nfa>() : Z.extractAllRules(),
      Patterns);
}

LiteralProfile profileLiterals(const Mfsa &Z, const std::vector<Nfa> &RuleFsas,
                               const std::vector<std::string> &Patterns) {
  LiteralProfile Profile;
  Profile.TotalRules = Z.numRules();
  if (Patterns.empty() || Z.numRules() == 0)
    return Profile;
  assert(RuleFsas.size() == Z.numRules() && "one automaton per rule");

  Profile.Rules.resize(Z.numRules());
  double LiteralLengthSum = 0.0;
  bool FirstByteSeen[256] = {};
  for (RuleId R = 0; R < Z.numRules(); ++R) {
    const uint32_t GlobalId = Z.rule(R).GlobalId;
    if (GlobalId >= Patterns.size())
      continue;
    Result<Regex> Re = parseRegex(Patterns[GlobalId]);
    if (!Re)
      continue;
    PrefilterInfo &Info = Profile.Rules[R];
    Info = analyzeForPrefilter(*Re, RuleFsas[R]);
    if (!Info.Prefilterable)
      continue;
    ++Profile.PrefilterableRules;
    LiteralLengthSum += static_cast<double>(Info.Literal.size());
    FirstByteSeen[static_cast<unsigned char>(Info.Literal[0])] = true;
  }

  Profile.PrefilterableFraction =
      static_cast<double>(Profile.PrefilterableRules) /
      static_cast<double>(Profile.TotalRules);
  if (Profile.PrefilterableRules)
    Profile.AvgLiteralLength =
        LiteralLengthSum / static_cast<double>(Profile.PrefilterableRules);
  for (bool Seen : FirstByteSeen)
    Profile.DistinctFirstBytes += Seen ? 1 : 0;
  Profile.RootSkipViable =
      Profile.DistinctFirstBytes >= 1 && Profile.DistinctFirstBytes <= 8;
  return Profile;
}

MfsaShape computeShape(const Mfsa &Z) {
  MfsaShape Shape;
  Shape.NumStates = Z.numStates();
  Shape.NumRules = Z.numRules();
  Shape.NumTransitions = Z.numTransitions();
  Shape.BelWords = (Z.numRules() + 63) / 64;
  uint64_t LabelBytes = 0;
  for (const MfsaTransition &T : Z.transitions())
    LabelBytes += T.Label.count();
  Shape.AvgTableRow = static_cast<double>(LabelBytes) / 256.0;
  return Shape;
}

void CostReport::recordTo(obs::MetricsRegistry &Registry) const {
  Registry.gauge("analysis.cost.dfa_probe_states")
      .set(static_cast<int64_t>(Dfa.DfaStates));
  Registry.gauge("analysis.cost.dfa_probe_completed").set(Dfa.Completed ? 1
                                                                        : 0);
  Registry.gauge("analysis.cost.dfa_probe_wall_ms")
      .set(static_cast<int64_t>(Dfa.WallMs));
  Registry.gauge("analysis.cost.dfa_probe_implied").set(Dfa.Implied ? 1 : 0);
  Registry.gauge("analysis.cost.prefilterable_rules")
      .set(static_cast<int64_t>(Literals.PrefilterableRules));
  Registry.gauge("analysis.cost.distinct_first_bytes")
      .set(static_cast<int64_t>(Literals.DistinctFirstBytes));
}

} // namespace mfsa
