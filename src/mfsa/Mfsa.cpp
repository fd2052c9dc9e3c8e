//===- Mfsa.cpp - Multi-RE finite state automaton ---------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "mfsa/Mfsa.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace mfsa;

void Mfsa::addTransition(StateId From, StateId To, const SymbolSet &Label,
                         DynamicBitset Bel) {
  assert(From < NumStatesValue && "transition from unknown state");
  assert(To < NumStatesValue && "transition to unknown state");
  assert(Bel.size() == numRules() && "belonging set width mismatch");
  assert(!Label.empty() && "MFSA transitions must be non-empty (no ε)");
  Transitions.push_back(MfsaTransition{From, To, Label, std::move(Bel)});
}

namespace {

constexpr StateId Unmapped = UINT32_MAX;

/// Builds the projection of the transitions \p ForEachIndex visits (in
/// ascending index order), renumbered compactly in first-touch order:
/// \p Initial first, so it exists even for a transition-less projection,
/// then every transition numbers its unseen target before its unseen
/// source. \p Finals that were reached become final; unreached ones are
/// dropped. \p NewId is all Unmapped on entry and is left so.
template <typename ForEachIndexT>
Nfa project(const std::vector<MfsaTransition> &Transitions,
            ForEachIndexT ForEachIndex, StateId Initial,
            const std::vector<StateId> &Finals, std::vector<StateId> &NewId,
            std::vector<StateId> &Touched) {
  Nfa Out;
  auto MapState = [&](StateId S) {
    if (NewId[S] == Unmapped) {
      NewId[S] = Out.addState();
      Touched.push_back(S);
    }
    return NewId[S];
  };

  Out.setInitial(MapState(Initial));
  ForEachIndex([&](uint32_t I) {
    const MfsaTransition &T = Transitions[I];
    const StateId To = MapState(T.To);
    const StateId From = MapState(T.From);
    Out.addTransition(From, To, T.Label);
  });
  for (StateId F : Finals)
    if (NewId[F] != Unmapped)
      Out.addFinal(NewId[F]);
  for (StateId S : Touched)
    NewId[S] = Unmapped;
  Touched.clear();
  Out.canonicalize();
  return Out;
}

} // namespace

Nfa Mfsa::extractRule(RuleId Id) const {
  assert(Id < numRules() && "unknown rule");
  const RuleInfo &Info = Rules[Id];
  std::vector<StateId> NewId(NumStatesValue, Unmapped);
  std::vector<StateId> Touched;
  Nfa Out = project(
      Transitions,
      [&](auto Visit) {
        for (uint32_t I = 0, E = numTransitions(); I != E; ++I)
          if (Transitions[I].Bel.test(Id))
            Visit(I);
      },
      Info.Initial, Info.Finals, NewId, Touched);
  Out.setAnchors(Info.AnchoredStart, Info.AnchoredEnd);
  return Out;
}

std::vector<Nfa> Mfsa::extractAllRules() const {
  // Bucket transition indices by rule in one pass over the belonging sets;
  // rule R's transitions are ByRule[Begin[R] .. Begin[R + 1]), ascending.
  std::vector<uint32_t> Begin(numRules() + 1, 0);
  for (const MfsaTransition &T : Transitions)
    T.Bel.forEach([&](unsigned R) { ++Begin[R + 1]; });
  for (RuleId R = 0; R < numRules(); ++R)
    Begin[R + 1] += Begin[R];
  std::vector<uint32_t> ByRule(Begin.back());
  std::vector<uint32_t> Fill(Begin.begin(), Begin.end() - 1);
  for (uint32_t I = 0, E = numTransitions(); I != E; ++I)
    Transitions[I].Bel.forEach([&](unsigned R) { ByRule[Fill[R]++] = I; });

  std::vector<StateId> NewId(NumStatesValue, Unmapped);
  std::vector<StateId> Touched;
  std::vector<Nfa> Out;
  Out.reserve(numRules());
  for (RuleId R = 0; R < numRules(); ++R) {
    const RuleInfo &Info = Rules[R];
    Out.push_back(project(
        Transitions,
        [&](auto Visit) {
          for (uint32_t K = Begin[R]; K != Begin[R + 1]; ++K)
            Visit(ByRule[K]);
        },
        Info.Initial, Info.Finals, NewId, Touched));
    Out.back().setAnchors(Info.AnchoredStart, Info.AnchoredEnd);
  }
  return Out;
}

std::string Mfsa::verifyAgainstInputs(const std::vector<Nfa> &Inputs) const {
  if (Inputs.size() != numRules())
    return "input count does not match rule count";
  const std::vector<Nfa> Subs = extractAllRules();
  for (RuleId Id = 0; Id < numRules(); ++Id) {
    const Nfa &Sub = Subs[Id];
    if (Sub.numStates() != Inputs[Id].numStates())
      return "rule " + std::to_string(Id) + ": state count diverged";
    if (Sub.numTransitions() != Inputs[Id].numTransitions())
      return "rule " + std::to_string(Id) + ": transition count diverged";
  }
  return {};
}

std::string Mfsa::verify() const {
  for (const MfsaTransition &T : Transitions) {
    if (T.From >= NumStatesValue || T.To >= NumStatesValue)
      return "transition references an unknown state";
    if (T.Label.empty())
      return "transition with empty (ε) label";
    if (T.Bel.size() != numRules())
      return "belonging set width mismatch";
    if (T.Bel.none())
      return "transition belonging to no rule";
  }
  for (RuleId Id = 0; Id < numRules(); ++Id) {
    const RuleInfo &Info = Rules[Id];
    if (Info.Initial >= NumStatesValue && NumStatesValue > 0)
      return "rule initial state out of range";
    for (StateId F : Info.Finals)
      if (F >= NumStatesValue)
        return "rule final state out of range";
  }
  // Parallel duplicate (From, To, Label) arcs must have been coalesced into
  // one arc with a merged belonging set; duplicates would double-count
  // matches in the engine.
  std::map<std::tuple<StateId, StateId, SymbolSet>, unsigned> SeenArcs;
  for (const MfsaTransition &T : Transitions)
    if (++SeenArcs[{T.From, T.To, T.Label}] > 1)
      return "duplicate parallel transition (same from/to/label)";
  return {};
}

std::string Mfsa::writeDot(const std::string &Name) const {
  std::string Out = "digraph \"" + Name + "\" {\n  rankdir=LR;\n";
  for (RuleId Id = 0; Id < numRules(); ++Id) {
    const RuleInfo &Info = Rules[Id];
    Out += "  // rule " + std::to_string(Id) + ": initial " +
           std::to_string(Info.Initial) + "\n";
    for (StateId F : Info.Finals)
      Out += "  " + std::to_string(F) + " [shape=doublecircle];\n";
  }
  for (const MfsaTransition &T : Transitions) {
    std::string Bel;
    T.Bel.forEach([&](unsigned Rule) {
      if (!Bel.empty())
        Bel += ",";
      Bel += std::to_string(Rule);
    });
    std::string Label = T.Label.toString() + " {" + Bel + "}";
    std::string Escaped;
    for (char C : Label) {
      if (C == '"' || C == '\\')
        Escaped.push_back('\\');
      Escaped.push_back(C);
    }
    Out += "  " + std::to_string(T.From) + " -> " + std::to_string(T.To) +
           " [label=\"" + Escaped + "\"];\n";
  }
  Out += "}\n";
  return Out;
}

MfsaSetStats mfsa::computeSetStats(const std::vector<Mfsa> &Set) {
  MfsaSetStats S;
  for (const Mfsa &Z : Set) {
    S.TotalStates += Z.numStates();
    S.TotalTransitions += Z.numTransitions();
  }
  return S;
}

double mfsa::compressionPercent(uint64_t Baseline, uint64_t Merged) {
  if (Baseline == 0)
    return 0.0;
  return (static_cast<double>(Baseline) - static_cast<double>(Merged)) /
         static_cast<double>(Baseline) * 100.0;
}
