//===- Reference.cpp - semantic oracles for testing -------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "fsa/Reference.h"

#include <algorithm>
#include <queue>

using namespace mfsa;

namespace {

/// Positional-set evaluator: maps a set of input positions to the set of
/// positions reachable after matching one AST node. Exact for regular
/// languages and terminates on ε-matching repeat bodies by fixpoint.
std::set<size_t> evalNode(const AstNode &Node, std::string_view Input,
                          const std::set<size_t> &Starts) {
  switch (Node.kind()) {
  case AstKind::Empty:
    return Starts;
  case AstKind::Symbols: {
    const SymbolSet &Set = static_cast<const SymbolsNode &>(Node).symbols();
    std::set<size_t> Out;
    for (size_t P : Starts)
      if (P < Input.size() &&
          Set.contains(static_cast<unsigned char>(Input[P])))
        Out.insert(P + 1);
    return Out;
  }
  case AstKind::Concat: {
    std::set<size_t> Current = Starts;
    for (const auto &Child :
         static_cast<const ConcatNode &>(Node).children()) {
      Current = evalNode(*Child, Input, Current);
      if (Current.empty())
        break;
    }
    return Current;
  }
  case AstKind::Alternate: {
    std::set<size_t> Out;
    for (const auto &Child :
         static_cast<const AlternateNode &>(Node).children()) {
      std::set<size_t> Branch = evalNode(*Child, Input, Starts);
      Out.insert(Branch.begin(), Branch.end());
    }
    return Out;
  }
  case AstKind::Repeat: {
    const auto &R = static_cast<const RepeatNode &>(Node);
    std::set<size_t> Result;
    if (R.min() == 0)
      Result = Starts; // zero repetitions

    // Frontier = positions reachable after exactly Min repetitions.
    std::set<size_t> Frontier = Starts;
    for (uint32_t I = 1; I <= R.min() && !Frontier.empty(); ++I)
      Frontier = evalNode(R.child(), Input, Frontier);

    if (R.isUnbounded()) {
      // ∪_{i>=Min} eval^i(Starts) = lfp(W := Frontier ∪ eval(W)). evalNode
      // distributes over set union, so each round evaluates only the
      // positions the previous round added (semi-naive iteration): every
      // position is evaluated once, and the fixpoint converges in at most
      // |Input|+2 rounds.
      std::set<size_t> W = Frontier;
      std::set<size_t> Added = Frontier;
      while (!Added.empty()) {
        std::set<size_t> Next;
        for (size_t P : evalNode(R.child(), Input, Added))
          if (W.insert(P).second)
            Next.insert(P);
        Added = std::move(Next);
      }
      Result.insert(W.begin(), W.end());
      return Result;
    }

    if (R.min() > 0)
      Result.insert(Frontier.begin(), Frontier.end()); // exactly Min
    for (uint32_t I = R.min() + 1; I <= R.max() && !Frontier.empty(); ++I) {
      Frontier = evalNode(R.child(), Input, Frontier);
      Result.insert(Frontier.begin(), Frontier.end());
    }
    return Result;
  }
  }
  return {};
}

} // namespace

std::set<size_t> mfsa::astMatchEnds(const Regex &Re, std::string_view Input) {
  std::set<size_t> Ends;
  size_t LastStart = Re.AnchoredStart ? 0 : Input.size();
  for (size_t Start = 0; Start <= LastStart && Start <= Input.size();
       ++Start) {
    std::set<size_t> Reached = evalNode(*Re.Root, Input, {Start});
    for (size_t End : Reached) {
      if (End == Start)
        continue; // zero-length matches are not reported
      if (Re.AnchoredEnd && End != Input.size())
        continue;
      Ends.insert(End);
    }
  }
  return Ends;
}

std::set<size_t> mfsa::simulateNfa(const Nfa &A, std::string_view Input) {
  // Precompute ε-adjacency and per-state symbolic transitions.
  std::vector<std::vector<StateId>> EpsOut(A.numStates());
  std::vector<std::vector<uint32_t>> SymbolicOut(A.numStates());
  for (uint32_t I = 0, E = A.numTransitions(); I != E; ++I) {
    const Transition &T = A.transitions()[I];
    if (T.isEpsilon())
      EpsOut[T.From].push_back(T.To);
    else
      SymbolicOut[T.From].push_back(I);
  }
  std::vector<bool> FinalFlag(A.numStates(), false);
  for (StateId F : A.finals())
    FinalFlag[F] = true;

  // Expands Active in place to its ε-closure.
  auto Close = [&](std::vector<bool> &Active) {
    std::queue<StateId> Work;
    for (StateId Q = 0; Q < A.numStates(); ++Q)
      if (Active[Q])
        Work.push(Q);
    while (!Work.empty()) {
      StateId Q = Work.front();
      Work.pop();
      for (StateId R : EpsOut[Q])
        if (!Active[R]) {
          Active[R] = true;
          Work.push(R);
        }
    }
  };

  std::set<size_t> Ends;
  std::vector<bool> Active(A.numStates(), false);
  std::vector<bool> Next(A.numStates(), false);
  for (size_t P = 0; P < Input.size(); ++P) {
    // Unanchored matching injects a fresh attempt at every offset;
    // start-anchored automata inject at offset 0 only.
    if (!A.anchoredStart() || P == 0) {
      Active[A.initial()] = true;
    }
    Close(Active);
    std::fill(Next.begin(), Next.end(), false);
    unsigned char C = static_cast<unsigned char>(Input[P]);
    for (StateId Q = 0; Q < A.numStates(); ++Q) {
      if (!Active[Q])
        continue;
      for (uint32_t TIdx : SymbolicOut[Q]) {
        const Transition &T = A.transitions()[TIdx];
        if (T.Label.contains(C))
          Next[T.To] = true;
      }
    }
    Close(Next);
    // Report arrival in a final state after consuming Input[P].
    bool AtEnd = (P + 1 == Input.size());
    if (!A.anchoredEnd() || AtEnd)
      for (StateId Q = 0; Q < A.numStates(); ++Q)
        if (Next[Q] && FinalFlag[Q]) {
          Ends.insert(P + 1);
          break;
        }
    std::swap(Active, Next);
  }
  return Ends;
}
