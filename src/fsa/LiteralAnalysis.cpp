//===- LiteralAnalysis.cpp - mandatory-literal extraction ----------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "fsa/LiteralAnalysis.h"

#include <algorithm>
#include <cassert>
#include <vector>

using namespace mfsa;

namespace {

/// Linearized view of a concatenation: either one fixed character or an
/// opaque sub-expression (whose own mandatory literal may still be a
/// candidate, but cannot be joined into a surrounding run).
struct SequenceItem {
  bool IsChar = false;
  char Char = 0;
  const AstNode *Opaque = nullptr;
};

/// Flattens nested concatenations into character/opaque items. A Repeat
/// with min >= 1 whose body is a single fixed character contributes that
/// character `min` times followed by an opaque break when max > min.
void linearize(const AstNode &Node, std::vector<SequenceItem> &Out) {
  switch (Node.kind()) {
  case AstKind::Empty:
    return;
  case AstKind::Symbols: {
    const SymbolSet &Set = static_cast<const SymbolsNode &>(Node).symbols();
    SequenceItem Item;
    if (Set.isSingleton()) {
      Item.IsChar = true;
      Item.Char = static_cast<char>(Set.min());
    } else {
      Item.Opaque = &Node;
    }
    Out.push_back(Item);
    return;
  }
  case AstKind::Concat:
    for (const auto &Child : static_cast<const ConcatNode &>(Node).children())
      linearize(*Child, Out);
    return;
  case AstKind::Repeat: {
    const auto &R = static_cast<const RepeatNode &>(Node);
    if (R.min() >= 1 && R.child().kind() == AstKind::Symbols) {
      const SymbolSet &Set =
          static_cast<const SymbolsNode &>(R.child()).symbols();
      if (Set.isSingleton()) {
        SequenceItem Item;
        Item.IsChar = true;
        Item.Char = static_cast<char>(Set.min());
        for (uint32_t I = 0; I < R.min(); ++I)
          Out.push_back(Item);
        if (R.max() != R.min()) {
          SequenceItem Break;
          Break.Opaque = &Node; // the optional tail breaks the run
          Out.push_back(Break);
        }
        return;
      }
    }
    SequenceItem Item;
    Item.Opaque = &Node;
    Out.push_back(Item);
    return;
  }
  case AstKind::Alternate: {
    SequenceItem Item;
    Item.Opaque = &Node;
    Out.push_back(Item);
    return;
  }
  }
}

} // namespace

std::string mfsa::mandatoryLiteral(const AstNode &Node) {
  switch (Node.kind()) {
  case AstKind::Empty:
    return {};
  case AstKind::Symbols: {
    const SymbolSet &Set = static_cast<const SymbolsNode &>(Node).symbols();
    if (Set.isSingleton())
      return std::string(1, static_cast<char>(Set.min()));
    return {};
  }
  case AstKind::Repeat: {
    const auto &R = static_cast<const RepeatNode &>(Node);
    if (R.min() == 0)
      return {}; // the body may be skipped entirely
    return mandatoryLiteral(R.child());
  }
  case AstKind::Alternate: {
    // Sound only when every branch provably contains the same literal.
    const auto &Children =
        static_cast<const AlternateNode &>(Node).children();
    std::string Common = mandatoryLiteral(*Children.front());
    if (Common.empty())
      return {};
    for (size_t I = 1; I < Children.size(); ++I)
      if (mandatoryLiteral(*Children[I]) != Common)
        return {};
    return Common;
  }
  case AstKind::Concat: {
    std::vector<SequenceItem> Sequence;
    linearize(Node, Sequence);
    std::string Best;
    std::string Run;
    auto Consider = [&](const std::string &Candidate) {
      if (Candidate.size() > Best.size())
        Best = Candidate;
    };
    for (const SequenceItem &Item : Sequence) {
      if (Item.IsChar) {
        Run.push_back(Item.Char);
        continue;
      }
      Consider(Run);
      Run.clear();
      if (Item.Opaque)
        Consider(mandatoryLiteral(*Item.Opaque));
    }
    Consider(Run);
    return Best;
  }
  }
  return {};
}

uint32_t mfsa::boundedMatchLength(const Nfa &A) {
  assert(!A.hasEpsilons() && "boundedMatchLength requires ε-free automata");
  const uint32_t N = A.numStates();
  std::vector<std::vector<StateId>> Adj(N);
  std::vector<uint32_t> InDegree(N, 0);
  for (const Transition &T : A.transitions()) {
    Adj[T.From].push_back(T.To);
    ++InDegree[T.To];
  }

  // Kahn topological order; leftovers mean a cycle (unbounded matches).
  std::vector<StateId> Order;
  Order.reserve(N);
  std::vector<uint32_t> Degree = InDegree;
  for (StateId Q = 0; Q < N; ++Q)
    if (Degree[Q] == 0)
      Order.push_back(Q);
  for (size_t Head = 0; Head < Order.size(); ++Head)
    for (StateId To : Adj[Order[Head]])
      if (--Degree[To] == 0)
        Order.push_back(To);
  if (Order.size() != N)
    return 0;

  // Longest path from the initial state to any final state.
  constexpr int64_t Unreachable = -1;
  std::vector<int64_t> Longest(N, Unreachable);
  Longest[A.initial()] = 0;
  for (StateId Q : Order) {
    if (Longest[Q] == Unreachable)
      continue;
    for (StateId To : Adj[Q])
      Longest[To] = std::max(Longest[To], Longest[Q] + 1);
  }
  int64_t Bound = 0;
  for (StateId F : A.finals())
    Bound = std::max(Bound, Longest[F]);
  return static_cast<uint32_t>(Bound);
}

PrefilterInfo mfsa::analyzeForPrefilter(const Regex &Re,
                                        const Nfa &OptimizedFsa) {
  PrefilterInfo Info;
  if (Re.AnchoredStart || Re.AnchoredEnd)
    return Info; // windowed rescanning would break anchor semantics
  Info.Literal = mandatoryLiteral(*Re.Root);
  if (Info.Literal.size() < MinPrefilterLiteralLength)
    return Info;
  Info.MaxMatchLength = boundedMatchLength(OptimizedFsa);
  if (Info.MaxMatchLength == 0)
    return Info; // cyclic: windows would be unbounded
  Info.Prefilterable = true;
  return Info;
}
