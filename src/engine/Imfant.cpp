//===- Imfant.cpp - iMFAnt execution engine ----------------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/Imfant.h"

#include "analysis/Verifier.h"
#include "fsa/AlphabetPartition.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <unordered_map>

using namespace mfsa;

namespace {

/// Hash for a block of words, used to deduplicate belonging sets and class
/// rows.
struct BlockHash {
  template <typename WordT>
  size_t operator()(const std::vector<WordT> &Block) const {
    uint64_t H = 0x9e3779b97f4a7c15ULL;
    for (uint64_t W : Block) {
      H ^= W + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
      H *= 0xbf58476d1ce4e5b9ULL;
    }
    return static_cast<size_t>(H);
  }
};

} // namespace

ImfantEngine::ImfantEngine(const Mfsa &Z)
    : NumStates(Z.numStates()), NumRules(Z.numRules()),
      Words((Z.numRules() + 63) / 64) {
  assert(NumRules > 0 && "engine over an MFSA with no rules");

  // Verifier hook (LLVM-style): the pre-processing below indexes states and
  // copies belonging words without per-element checks, so a corrupt MFSA
  // must be rejected here, not silently turned into out-of-bounds reads.
  // Debug configurations run the full verifier; all builds run the cheap
  // structural subset the table construction actually relies on.
#ifdef MFSA_VERIFY_EACH_DEFAULT
  {
    std::string Violation = verifyMfsaError(Z);
    if (!Violation.empty()) {
      std::fprintf(stderr, "mfsa: ImfantEngine rejected MFSA: %s\n",
                   Violation.c_str());
      std::abort();
    }
  }
#else
  for (const MfsaTransition &T : Z.transitions())
    if (T.From >= NumStates || T.To >= NumStates ||
        T.Bel.size() != NumRules) {
      std::fprintf(stderr,
                   "mfsa: ImfantEngine rejected MFSA: %s\n",
                   verifyMfsaError(Z).c_str());
      std::abort();
    }
#endif

  // Deduplicate belonging sets into a pool; MFSAs built from similar rules
  // reuse few distinct sets, so the pool stays small.
  std::unordered_map<std::vector<uint64_t>, uint32_t, BlockHash> BelIndex;
  auto InternBel = [&](const DynamicBitset &Bel) -> uint32_t {
    std::vector<uint64_t> Block(Words, 0);
    std::copy(Bel.words().begin(), Bel.words().end(), Block.begin());
    auto [It, Fresh] =
        BelIndex.emplace(Block, static_cast<uint32_t>(BelIndex.size()));
    if (Fresh)
      BelPool.insert(BelPool.end(), Block.begin(), Block.end());
    return It->second;
  };

  // Byte classes: the alphabet partition the labels induce, so every label
  // is a union of classes. Each distinct label keeps the list of classes it
  // covers; an edge is stored once per class of its label.
  std::unordered_map<SymbolSet, uint32_t, SymbolSetHash> LabelIndex;
  std::vector<SymbolSet> Labels;
  std::vector<uint32_t> LabelOf(Z.transitions().size(), UINT32_MAX);
  for (size_t T = 0; T < Z.transitions().size(); ++T) {
    const SymbolSet &Label = Z.transitions()[T].Label;
    if (Label.empty())
      continue;
    auto [It, Fresh] =
        LabelIndex.emplace(Label, static_cast<uint32_t>(Labels.size()));
    if (Fresh)
      Labels.push_back(Label);
    LabelOf[T] = It->second;
  }
  const std::vector<SymbolSet> Atoms = computeAlphabetAtoms(Labels);
  NumClasses = static_cast<uint32_t>(Atoms.size());
  ClassOfByte.assign(SymbolSet::NumSymbols, 0);
  for (uint32_t K = 0; K < NumClasses; ++K)
    Atoms[K].forEach(
        [&](unsigned char C) { ClassOfByte[C] = static_cast<uint8_t>(K); });
  std::vector<uint32_t> ClassListBegin(Labels.size() + 1, 0);
  std::vector<uint8_t> ClassList;
  for (size_t L = 0; L < Labels.size(); ++L) {
    for (uint32_t K = 0; K < NumClasses; ++K)
      if (Labels[L].intersects(Atoms[K]))
        ClassList.push_back(static_cast<uint8_t>(K));
    ClassListBegin[L + 1] = static_cast<uint32_t>(ClassList.size());
  }

  // Class-indexed adjacency (propagation, Eq. 6). Per source state, count
  // its edges per class into a row of offsets, intern the row, then place
  // each edge in every class of its label.
  std::vector<uint32_t> OutBegin(NumStates + 1, 0);
  size_t NumEdges = 0;
  for (size_t T = 0; T < LabelOf.size(); ++T)
    if (const uint32_t L = LabelOf[T]; L != UINT32_MAX) {
      ++OutBegin[Z.transitions()[T].From + 1];
      NumEdges += ClassListBegin[L + 1] - ClassListBegin[L];
    }
  for (uint32_t S = 0; S < NumStates; ++S)
    OutBegin[S + 1] += OutBegin[S];
  std::vector<uint32_t> OutList(OutBegin[NumStates]);
  {
    std::vector<uint32_t> Fill(OutBegin.begin(), OutBegin.end() - 1);
    for (size_t T = 0; T < LabelOf.size(); ++T)
      if (LabelOf[T] != UINT32_MAX)
        OutList[Fill[Z.transitions()[T].From]++] = static_cast<uint32_t>(T);
  }
  std::unordered_map<std::vector<uint32_t>, uint32_t, BlockHash> RowIndex;
  std::vector<uint32_t> Row(NumClasses + 1);
  Edges.resize(NumEdges);
  StateIndex.resize(NumStates);
  uint32_t Base = 0;
  for (uint32_t S = 0; S < NumStates; ++S) {
    std::fill(Row.begin(), Row.end(), 0);
    for (uint32_t I = OutBegin[S]; I < OutBegin[S + 1]; ++I) {
      const uint32_t L = LabelOf[OutList[I]];
      for (uint32_t C = ClassListBegin[L]; C < ClassListBegin[L + 1]; ++C)
        ++Row[ClassList[C] + 1];
    }
    for (uint32_t K = 0; K < NumClasses; ++K)
      Row[K + 1] += Row[K];
    for (uint32_t I = OutBegin[S]; I < OutBegin[S + 1]; ++I) {
      const MfsaTransition &T = Z.transitions()[OutList[I]];
      const OutEdge Edge{T.To, InternBel(T.Bel)};
      const uint32_t L = LabelOf[OutList[I]];
      // Row[K] doubles as class K's fill cursor; the shift is undone below.
      for (uint32_t C = ClassListBegin[L]; C < ClassListBegin[L + 1]; ++C)
        Edges[Base + Row[ClassList[C]]++] = Edge;
    }
    std::copy_backward(Row.begin(), Row.end() - 1, Row.end());
    Row[0] = 0;
    auto It = RowIndex.find(Row);
    if (It == RowIndex.end()) {
      It = RowIndex.emplace(Row, static_cast<uint32_t>(ClassRows.size()))
               .first;
      ClassRows.insert(ClassRows.end(), Row.begin(), Row.end());
    }
    StateIndex[S] = StateEdges{Base, It->second};
    Base += Row[NumClasses];
  }

  // Per-state activation metadata; the initial-rule blocks and the start
  // anchor mask only feed the injection lists below.
  std::vector<uint64_t> InitialRules(static_cast<size_t>(NumStates) * Words,
                                     0);
  std::vector<uint64_t> NotAnchoredStartMask(Words, ~0ULL);
  FinalRules.assign(static_cast<size_t>(NumStates) * Words, 0);
  FinalAny.assign(NumStates, 0);
  NotAnchoredEndMask.assign(Words, ~0ULL);
  GlobalIds.resize(NumRules);

  for (RuleId Rule = 0; Rule < NumRules; ++Rule) {
    const Mfsa::RuleInfo &Info = Z.rule(Rule);
    GlobalIds[Rule] = Info.GlobalId;
    InitialRules[static_cast<size_t>(Info.Initial) * Words + Rule / 64] |=
        1ULL << (Rule % 64);
    for (StateId F : Info.Finals) {
      FinalRules[static_cast<size_t>(F) * Words + Rule / 64] |=
          1ULL << (Rule % 64);
      FinalAny[F] = 1;
    }
    if (Info.AnchoredStart)
      NotAnchoredStartMask[Rule / 64] &= ~(1ULL << (Rule % 64));
    if (Info.AnchoredEnd)
      NotAnchoredEndMask[Rule / 64] &= ~(1ULL << (Rule % 64));
  }

  // Injection lists (Eq. 4): every transition out of a state hosting some
  // rule's initial state contributes Init(From) ∩ bel, split into its
  // unanchored part (injected at every offset) and its `^` part (offset 0
  // only), to each class its label covers. Contributions are merged per
  // (class, destination).
  std::vector<StateId> SourceTo;
  std::vector<uint64_t> SourceMasks; ///< Per source: unanchored, then `^`.
  std::vector<std::vector<uint32_t>> SourcesOfClass(NumClasses);
  for (size_t T = 0; T < LabelOf.size(); ++T) {
    const MfsaTransition &Tr = Z.transitions()[T];
    const uint64_t *Init = &InitialRules[static_cast<size_t>(Tr.From) * Words];
    bool Any = false;
    for (uint32_t I = 0; I < Words; ++I)
      Any = Any || (Init[I] & Tr.Bel.words()[I]);
    const uint32_t L = LabelOf[T];
    if (!Any || L == UINT32_MAX)
      continue;
    for (uint32_t C = ClassListBegin[L]; C < ClassListBegin[L + 1]; ++C)
      SourcesOfClass[ClassList[C]].push_back(
          static_cast<uint32_t>(SourceTo.size()));
    SourceTo.push_back(Tr.To);
    for (uint32_t I = 0; I < Words; ++I)
      SourceMasks.push_back(Init[I] & Tr.Bel.words()[I] &
                            NotAnchoredStartMask[I]);
    for (uint32_t I = 0; I < Words; ++I)
      SourceMasks.push_back(Init[I] & Tr.Bel.words()[I] &
                            ~NotAnchoredStartMask[I]);
  }

  // Lists are built one at a time: Add merges a contribution into its
  // destination's entry of the open list, Close ends the list.
  std::vector<uint32_t> SlotOf(NumStates, UINT32_MAX);
  auto Add = [&](InjectionList &List, StateId To, const uint64_t *Mask) {
    if (std::all_of(Mask, Mask + Words, [](uint64_t X) { return !X; }))
      return;
    if (SlotOf[To] == UINT32_MAX) {
      SlotOf[To] = static_cast<uint32_t>(List.To.size());
      List.To.push_back(To);
      List.Masks.resize(List.Masks.size() + Words, 0);
    }
    uint64_t *Dst = &List.Masks[static_cast<size_t>(SlotOf[To]) * Words];
    for (uint32_t I = 0; I < Words; ++I)
      Dst[I] |= Mask[I];
  };
  auto Close = [&](InjectionList &List) {
    for (uint32_t I = List.Offsets.back(); I < List.To.size(); ++I)
      SlotOf[List.To[I]] = UINT32_MAX;
    List.Offsets.push_back(static_cast<uint32_t>(List.To.size()));
  };
  auto AddSources = [&](InjectionList &List, uint32_t K, uint32_t Part) {
    for (uint32_t Src : SourcesOfClass[K])
      Add(List, SourceTo[Src],
          &SourceMasks[(2 * static_cast<size_t>(Src) + Part) * Words]);
  };

  // One-byte injections: a row per class that injects something.
  InjectRowOf.assign(NumClasses, NoRow);
  Inject.Offsets = {0};
  for (uint32_t K = 0; K < NumClasses; ++K) {
    AddSources(Inject, K, 0);
    if (Inject.To.size() == Inject.Offsets.back())
      continue;
    InjectRowOf[K] = static_cast<uint32_t>(Inject.Offsets.size() - 1);
    Close(Inject);
  }
  const uint32_t NumRows = static_cast<uint32_t>(Inject.Offsets.size() - 1);

  // Pair lists: row r's entries propagated over class K2's out-edges (Eq.
  // 6 on the injected masks), and the rules row r completes on its byte.
  Pairs.Offsets = {0};
  OneByteFinals.assign(static_cast<size_t>(NumRows) * Words, 0);
  std::vector<uint64_t> Crossed(Words);
  for (uint32_t R = 0; R < NumRows; ++R) {
    for (uint32_t K2 = 0; K2 < NumClasses; ++K2) {
      for (uint32_t Entry = Inject.Offsets[R]; Entry < Inject.Offsets[R + 1];
           ++Entry) {
        const uint64_t *Mask =
            &Inject.Masks[static_cast<size_t>(Entry) * Words];
        const StateEdges Where = StateIndex[Inject.To[Entry]];
        const uint32_t *Row = &ClassRows[Where.RowBase + K2];
        for (uint32_t E = Where.EdgeBase + Row[0];
             E < Where.EdgeBase + Row[1]; ++E) {
          const uint64_t *Bel =
              &BelPool[static_cast<size_t>(Edges[E].BelIdx) * Words];
          for (uint32_t I = 0; I < Words; ++I)
            Crossed[I] = Mask[I] & Bel[I];
          Add(Pairs, Edges[E].To, Crossed.data());
        }
      }
      Close(Pairs);
    }
    for (uint32_t Entry = Inject.Offsets[R]; Entry < Inject.Offsets[R + 1];
         ++Entry) {
      const uint64_t *Mask = &Inject.Masks[static_cast<size_t>(Entry) * Words];
      const uint64_t *Fin =
          &FinalRules[static_cast<size_t>(Inject.To[Entry]) * Words];
      for (uint32_t I = 0; I < Words; ++I)
        OneByteFinals[static_cast<size_t>(R) * Words + I] |= Mask[I] & Fin[I];
    }
  }

  // `^` injections, one list per class; an empty list keeps no offsets
  // (the scan loop checks To.empty()).
  InjectAtStart.Offsets = {0};
  for (uint32_t K = 0; K < NumClasses; ++K) {
    AddSources(InjectAtStart, K, 1);
    Close(InjectAtStart);
  }
  if (InjectAtStart.To.empty())
    InjectAtStart.Offsets.clear();
  for (InjectionList *List : {&Inject, &Pairs, &InjectAtStart}) {
    List->Offsets.shrink_to_fit();
    List->To.shrink_to_fit();
    List->Masks.shrink_to_fit();
  }
}

void ImfantEngine::setMetrics(obs::MetricsRegistry *Registry) {
  if (!Registry) {
    Metrics = ScanMetricHandles{};
    return;
  }
  Metrics.Bytes = &Registry->counter("imfant.bytes_scanned");
  Metrics.Transitions = &Registry->counter("imfant.transitions_touched");
  Metrics.Matches = &Registry->counter("imfant.matches");
  Metrics.Frontier =
      &Registry->histogram("imfant.frontier_size", obs::pow2Buckets(12));
  Metrics.ActiveRules =
      &Registry->histogram("imfant.active_rules", obs::pow2Buckets(12));
  Metrics.TransitionsPerByte =
      &Registry->histogram("imfant.transitions_per_byte",
                           obs::pow2Buckets(14));
  Registry->gauge("imfant.states").set(NumStates);
  Registry->gauge("imfant.rules").set(NumRules);
}

size_t ImfantEngine::footprintBytes() const {
  return ClassOfByte.size() + Edges.size() * sizeof(OutEdge) +
         StateIndex.size() * sizeof(StateEdges) + ClassRows.size() * 4 +
         (BelPool.size() + FinalRules.size() + NotAnchoredEndMask.size()) *
             8 +
         Inject.bytes() + Pairs.bytes() + InjectAtStart.bytes() +
         InjectRowOf.size() * 4 + OneByteFinals.size() * 8 + FinalAny.size() +
         GlobalIds.size() * 4;
}

void ImfantEngine::run(std::string_view Input, MatchRecorder &Recorder,
                       RunStats *Stats) const {
  Scanner Scan(*this);
  Scan.feed(Input, Recorder, Stats);
  Scan.finish(Recorder);
}

//===----------------------------------------------------------------------===//
// Scanner
//===----------------------------------------------------------------------===//

ImfantEngine::Scanner::Scanner(const ImfantEngine &Engine)
    : Engine(Engine),
      CurJ(static_cast<size_t>(Engine.NumStates) * Engine.Words),
      NextJ(static_cast<size_t>(Engine.NumStates) * Engine.Words),
      Stamp(Engine.NumStates, 0), CurFrontier(Engine.NumStates),
      NextFrontier(Engine.NumStates), FinalArrivals(Engine.NumStates),
      PendingAtEnd(Engine.Words, 0) {}

void ImfantEngine::Scanner::reset() {
  ++Gen;
  CurSize = 0;
  Deferred = NoRow;
  AbsoluteOffset = 0;
  Finished = false;
  InjectionEnabled = true;
  std::fill(PendingAtEnd.begin(), PendingAtEnd.end(), 0);
}

void ImfantEngine::Scanner::startAt(uint64_t Offset) {
  assert(!Finished && AbsoluteOffset == 0 && CurSize == 0 &&
         Deferred == NoRow &&
         "startAt() on a scanner that already consumed input");
  AbsoluteOffset = Offset;
}

void ImfantEngine::Scanner::setInjection(bool Enabled) {
  InjectionEnabled = Enabled;
}

void ImfantEngine::Scanner::seedActivation(const ActivationSet &Config) {
  assert(Config.empty() || Config.Words == Engine.Words);
  const uint32_t W = Engine.Words;
  for (size_t I = 0; I < Config.States.size(); ++I) {
    const StateId S = Config.States[I];
    assert(S < Engine.NumStates && "activation state out of range");
    const uint64_t *Src = Config.block(I);
    if (std::all_of(Src, Src + W, [](uint64_t X) { return X == 0; }))
      continue;
    uint64_t *Dst = &CurJ[static_cast<size_t>(S) * W];
    if (Stamp[S] == Gen) {
      for (uint32_t Wd = 0; Wd < W; ++Wd)
        Dst[Wd] |= Src[Wd];
    } else {
      std::copy(Src, Src + W, Dst);
      Stamp[S] = Gen;
      CurFrontier[CurSize++] = S;
    }
  }
}

ActivationSet ImfantEngine::Scanner::captureActivation() const {
  ActivationSet Out;
  const uint32_t W = Engine.Words;
  Out.Words = W;
  for (uint32_t I = 0; I < CurSize; ++I) {
    const StateId S = CurFrontier[I];
    const uint64_t *J = &CurJ[static_cast<size_t>(S) * W];
    if (std::all_of(J, J + W, [](uint64_t X) { return X == 0; }))
      continue;
    Out.States.push_back(S);
    Out.RuleBlocks.insert(Out.RuleBlocks.end(), J, J + W);
  }
  if (Deferred == NoRow)
    return Out;
  // The deferred states: a state the frontier already holds gets the mask
  // ORed into its block, any other is appended.
  const InjectionList &List = Engine.Inject;
  for (uint32_t Entry = List.Offsets[Deferred];
       Entry < List.Offsets[Deferred + 1]; ++Entry) {
    const StateId S = List.To[Entry];
    const uint64_t *Mask = &List.Masks[static_cast<size_t>(Entry) * W];
    size_t At = Out.States.size();
    if (Stamp[S] == Gen)
      At = static_cast<size_t>(
          std::find(Out.States.begin(), Out.States.end(), S) -
          Out.States.begin());
    if (At == Out.States.size()) {
      Out.States.push_back(S);
      Out.RuleBlocks.insert(Out.RuleBlocks.end(), Mask, Mask + W);
      continue;
    }
    for (uint32_t Wd = 0; Wd < W; ++Wd)
      Out.RuleBlocks[At * W + Wd] |= Mask[Wd];
  }
  return Out;
}

void ImfantEngine::Scanner::feed(std::string_view Chunk,
                                 MatchRecorder &Recorder, RunStats *Stats) {
  assert(!Finished && "feed() after finish()");
  if (!InjectionEnabled && frontierEmpty())
    return; // A dead frontier with injection off can never revive.
#if MFSA_METRICS_ENABLED
  const uint64_t MatchesBefore = Recorder.total();
  const uint64_t OffsetBefore = AbsoluteOffset;
#endif
  // Indexed by the fixed width; slot 0 is the runtime-width loop.
  static constexpr void (Scanner::*Loops[])(std::string_view, MatchRecorder &,
                                            RunStats *) = {
      &Scanner::feedLoop<0>, &Scanner::feedLoop<1>, &Scanner::feedLoop<2>,
      &Scanner::feedLoop<3>, &Scanner::feedLoop<4>, &Scanner::feedLoop<5>};
  const uint32_t W = Engine.Words;
  (this->*Loops[W < std::size(Loops) ? W : 0])(Chunk, Recorder, Stats);
#if MFSA_METRICS_ENABLED
  if (Engine.Metrics.Bytes) {
    // The injection-off early exit can consume less than the whole chunk.
    Engine.Metrics.Bytes->add(AbsoluteOffset - OffsetBefore);
    Engine.Metrics.Matches->add(Recorder.total() - MatchesBefore);
  }
#endif
}

namespace {

/// Blocks × W words of feedLoop<FixedW> scratch: a stack array when the
/// width is fixed (the unrolled word loops keep it in registers), else the
/// heap.
template <uint32_t FixedW, uint32_t Blocks> struct StepScratch {
  explicit StepScratch(uint32_t W) : W(W), Heap(FixedW > 0 ? 0 : Blocks * W) {}
  uint64_t *operator[](uint32_t Block) {
    return (FixedW > 0 ? Fixed : Heap.data()) + Block * W;
  }

  uint32_t W;
  uint64_t Fixed[FixedW > 0 ? Blocks * FixedW : 1] = {};
  std::vector<uint64_t> Heap;
};

} // namespace

template <uint32_t FixedW>
void ImfantEngine::Scanner::feedLoop(std::string_view Chunk,
                                     MatchRecorder &Recorder,
                                     RunStats *Stats) {
  const ImfantEngine &E = Engine;
  // Every J, bel, mask and final-rule block is W words; with a fixed W the
  // word loops below unroll into straight-line register ops.
  const uint32_t W = FixedW > 0 ? FixedW : E.Words;
  assert(W == E.Words && "dispatch mismatch");
  const bool Inject = InjectionEnabled;
  // Tables, buffers and scan state live in locals for the whole chunk: the
  // loop's 64-bit stores could otherwise alias the members they come from.
  const uint8_t *ClassOf = E.ClassOfByte.data();
  const OutEdge *Edges = E.Edges.data();
  const StateEdges *Index = E.StateIndex.data();
  const uint32_t *Rows = E.ClassRows.data();
  const uint64_t *Bels = E.BelPool.data();
  const uint8_t *FinalAny = E.FinalAny.data();
  const uint64_t *FinalRules = E.FinalRules.data();
  const uint64_t *NotEnd = E.NotAnchoredEndMask.data();
  const uint32_t *GlobalIds = E.GlobalIds.data();
  const uint32_t *InjectRowOf = E.InjectRowOf.data();
  const uint64_t *OneByteFinals = E.OneByteFinals.data();
  const uint32_t NumClasses = E.NumClasses;
  uint64_t *Stamps = Stamp.data();
  uint64_t *CurJs = CurJ.data(), *NextJs = NextJ.data();
  StateId *CurF = CurFrontier.data(), *NextF = NextFrontier.data();
  StateId *Finals = FinalArrivals.data();
  uint32_t CurCount = CurSize;
  uint32_t Pending = Deferred;
  uint64_t Generation = Gen;
  uint64_t Offset = AbsoluteOffset;
  size_t Consumed = Chunk.size();

  // Matched: the rules reported at this step's offset; Union: ∪ J(q) over
  // a frontier.
  StepScratch<FixedW, 2> Scratch(W);
  uint64_t *Matched = Scratch[0], *Union = Scratch[1];

  uint64_t ActiveRuleSum = 0;
  uint32_t ActiveRuleMax = 0;
  uint32_t FrontierMax = 0;
  uint64_t TransitionsEvaluated = 0;
  uint64_t ActiveStateSum = 0;
  uint64_t FinalProbeSum = 0;

#if MFSA_METRICS_ENABLED
  // Sampled distribution metrics: counters are exact, histograms observe
  // every SampleEvery-th byte (MetricsTick persists across chunks so the
  // cadence survives streaming feeds).
  const bool Observed = E.Metrics.Bytes != nullptr;
  const uint32_t SampleEvery = Observed ? obs::scanSampleEvery() : 0;
  uint64_t ChunkTransitions = 0;
#endif

  // Per-step arrival bookkeeping. The first arrival at a state in a step
  // stamps it and appends it to the next frontier, and to the final
  // arrivals when it is final; its caller then overwrites the state's
  // stale J slot instead of ORing into it.
  uint64_t NextGen = 0;
  uint32_t NextCount = 0, FinalCount = 0;
  auto Claim = [&](StateId To) {
    Stamps[To] = NextGen;
    NextF[NextCount++] = To;
    if (FinalAny[To])
      Finals[FinalCount++] = To;
  };
  // Applies list L of precomputed injections; returns the entry count.
  auto ApplyInjections = [&](const InjectionList &List, size_t L) {
    const uint32_t Begin = List.Offsets[L], End = List.Offsets[L + 1];
    for (uint32_t Entry = Begin; Entry < End; ++Entry) {
      const StateId To = List.To[Entry];
      const uint64_t *Mask = &List.Masks[static_cast<size_t>(Entry) * W];
      uint64_t *DstJ = &NextJs[static_cast<size_t>(To) * W];
      if (Stamps[To] != NextGen) {
        Claim(To);
        for (uint32_t I = 0; I < W; ++I)
          DstJ[I] = Mask[I];
      } else {
        for (uint32_t I = 0; I < W; ++I)
          DstJ[I] |= Mask[I];
      }
    }
    return End - Begin;
  };
  // The Table II values of the configuration after a step: the next
  // frontier plus the deferred one-byte injection of pair row \p Row.
  // |∪ J(q)| is the active-rule count.
  auto ActiveRuleCount = [&](uint32_t Row) {
    for (uint32_t I = 0; I < W; ++I)
      Union[I] = 0;
    for (uint32_t F = 0; F < NextCount; ++F) {
      const uint64_t *J = &NextJs[static_cast<size_t>(NextF[F]) * W];
      for (uint32_t I = 0; I < W; ++I)
        Union[I] |= J[I];
    }
    if (Row != NoRow)
      for (uint32_t Entry = E.Inject.Offsets[Row];
           Entry < E.Inject.Offsets[Row + 1]; ++Entry)
        for (uint32_t I = 0; I < W; ++I)
          Union[I] |= E.Inject.Masks[static_cast<size_t>(Entry) * W + I];
    uint32_t Count = 0;
    for (uint32_t I = 0; I < W; ++I)
      Count += static_cast<uint32_t>(__builtin_popcountll(Union[I]));
    return Count;
  };
  auto FrontierSize = [&](uint32_t Row) {
    uint32_t Count = NextCount;
    if (Row != NoRow)
      for (uint32_t Entry = E.Inject.Offsets[Row];
           Entry < E.Inject.Offsets[Row + 1]; ++Entry)
        Count += Stamps[E.Inject.To[Entry]] != NextGen;
    return Count;
  };

  for (size_t Pos = 0; Pos < Chunk.size(); ++Pos) {
    const uint32_t K = ClassOf[static_cast<unsigned char>(Chunk[Pos])];
    const bool AtStart = (Offset == 0);
    ++Offset;
    NextGen = Generation + 1;
    NextCount = 0;
    FinalCount = 0;
    uint64_t Examined = 0;

    // Propagation (Eq. 6): every active state sends J ∩ bel across each
    // out-edge of this symbol's class.
    const uint32_t *RowsAtClass = Rows + K;
    for (uint32_t F = 0; F < CurCount; ++F) {
      const StateId S = CurF[F];
      const StateEdges Where = Index[S];
      const uint32_t *Row = RowsAtClass + Where.RowBase;
      const OutEdge *Edge = Edges + Where.EdgeBase + Row[0];
      const OutEdge *End = Edges + Where.EdgeBase + Row[1];
      Examined += static_cast<uint64_t>(End - Edge);
      const uint64_t *Src = &CurJs[static_cast<size_t>(S) * W];
      for (; Edge != End; ++Edge) {
        const uint64_t *Bel = &Bels[static_cast<size_t>(Edge->BelIdx) * W];
        uint64_t Any = 0;
        for (uint32_t I = 0; I < W; ++I)
          Any |= Src[I] & Bel[I];
        if (!Any)
          continue;
        const StateId To = Edge->To;
        uint64_t *DstJ = &NextJs[static_cast<size_t>(To) * W];
        if (Stamps[To] != NextGen) {
          Claim(To);
          for (uint32_t I = 0; I < W; ++I)
            DstJ[I] = Src[I] & Bel[I];
        } else {
          for (uint32_t I = 0; I < W; ++I)
            DstJ[I] |= Src[I] & Bel[I];
        }
      }
    }

    // Injection (Eq. 4), two bytes at a time: the attempts the previous
    // byte began, propagated over this byte, then the `^` rules at offset
    // 0. This byte's own attempts are deferred to the next step.
    if (Pending != NoRow)
      Examined += ApplyInjections(
          E.Pairs, static_cast<size_t>(Pending) * NumClasses + K);
    if (Inject && AtStart && !E.InjectAtStart.To.empty())
      Examined += ApplyInjections(E.InjectAtStart, K);
    Pending = Inject ? InjectRowOf[K] : NoRow;

    // Match reporting (Eq. 5) over the final states this step reached and
    // the rules the deferred attempts complete on this byte: active rules
    // for which the state is final, once per rule and offset. `$`-anchored
    // rules wait: only the chunk's last step can hold them (see below).
    const uint64_t *OneByte =
        Pending != NoRow ? &OneByteFinals[static_cast<size_t>(Pending) * W]
                         : nullptr;
    if (FinalCount > 0 || OneByte) {
      for (uint32_t I = 0; I < W; ++I)
        Matched[I] = 0;
      for (uint32_t F = 0; F < FinalCount; ++F) {
        const StateId S = Finals[F];
        const uint64_t *J = &NextJs[static_cast<size_t>(S) * W];
        const uint64_t *Fin = &FinalRules[static_cast<size_t>(S) * W];
        for (uint32_t I = 0; I < W; ++I) {
          uint64_t Hits = J[I] & Fin[I] & NotEnd[I] & ~Matched[I];
          Matched[I] |= Hits;
          while (Hits) {
            unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Hits));
            Hits &= Hits - 1;
            Recorder.onMatch(GlobalIds[I * 64 + Bit], Offset);
          }
        }
      }
      for (uint32_t I = 0; OneByte && I < W; ++I) {
        uint64_t Hits = OneByte[I] & NotEnd[I] & ~Matched[I];
        while (Hits) {
          unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Hits));
          Hits &= Hits - 1;
          Recorder.onMatch(GlobalIds[I * 64 + Bit], Offset);
        }
      }
    }

    if (Stats) {
      TransitionsEvaluated += Examined;
      ActiveStateSum += CurCount;
      FinalProbeSum += FinalCount;
      const uint32_t ActiveRules = ActiveRuleCount(Pending);
      ActiveRuleSum += ActiveRules;
      ActiveRuleMax = std::max(ActiveRuleMax, ActiveRules);
      FrontierMax = std::max(FrontierMax, FrontierSize(Pending));
    }

#if MFSA_METRICS_ENABLED
    if (Observed) {
      ChunkTransitions += Examined;
      if (++MetricsTick >= SampleEvery) {
        MetricsTick = 0;
        E.Metrics.Frontier->observe(FrontierSize(Pending));
        E.Metrics.TransitionsPerByte->observe(Examined);
        E.Metrics.ActiveRules->observe(ActiveRuleCount(Pending));
      }
    }
#endif

    // The next frontier becomes current; nothing needs scrubbing.
    std::swap(CurJs, NextJs);
    std::swap(CurF, NextF);
    CurCount = NextCount;
    Generation = NextGen;

    // Pure-propagation mode: once the frontier dies nothing revives it, so
    // stop consuming (nothing is pending — no arrivals happened this step).
    // offset() reports the death position.
    if (!Inject && CurCount == 0) {
      Consumed = Pos + 1;
      break;
    }
  }

  if (CurJs != CurJ.data()) {
    CurJ.swap(NextJ);
    CurFrontier.swap(NextFrontier);
  }
  CurSize = CurCount;
  Deferred = Pending;
  Gen = Generation;
  AbsoluteOffset = Offset;

  // The `$` rules the last step matched, through its final states and its
  // deferred one-byte attempts: they report at finish() unless more input
  // follows. An empty chunk keeps the pending set of the previous one.
  if (!Chunk.empty()) {
    for (uint32_t I = 0; I < W; ++I)
      PendingAtEnd[I] = 0;
    for (uint32_t F = 0; F < FinalCount; ++F) {
      const StateId S = Finals[F];
      const uint64_t *J = &CurJ[static_cast<size_t>(S) * W];
      const uint64_t *Fin = &FinalRules[static_cast<size_t>(S) * W];
      for (uint32_t I = 0; I < W; ++I)
        PendingAtEnd[I] |= J[I] & Fin[I] & ~NotEnd[I];
    }
    for (uint32_t I = 0; Pending != NoRow && I < W; ++I)
      PendingAtEnd[I] |=
          OneByteFinals[static_cast<size_t>(Pending) * W + I] & ~NotEnd[I];
  }

#if MFSA_METRICS_ENABLED
  if (Observed)
    E.Metrics.Transitions->add(ChunkTransitions);
#endif

  if (Stats) {
    Stats->Steps += Consumed;
    Stats->TransitionsEvaluated += TransitionsEvaluated;
    Stats->ActiveStates += ActiveStateSum;
    Stats->FinalProbes += FinalProbeSum;
    Stats->MaxActiveRules = std::max(Stats->MaxActiveRules, ActiveRuleMax);
    Stats->MaxFrontier = std::max(Stats->MaxFrontier, FrontierMax);
    // Fold this chunk's mean into the running mean by weight.
    if (Stats->Steps > 0) {
      double PriorWeight = static_cast<double>(Stats->Steps - Consumed);
      Stats->AvgActiveRules =
          (Stats->AvgActiveRules * PriorWeight +
           static_cast<double>(ActiveRuleSum)) /
          static_cast<double>(Stats->Steps);
    }
  }
}

void ImfantEngine::Scanner::finish(MatchRecorder &Recorder) {
  assert(!Finished && "finish() called twice");
  Finished = true;
  for (uint32_t I = 0; I < Engine.Words; ++I) {
    uint64_t Hits = PendingAtEnd[I];
    while (Hits) {
      unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Hits));
      Hits &= Hits - 1;
      Recorder.onMatch(Engine.GlobalIds[I * 64 + Bit], AbsoluteOffset);
    }
  }
}
