//===- Imfant.cpp - iMFAnt execution engine ----------------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/Imfant.h"

#include "analysis/Verifier.h"
#include "obs/Metrics.h"
#include "support/SimdDispatch.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

using namespace mfsa;

namespace {

/// Hash for a Words-wide bitset block, used to deduplicate belonging sets.
struct BlockHash {
  size_t operator()(const std::vector<uint64_t> &Block) const {
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

  // Deduplicate belonging sets and labels into pools; MFSAs built from
  // similar rules reuse few distinct sets, so the pools stay small.
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
  std::unordered_map<SymbolSet, uint32_t, SymbolSetHash> LabelIndex;
  auto InternLabel = [&](const SymbolSet &Label) -> uint32_t {
    auto [It, Fresh] =
        LabelIndex.emplace(Label, static_cast<uint32_t>(LabelIndex.size()));
    if (Fresh)
      LabelPool.insert(LabelPool.end(), Label.words().begin(),
                       Label.words().end());
    return It->second;
  };

  // CSR adjacency by source state (propagation, Eq. 6). Empty-labelled
  // transitions never fire and are dropped.
  std::vector<uint32_t> Counts(NumStates + 1, 0);
  for (const MfsaTransition &T : Z.transitions())
    if (!T.Label.empty())
      ++Counts[T.From + 1];
  EdgeOffsets.assign(NumStates + 1, 0);
  for (uint32_t S = 0; S < NumStates; ++S)
    EdgeOffsets[S + 1] = EdgeOffsets[S] + Counts[S + 1];
  Edges.resize(EdgeOffsets[NumStates]);
  std::vector<uint32_t> Fill(EdgeOffsets.begin(), EdgeOffsets.end() - 1);
  for (const MfsaTransition &T : Z.transitions())
    if (!T.Label.empty())
      Edges[Fill[T.From]++] =
          OutEdge{T.To, InternBel(T.Bel), InternLabel(T.Label)};

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
  // only). Contributions are merged per (symbol, destination).
  std::vector<const MfsaTransition *> Sources;
  std::vector<uint64_t> SourceMasks; ///< Per source: unanchored, then `^`.
  for (const MfsaTransition &T : Z.transitions()) {
    const uint64_t *Init = &InitialRules[static_cast<size_t>(T.From) * Words];
    bool Any = false;
    for (uint32_t I = 0; I < Words; ++I)
      Any = Any || (Init[I] & T.Bel.words()[I]);
    if (!Any || T.Label.empty())
      continue;
    Sources.push_back(&T);
    for (uint32_t I = 0; I < Words; ++I)
      SourceMasks.push_back(Init[I] & T.Bel.words()[I] &
                            NotAnchoredStartMask[I]);
    for (uint32_t I = 0; I < Words; ++I)
      SourceMasks.push_back(Init[I] & T.Bel.words()[I] &
                            ~NotAnchoredStartMask[I]);
  }
  std::vector<uint32_t> SlotOf(NumStates, UINT32_MAX);
  auto BuildList = [&](InjectionList &List, uint32_t Part) {
    std::vector<uint32_t> Offsets(257, 0);
    for (unsigned C = 0; C < 256; ++C) {
      const uint32_t Begin = static_cast<uint32_t>(List.To.size());
      for (size_t Src = 0; Src < Sources.size(); ++Src) {
        const uint64_t *Mask = &SourceMasks[(2 * Src + Part) * Words];
        if (!Sources[Src]->Label.contains(static_cast<unsigned char>(C)) ||
            std::all_of(Mask, Mask + Words, [](uint64_t X) { return !X; }))
          continue;
        const StateId To = Sources[Src]->To;
        if (SlotOf[To] == UINT32_MAX) {
          SlotOf[To] = static_cast<uint32_t>(List.To.size());
          List.To.push_back(To);
          List.Masks.resize(List.Masks.size() + Words, 0);
        }
        uint64_t *Dst = &List.Masks[static_cast<size_t>(SlotOf[To]) * Words];
        for (uint32_t I = 0; I < Words; ++I)
          Dst[I] |= Mask[I];
      }
      for (uint32_t I = Begin; I < List.To.size(); ++I)
        SlotOf[List.To[I]] = UINT32_MAX;
      Offsets[C + 1] = static_cast<uint32_t>(List.To.size());
    }
    // An empty list keeps no offsets; the scan loop checks To.empty().
    if (!List.To.empty())
      List.Offsets = std::move(Offsets);
    List.To.shrink_to_fit();
    List.Masks.shrink_to_fit();
  };
  BuildList(Inject, 0);
  BuildList(InjectAtStart, 1);
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

std::vector<uint64_t> ImfantEngine::possibleRulesByState() const {
  std::vector<uint64_t> Out(static_cast<size_t>(NumStates) * Words, 0);
  for (const OutEdge &Edge : Edges) {
    uint64_t *Dst = &Out[static_cast<size_t>(Edge.To) * Words];
    const uint64_t *Bel = &BelPool[static_cast<size_t>(Edge.BelIdx) * Words];
    for (uint32_t I = 0; I < Words; ++I)
      Dst[I] |= Bel[I];
  }
  return Out;
}

size_t ImfantEngine::footprintBytes() const {
  return Edges.size() * sizeof(OutEdge) + EdgeOffsets.size() * 4 +
         (LabelPool.size() + BelPool.size() + FinalRules.size() +
          NotAnchoredEndMask.size()) *
             8 +
         Inject.bytes() + InjectAtStart.bytes() + FinalAny.size() +
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
    : Engine(Engine), CurActive(Engine.NumStates, 0),
      NextActive(Engine.NumStates, 0),
      CurJ(static_cast<size_t>(Engine.NumStates) * Engine.Words, 0),
      NextJ(static_cast<size_t>(Engine.NumStates) * Engine.Words, 0),
      MatchedThisStep(Engine.Words, 0), ActivationScratch(Engine.Words, 0),
      PendingAtEnd(Engine.Words, 0) {
  CurTouched.reserve(64);
  NextTouched.reserve(64);
}

void ImfantEngine::Scanner::startAt(uint64_t Offset) {
  assert(!Finished && AbsoluteOffset == 0 && CurTouched.empty() &&
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
    bool Any = false;
    uint64_t *Dst = &CurJ[static_cast<size_t>(S) * W];
    for (uint32_t Wd = 0; Wd < W; ++Wd) {
      Dst[Wd] |= Src[Wd];
      Any = Any || Src[Wd] != 0;
    }
    if (Any && !CurActive[S]) {
      CurActive[S] = 1;
      CurTouched.push_back(S);
    }
  }
}

ActivationSet ImfantEngine::Scanner::captureActivation() const {
  ActivationSet Out;
  const uint32_t W = Engine.Words;
  Out.Words = W;
  for (StateId S : CurTouched) {
    const uint64_t *J = &CurJ[static_cast<size_t>(S) * W];
    bool Any = false;
    for (uint32_t Wd = 0; Wd < W; ++Wd)
      Any = Any || J[Wd] != 0;
    if (!Any)
      continue;
    Out.States.push_back(S);
    Out.RuleBlocks.insert(Out.RuleBlocks.end(), J, J + W);
  }
  return Out;
}

void ImfantEngine::Scanner::feed(std::string_view Chunk,
                                 MatchRecorder &Recorder, RunStats *Stats) {
  assert(!Finished && "feed() after finish()");
  if (!InjectionEnabled && CurTouched.empty())
    return; // A dead frontier with injection off can never revive.
#if MFSA_METRICS_ENABLED
  const uint64_t MatchesBefore = Recorder.total();
  const uint64_t OffsetBefore = AbsoluteOffset;
#endif
  if (Engine.Words == 1)
    feedLoop<true>(Chunk, Recorder, Stats);
  else
    feedLoop<false>(Chunk, Recorder, Stats);
#if MFSA_METRICS_ENABLED
  if (Engine.Metrics.Bytes) {
    // The injection-off early exit can consume less than the whole chunk.
    Engine.Metrics.Bytes->add(AbsoluteOffset - OffsetBefore);
    Engine.Metrics.Matches->add(Recorder.total() - MatchesBefore);
  }
#endif
}

template <bool SingleWord>
void ImfantEngine::Scanner::feedLoop(std::string_view Chunk,
                                     MatchRecorder &Recorder,
                                     RunStats *Stats) {
  const ImfantEngine &E = Engine;
  // With SingleWord the compiler folds every bitset loop to one scalar op;
  // wider MFSAs go through the runtime-dispatched SIMD kernels instead.
  // The table is resolved once per chunk so a test switching levels between
  // runs always scans with a consistent implementation.
  const uint32_t W = SingleWord ? 1u : E.Words;
  assert(W == E.Words && "dispatch mismatch");
  const simd::KernelTable &K = simd::ops();
  const bool Inject = InjectionEnabled;
  const OutEdge *Edges = E.Edges.data();
  const uint32_t *EdgeOffsets = E.EdgeOffsets.data();
  const uint64_t *Labels = E.LabelPool.data();
  const uint64_t *Bels = E.BelPool.data();
  uint64_t *A = ActivationScratch.data();
  size_t Consumed = Chunk.size();

  uint64_t ActiveRuleSum = 0;
  uint32_t ActiveRuleMax = 0;
  uint32_t FrontierMax = 0;
  uint64_t TransitionsEvaluated = 0;
  std::vector<uint64_t> UnionJ;
  if (Stats)
    UnionJ.assign(W, 0);

#if MFSA_METRICS_ENABLED
  // Sampled distribution metrics: counters are exact, histograms observe
  // every SampleEvery-th byte (MetricsTick persists across chunks so the
  // cadence survives streaming feeds).
  const bool Observed = E.Metrics.Bytes != nullptr;
  const uint32_t SampleEvery = Observed ? obs::scanSampleEvery() : 0;
  uint64_t ChunkTransitions = 0;
  if (Observed && MetricsUnionScratch.size() != W)
    MetricsUnionScratch.assign(W, 0);
#endif

  // Arrival: marks \p To active for the next step and returns its J.
  auto Arrive = [&](StateId To) -> uint64_t * {
    if (!NextActive[To]) {
      NextActive[To] = 1;
      NextTouched.push_back(To);
    }
    return &NextJ[static_cast<size_t>(To) * W];
  };
  // Applies one symbol's precomputed injections; returns the entry count.
  auto ApplyInjections = [&](const InjectionList &List, unsigned char C) {
    const uint32_t Begin = List.Offsets[C], End = List.Offsets[C + 1];
    for (uint32_t I = Begin; I < End; ++I) {
      uint64_t *DstJ = Arrive(List.To[I]);
      const uint64_t *Mask = &List.Masks[static_cast<size_t>(I) * W];
      if constexpr (SingleWord)
        DstJ[0] |= Mask[0];
      else
        K.OrWords(DstJ, Mask, W);
    }
    return End - Begin;
  };

  for (size_t Pos = 0; Pos < Chunk.size(); ++Pos) {
    const unsigned char C = static_cast<unsigned char>(Chunk[Pos]);
    const bool AtStart = (AbsoluteOffset == 0);
    ++AbsoluteOffset;
    const unsigned LabelWord = C >> 6, LabelBit = C & 63;
    uint64_t Examined = 0;

    // Propagation (Eq. 6): every active state sends J ∩ bel across each
    // out-edge whose label holds this symbol.
    for (StateId S : CurTouched) {
      const uint64_t *SrcJ = &CurJ[static_cast<size_t>(S) * W];
      const uint32_t Begin = EdgeOffsets[S], End = EdgeOffsets[S + 1];
      Examined += End - Begin;
      for (uint32_t EIdx = Begin; EIdx < End; ++EIdx) {
        const OutEdge &Edge = Edges[EIdx];
        if (!((Labels[static_cast<size_t>(Edge.LabelIdx) * 4 + LabelWord] >>
               LabelBit) &
              1))
          continue;
        const uint64_t *Bel = &Bels[static_cast<size_t>(Edge.BelIdx) * W];
        if constexpr (SingleWord) {
          const uint64_t Crossing = SrcJ[0] & Bel[0];
          if (Crossing)
            Arrive(Edge.To)[0] |= Crossing;
        } else if (K.AndInto(A, SrcJ, Bel, W)) {
          K.OrWords(Arrive(Edge.To), A, W);
        }
      }
    }

    // Injection (Eq. 4): rules whose match may begin at this symbol; the
    // `^` rules only at offset 0.
    if (Inject && !E.Inject.To.empty())
      Examined += ApplyInjections(E.Inject, C);
    if (Inject && AtStart && !E.InjectAtStart.To.empty())
      Examined += ApplyInjections(E.InjectAtStart, C);

    // Match reporting (Eq. 5) over the states this step reached: active
    // rules for which the state is final. Unanchored-end rules report
    // immediately (once per rule and offset); `$`-anchored ones park in
    // PendingAtEnd, which only survives if this symbol is the stream's last.
    std::fill(PendingAtEnd.begin(), PendingAtEnd.end(), 0);
    for (StateId S : NextTouched) {
      if (!E.FinalAny[S])
        continue;
      const uint64_t *J = &NextJ[static_cast<size_t>(S) * W];
      const uint64_t *Fin = &E.FinalRules[static_cast<size_t>(S) * W];
      for (uint32_t I = 0; I < W; ++I) {
        const uint64_t Arrived = J[I] & Fin[I];
        if (!Arrived)
          continue;
        PendingAtEnd[I] |= Arrived & ~E.NotAnchoredEndMask[I];
        uint64_t Hits =
            Arrived & E.NotAnchoredEndMask[I] & ~MatchedThisStep[I];
        if (!Hits)
          continue;
        if (!MatchedThisStep[I])
          MatchedDirtyWords.push_back(I);
        MatchedThisStep[I] |= Hits;
        while (Hits) {
          unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Hits));
          Hits &= Hits - 1;
          Recorder.onMatch(E.GlobalIds[I * 64 + Bit], AbsoluteOffset);
        }
      }
    }

    if (Stats) {
      TransitionsEvaluated += Examined;
      std::fill(UnionJ.begin(), UnionJ.end(), 0);
      for (StateId S : NextTouched)
        K.OrWords(UnionJ.data(), &NextJ[static_cast<size_t>(S) * W], W);
      uint32_t ActiveRules =
          static_cast<uint32_t>(K.CountWords(UnionJ.data(), W));
      ActiveRuleSum += ActiveRules;
      ActiveRuleMax = std::max(ActiveRuleMax, ActiveRules);
      FrontierMax =
          std::max(FrontierMax, static_cast<uint32_t>(NextTouched.size()));
    }

#if MFSA_METRICS_ENABLED
    if (Observed) {
      ChunkTransitions += Examined;
      if (++MetricsTick >= SampleEvery) {
        MetricsTick = 0;
        E.Metrics.Frontier->observe(NextTouched.size());
        E.Metrics.TransitionsPerByte->observe(Examined);
        // Active-set occupancy |∪ J(q)| — the paper's Table II quantity.
        std::fill(MetricsUnionScratch.begin(), MetricsUnionScratch.end(), 0);
        for (StateId S : NextTouched)
          K.OrWords(MetricsUnionScratch.data(),
                    &NextJ[static_cast<size_t>(S) * W], W);
        E.Metrics.ActiveRules->observe(
            K.CountWords(MetricsUnionScratch.data(), W));
      }
    }
#endif

    // Swap buffers; scrub only what the finished step touched.
    for (StateId S : CurTouched) {
      CurActive[S] = 0;
      std::memset(&CurJ[static_cast<size_t>(S) * W], 0, W * 8);
    }
    CurTouched.clear();
    std::swap(CurActive, NextActive);
    std::swap(CurJ, NextJ);
    std::swap(CurTouched, NextTouched);
    for (uint32_t I : MatchedDirtyWords)
      MatchedThisStep[I] = 0;
    MatchedDirtyWords.clear();

    // Pure-propagation mode: once the frontier dies nothing revives it, so
    // stop consuming (PendingAtEnd is necessarily empty — no arrivals
    // happened this step). offset() reports the death position.
    if (!Inject && CurTouched.empty()) {
      Consumed = Pos + 1;
      break;
    }
  }

#if MFSA_METRICS_ENABLED
  if (Observed)
    E.Metrics.Transitions->add(ChunkTransitions);
#endif

  if (Stats) {
    Stats->Steps += Consumed;
    Stats->TransitionsEvaluated += TransitionsEvaluated;
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
