//===- Planner.cpp - Engine::Auto selection planner -----------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/Planner.h"

#include "analysis/Diagnostics.h"
#include "obs/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>

namespace mfsa {

const char *engineName(Engine E) {
  switch (E) {
  case Engine::Auto:
    return "auto";
  case Engine::ImfantDense:
    return "dense";
  case Engine::Dfa:
    return "dfa";
  case Engine::StridedDfa:
    return "stride2";
  case Engine::Prefilter:
    return "prefilter";
  }
  return "auto";
}

bool engineFromName(std::string_view Name, Engine &Out) {
  for (Engine E : {Engine::Auto, Engine::ImfantDense, Engine::Dfa,
                   Engine::StridedDfa, Engine::Prefilter})
    if (Name == engineName(E)) {
      Out = E;
      return true;
    }
  return false;
}

namespace {

// Per-unit cost constants, in nanoseconds, fitted to the committed
// bench/baselines/BENCH_*.json numbers (docs/performance.md shows the
// derivation). They only need to get *ratios* right: the planner compares
// candidate engines against each other, never against the wall clock.

/// Dense iMFAnt: per per-symbol table entry evaluated per input byte
/// (BENCH_engine_throughput dense rows / avg table row).
constexpr double kDenseNsPerEntry = 1.2;
/// Dense iMFAnt: per 64-bit belonging word combined per entry.
constexpr double kBitsetNsPerWord = 0.4;
/// DFA: one table lookup + accept probe per byte.
constexpr double kDfaNsPerByte = 1.0;
/// Stride-2 DFA: one lookup per byte *pair*.
constexpr double kStride2NsPerStep = 1.3;
/// AC prefilter: literal-scan cost per byte (root-skip fast path).
constexpr double kPrefilterNsPerByte = 0.6;
/// Residual (non-prefilterable) rules scan every byte with a dense engine;
/// this scales that engine's estimate by the residual fraction. Fitted at
/// ~2×: the baselines show the prefilter's residual path costing about
/// twice the tuned dense engine per residual rule share (abl_planner:
/// prefilter/dense ≈ 2.0-3.3 × (1 - prefilterable fraction) across the
/// Table I datasets), which flips literal-poor rulesets (DS9) back to dense
/// while keeping literal-heavy ones (PEN/RG1/TCP) on the prefilter.
constexpr double kResidualPenalty = 2.0;
/// Confirm-window cost: a prefilter hit reruns an automaton over the
/// window, and hit probability rises steeply as the mandatory literal
/// shortens. This charges the prefilterable share of the dense cost
/// inversely to the average literal length (abl_planner: PRO's 4.4-byte
/// average literal makes its prefilter slower than plain dense, while BRO's
/// 11-byte literals keep the confirm path cold).
constexpr double kConfirmPenalty = 1.0;
/// Tables larger than this spill the last-level working set; their
/// estimate is multiplied by kCacheSpillFactor (baselines show the dense
/// engine degrading ~2-3× once the table leaves L2).
constexpr double kCacheBytes = 1.5e6;
constexpr double kCacheSpillFactor = 2.5;

/// Cap on fully-analyzed groups per candidate: beyond it, an evenly spaced
/// sample is analyzed and the summed cost terms are scaled by the real
/// group count (a K=300 candidate would otherwise pay 300 DFA probes per
/// plan). Each analyzed group costs two planner tasks (shape and literal
/// profile; DFA probe), and a probe is skipped when a blown group of a
/// candidate with more groups holds a subset of its rules.
constexpr uint32_t kMaxAnalyzedGroups = 8;

/// Bytes of the dense per-symbol table: ~12 bytes per (transition, symbol)
/// entry plus the belonging pool.
double denseFootprint(const CostReport &R) {
  return R.Shape.AvgTableRow * 256.0 * 12.0 +
         static_cast<double>(R.Shape.NumTransitions) * R.Shape.BelWords * 8.0;
}

double spillFactor(double Bytes) {
  return Bytes > kCacheBytes ? kCacheSpillFactor : 1.0;
}

/// Evaluates every engine for one candidate configuration (a fixed set of
/// merged groups). Costs are summed over groups because execution is
/// group-sequential: each group's engine scans the whole input.
void estimateEngines(CandidatePlan &Cand, const LiteralProfile &Literals,
                     bool HavePatterns) {
  double DenseNs = 0.0, DfaNs = 0.0, Stride2Ns = 0.0;
  double DenseBytes = 0.0, DfaBytes = 0.0, Stride2Bytes = 0.0, RowSum = 0.0;
  bool DfaOk = true, Stride2Ok = true;
  for (const CostReport &G : Cand.Groups) {
    const double PerEntry =
        kDenseNsPerEntry + G.Shape.BelWords * kBitsetNsPerWord;
    RowSum += G.Shape.AvgTableRow;
    DenseNs += G.Shape.AvgTableRow * PerEntry;
    DenseBytes += denseFootprint(G);
    DfaOk = DfaOk && G.Dfa.Completed;
    DfaNs += kDfaNsPerByte;
    DfaBytes +=
        static_cast<double>(G.Dfa.DfaStates) * G.Dfa.NumAtoms * 4.0;
    Stride2Ok = Stride2Ok && G.Dfa.Stride2Feasible;
    Stride2Ns += kStride2NsPerStep / 2.0;
    Stride2Bytes += static_cast<double>(G.Dfa.Stride2Entries) * 4.0;
  }
  // When only a sample of the groups was analyzed (kMaxAnalyzedGroups),
  // extrapolate every summed term to the real group count. The sample is
  // evenly spaced, so group-size skew averages out.
  const double Scale =
      Cand.Groups.empty() ? 1.0
                          : static_cast<double>(Cand.NumGroups) /
                                static_cast<double>(Cand.Groups.size());
  DenseNs *= Scale;
  DfaNs *= Scale;
  Stride2Ns *= Scale;
  DenseBytes *= Scale;
  DfaBytes *= Scale;
  Stride2Bytes *= Scale;
  RowSum *= Scale;
  DenseNs *= spillFactor(DenseBytes);
  DfaNs *= spillFactor(DfaBytes);
  Stride2Ns *= spillFactor(Stride2Bytes);

  auto Add = [&](Engine E, double Ns, bool Feasible, std::string Why) {
    EngineCostEstimate Est;
    Est.E = E;
    Est.NsPerByte = Ns;
    Est.Feasible = Feasible;
    Est.Why = std::move(Why);
    Cand.Engines.push_back(std::move(Est));
  };

  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "avg table row %.1f entries/byte over %u group(s)", RowSum,
                Cand.NumGroups);
  Add(Engine::ImfantDense, DenseNs, true, Buf);
  if (DfaOk)
    Add(Engine::Dfa, DfaNs, true, "subset construction completed in budget");
  else
    Add(Engine::Dfa, 0.0, false, "blowup before budget: DFA probe exceeded "
                                 "its state cap");
  if (DfaOk && Stride2Ok)
    Add(Engine::StridedDfa, Stride2Ns, true, "stride-2 table fits its cap");
  else
    Add(Engine::StridedDfa, 0.0, false,
        DfaOk ? "stride-2 table exceeds its entry cap"
              : "blowup before budget: DFA probe exceeded its state cap");

  if (!HavePatterns || Literals.TotalRules == 0) {
    Add(Engine::Prefilter, 0.0, false, "source patterns unavailable");
  } else if (Literals.PrefilterableRules == 0) {
    Add(Engine::Prefilter, 0.0, false, "no rule has a usable mandatory "
                                       "literal");
  } else {
    // Literal scan over every byte plus a dense scan of the residual
    // (non-prefilterable) rules; confirm windows are rare on non-adversarial
    // input, so the residual term dominates when literal density is low.
    double Pre = kPrefilterNsPerByte * (Literals.RootSkipViable ? 1.0 : 1.5);
    Pre += (1.0 - Literals.PrefilterableFraction) * kResidualPenalty * DenseNs;
    // Confirm-window reruns: charged inversely to the average mandatory
    // literal length, since shorter literals hit far more often.
    if (Literals.AvgLiteralLength > 0.0)
      Pre += kConfirmPenalty * Literals.PrefilterableFraction * DenseNs /
             Literals.AvgLiteralLength;
    std::snprintf(Buf, sizeof(Buf),
                  "%u/%u rules literal-gated, avg literal %.1fB",
                  Literals.PrefilterableRules, Literals.TotalRules,
                  Literals.AvgLiteralLength);
    Add(Engine::Prefilter, Pre, true, Buf);
  }

  Cand.Best = Engine::ImfantDense;
  Cand.BestNsPerByte = std::numeric_limits<double>::infinity();
  for (const EngineCostEstimate &Est : Cand.Engines)
    if (Est.Feasible && Est.NsPerByte < Cand.BestNsPerByte) {
      Cand.Best = Est.E;
      Cand.BestNsPerByte = Est.NsPerByte;
    }
}

/// Indices of the groups a candidate of \p NumGroups groups analyzes: all of
/// them, or an evenly spaced sample of kMaxAnalyzedGroups beyond it;
/// estimateEngines extrapolates the sample's summed cost terms.
std::vector<size_t> sampleGroups(size_t NumGroups) {
  const size_t N = std::min<size_t>(NumGroups, kMaxAnalyzedGroups);
  std::vector<size_t> Sampled(N);
  for (size_t I = 0; I < N; ++I)
    Sampled[I] = I * NumGroups / N;
  return Sampled;
}

/// Aggregates \p Cand's analyzed groups' literal profiles and prices its
/// engines.
void summarize(CandidatePlan &Cand, bool HavePatterns) {
  LiteralProfile Aggregate;
  double LiteralLenSum = 0.0;
  for (const CostReport &G : Cand.Groups) {
    const LiteralProfile &L = G.Literals;
    Aggregate.TotalRules += L.TotalRules;
    Aggregate.PrefilterableRules += L.PrefilterableRules;
    LiteralLenSum += L.AvgLiteralLength * L.PrefilterableRules;
    Aggregate.DistinctFirstBytes =
        std::max(Aggregate.DistinctFirstBytes, L.DistinctFirstBytes);
  }
  if (Aggregate.TotalRules)
    Aggregate.PrefilterableFraction =
        static_cast<double>(Aggregate.PrefilterableRules) /
        static_cast<double>(Aggregate.TotalRules);
  if (Aggregate.PrefilterableRules)
    Aggregate.AvgLiteralLength =
        LiteralLenSum / static_cast<double>(Aggregate.PrefilterableRules);
  Aggregate.RootSkipViable = Aggregate.DistinctFirstBytes >= 1 &&
                             Aggregate.DistinctFirstBytes <= 8;
  estimateEngines(Cand, Aggregate, HavePatterns);
}

/// One candidate merging factor while it is evaluated.
struct CandidateWork {
  uint32_t MergingFactor = 0;
  uint32_t NumGroups = 0;
  /// The groups: the caller's (planMfsas) or null until the trial merge
  /// fills Merged (planRuleset).
  const std::vector<Mfsa> *Groups = nullptr;
  std::vector<Mfsa> Merged;
  std::vector<size_t> Sampled;     ///< Indices of the analyzed groups.
  std::vector<CostReport> Reports; ///< One per sampled group.
  /// Each sampled group's sorted GlobalIds.
  std::vector<std::vector<uint32_t>> RuleIds;
};

/// Evaluates candidates as tasks on a pool of min(InputThreads, tasks)
/// workers, or on the calling thread when that is one: one task per trial
/// merge, then per sampled group one for computeShape + profileLiterals and
/// one for probeDfaBlowup.
///
/// Probes run in waves of candidates with equal group counts, in descending
/// count, and a wave is released only after every earlier wave's probes
/// finished. At release, a group that holds every rule of a group an
/// earlier wave saw blow up is not probed: its DFA is at least as large
/// (DfaEstimate::Implied), so it gets blowupEstimate(). Which probes run
/// therefore never depends on thread timing, and the reports equal a
/// sequential evaluation's.
class CandidateEvaluator {
public:
  /// \p Fsas and \p GlobalIds feed the trial merges of the candidates whose
  /// Groups is null. \p AllowImplied requires that equal GlobalIds mean
  /// equal rules across the candidates.
  CandidateEvaluator(std::vector<CandidateWork> &Work,
                     const std::vector<Nfa> *Fsas,
                     const std::vector<uint32_t> *GlobalIds,
                     const std::vector<std::string> &Patterns,
                     const PlannerOptions &Options, bool AllowImplied)
      : Work(Work), Fsas(Fsas), GlobalIds(GlobalIds), Patterns(Patterns),
        Options(Options), AllowImplied(AllowImplied) {}

  /// Fills every candidate's Reports. \returns the number of threads used.
  unsigned run() {
    std::vector<uint32_t> Counts;
    Counts.reserve(Work.size());
    for (const CandidateWork &C : Work)
      Counts.push_back(C.NumGroups);
    std::sort(Counts.begin(), Counts.end(), std::greater<>());
    Counts.erase(std::unique(Counts.begin(), Counts.end()), Counts.end());
    Waves = std::vector<Wave>(Counts.size());
    WaveOf.resize(Work.size());
    size_t NumTasks = 0;
    for (size_t I = 0; I < Work.size(); ++I) {
      const size_t W = static_cast<size_t>(
          std::find(Counts.begin(), Counts.end(), Work[I].NumGroups) -
          Counts.begin());
      WaveOf[I] = W;
      Waves[W].Members.push_back(I);
      Waves[W].Pending += Work[I].Groups ? 0 : 1;
      NumTasks += (Work[I].Groups ? 0 : 1) + 2 * Work[I].Sampled.size();
    }
    // Each wave also waits for the previous wave's probes; the first waits
    // for the start token arrive(0) hands in below.
    for (Wave &W : Waves)
      ++W.Pending;

    const unsigned Workers = static_cast<unsigned>(std::max<size_t>(
        1, std::min<size_t>(Options.InputThreads, NumTasks)));
    if (Workers > 1)
      Pool = std::make_unique<ThreadPool>(Workers);
    // Fewest groups first: the largest merges are the longest tasks.
    for (size_t W = Waves.size(); W-- > 0;)
      for (size_t I : Waves[W].Members) {
        if (Work[I].Groups) {
          groupsReady(I);
          continue;
        }
        submit([this, I] {
          CandidateWork &C = Work[I];
          C.Merged = mergeInGroups(*Fsas, *GlobalIds, C.MergingFactor,
                                   Options.Merge);
          assert(C.Merged.size() == C.NumGroups && "numMergeGroups drifted");
          C.Groups = &C.Merged;
          groupsReady(I);
          arrive(WaveOf[I]);
        });
      }
    if (!Waves.empty())
      arrive(0);
    if (Pool)
      Pool->wait();
    Pool.reset();
    return Workers;
  }

private:
  struct Wave {
    std::vector<size_t> Members; ///< Indices into Work.
    /// Unfinished trial merges plus one token for the previous wave.
    std::atomic<size_t> Pending{0};
    /// Unfinished probes plus one token for the releasing thread.
    std::atomic<size_t> ProbesLeft{0};
  };

  /// Runs \p Task on the pool, or right away without one.
  void submit(std::function<void()> Task) {
    if (Pool)
      Pool->submit(std::move(Task));
    else
      Task();
  }

  const Mfsa &group(size_t I, size_t J) const {
    return (*Work[I].Groups)[Work[I].Sampled[J]];
  }

  void groupsReady(size_t I) {
    CandidateWork &C = Work[I];
    for (size_t J = 0; J < C.Sampled.size(); ++J) {
      const Mfsa &Z = group(I, J);
      std::vector<uint32_t> &Ids = C.RuleIds[J];
      Ids.reserve(Z.numRules());
      for (RuleId R = 0; R < Z.numRules(); ++R)
        Ids.push_back(Z.rule(R).GlobalId);
      std::sort(Ids.begin(), Ids.end());
      submit([this, I, J] {
        const Mfsa &Z = group(I, J);
        CostReport &Report = Work[I].Reports[J];
        Report.Shape = computeShape(Z);
        Report.Literals = profileLiterals(Z, Patterns);
      });
    }
  }

  void arrive(size_t W) {
    if (Waves[W].Pending.fetch_sub(1) == 1)
      release(W);
  }

  void probeDone(size_t W) {
    if (Waves[W].ProbesLeft.fetch_sub(1) == 1 && W + 1 < Waves.size())
      arrive(W + 1);
  }

  /// Whether an earlier wave's blown group holds a subset of group (I, J)'s
  /// rules.
  bool implied(size_t W, size_t I, size_t J) const {
    if (!AllowImplied)
      return false;
    const std::vector<uint32_t> &Ids = Work[I].RuleIds[J];
    for (size_t V = 0; V < W; ++V)
      for (size_t D : Waves[V].Members)
        for (size_t K = 0; K < Work[D].Sampled.size(); ++K)
          if (!Work[D].Reports[K].Dfa.Completed &&
              std::includes(Ids.begin(), Ids.end(), Work[D].RuleIds[K].begin(),
                            Work[D].RuleIds[K].end()))
            return true;
    return false;
  }

  void release(size_t W) {
    std::vector<std::pair<size_t, size_t>> Probes;
    for (size_t I : Waves[W].Members)
      for (size_t J = 0; J < Work[I].Sampled.size(); ++J) {
        if (!implied(W, I, J)) {
          Probes.emplace_back(I, J);
          continue;
        }
        DfaEstimate &Dfa = Work[I].Reports[J].Dfa;
        Dfa = blowupEstimate(Options.Probe);
        Dfa.Implied = true;
      }
    Waves[W].ProbesLeft = Probes.size() + 1;
    for (const auto &[I, J] : Probes)
      submit([this, W, I = I, J = J] {
        Work[I].Reports[J].Dfa =
            probeDfaBlowup(group(I, J), Options.Probe);
        probeDone(W);
      });
    probeDone(W);
  }

  std::vector<CandidateWork> &Work;
  const std::vector<Nfa> *Fsas;
  const std::vector<uint32_t> *GlobalIds;
  const std::vector<std::string> &Patterns;
  const PlannerOptions &Options;
  const bool AllowImplied;
  std::vector<Wave> Waves;
  std::vector<size_t> WaveOf; ///< Work index -> wave.
  std::unique_ptr<ThreadPool> Pool; ///< Null when planning on one thread.
};

/// Sizes \p Work's sampled analyses, evaluates them and appends one
/// CandidatePlan per candidate to \p Plan in \p Work's order.
void evaluateCandidates(EnginePlan &Plan, std::vector<CandidateWork> &Work,
                        const std::vector<Nfa> *Fsas,
                        const std::vector<uint32_t> *GlobalIds,
                        const std::vector<std::string> &Patterns,
                        const PlannerOptions &Options, bool AllowImplied) {
  for (CandidateWork &C : Work) {
    C.Sampled = sampleGroups(C.NumGroups);
    C.Reports.resize(C.Sampled.size());
    C.RuleIds.resize(C.Sampled.size());
  }
  Plan.PlanWorkers = CandidateEvaluator(Work, Fsas, GlobalIds, Patterns,
                                        Options, AllowImplied)
                         .run();
  for (CandidateWork &C : Work) {
    CandidatePlan Cand;
    Cand.MergingFactor = C.MergingFactor;
    Cand.NumGroups = C.NumGroups;
    Cand.Groups = std::move(C.Reports);
    summarize(Cand, !Patterns.empty());
    Plan.Candidates.push_back(std::move(Cand));
  }
}

/// Picks the plan's (engine, K) from the evaluated candidates, honoring a
/// forced engine by minimizing over that engine's feasible estimates.
void choose(EnginePlan &Plan, const PlannerOptions &Options) {
  const CandidatePlan *Winner = nullptr;
  double WinnerNs = std::numeric_limits<double>::infinity();
  Engine WinnerEngine = Engine::ImfantDense;
  for (const CandidatePlan &Cand : Plan.Candidates) {
    if (Options.Force == Engine::Auto) {
      if (!Cand.Engines.empty() && Cand.BestNsPerByte < WinnerNs) {
        Winner = &Cand;
        WinnerNs = Cand.BestNsPerByte;
        WinnerEngine = Cand.Best;
      }
      continue;
    }
    for (const EngineCostEstimate &Est : Cand.Engines)
      if (Est.E == Options.Force && Est.Feasible && Est.NsPerByte < WinnerNs) {
        Winner = &Cand;
        WinnerNs = Est.NsPerByte;
        WinnerEngine = Est.E;
      }
  }
  if (!Winner && !Plan.Candidates.empty()) {
    // Forced engine infeasible everywhere (or nothing evaluated): fall back
    // to the overall best so the plan is always executable.
    for (const CandidatePlan &Cand : Plan.Candidates)
      if (!Winner || Cand.BestNsPerByte < WinnerNs) {
        Winner = &Cand;
        WinnerNs = Cand.BestNsPerByte;
        WinnerEngine = Cand.Best;
      }
  }
  if (Winner) {
    Plan.Choice = WinnerEngine;
    Plan.MergingFactor = Winner->MergingFactor;
  }
  Plan.Stride = Plan.Choice == Engine::StridedDfa ? 2 : 1;
}

/// Decides the plan's input-parallel dimension (EnginePlan::InputThreads /
/// ParallelInput) for the already-chosen engine. Every engine with an
/// input-parallel executor is accepted, because each executor carries a
/// run-time guard that caps its worst case at about sequential cost: the
/// DFA family's state maps give up past 64 live classes, and dense
/// iMFAnt's join re-scans the real carried frontier only until it dies, at
/// worst one chunk per boundary (engine/InputParallel.cpp).
/// The prefilter's residual rules go through the same iMFAnt executor, and
/// its literal scan and confirm windows split across chunks without
/// speculation.
void decideParallelInput(EnginePlan &Plan, const PlannerOptions &Options) {
  Plan.InputThreads = std::max(1u, Options.InputThreads);
  Plan.ParallelInput = false;
  if (Plan.InputThreads <= 1) {
    Plan.ParallelInputWhy = "single input thread requested";
    return;
  }
  switch (Plan.Choice) {
  case Engine::Dfa:
  case Engine::StridedDfa:
    Plan.ParallelInput = true;
    Plan.ParallelInputWhy = "dfa state-map speculation with class collapse";
    return;
  case Engine::ImfantDense:
    Plan.ParallelInput = true;
    Plan.ParallelInputWhy =
        "imfant iso scans; the join re-scans the real carry until it dies, "
        "at worst one chunk";
    return;
  case Engine::Prefilter:
    Plan.ParallelInput = true;
    Plan.ParallelInputWhy =
        "residual rules chunked as imfant; literal scan and confirm windows "
        "split across chunks";
    return;
  case Engine::Auto:
    Plan.ParallelInputWhy = "engine has no input-parallel executor";
    return;
  }
}

void appendNumber(std::string &Out, double V) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.4g", V);
  Out += Buf;
}

} // namespace

const CandidatePlan *EnginePlan::chosen() const {
  for (const CandidatePlan &Cand : Candidates)
    if (Cand.MergingFactor == MergingFactor)
      return &Cand;
  return Candidates.empty() ? nullptr : &Candidates.front();
}

std::string EnginePlan::explainJson() const {
  std::string J;
  J += "{\n  \"engine\": \"";
  J += engineName(Choice);
  J += "\",\n  \"merging_factor\": ";
  J += std::to_string(MergingFactor);
  J += ",\n  \"stride\": ";
  J += std::to_string(Stride);
  J += ",\n  \"plan_wall_ms\": ";
  appendNumber(J, PlanWallMs);
  J += ",\n  \"parallel_input\": {\"threads\": ";
  J += std::to_string(InputThreads);
  J += ", \"enabled\": ";
  J += ParallelInput ? "true" : "false";
  J += ", \"why\": \"";
  J += jsonEscape(ParallelInputWhy);
  J += "\"},\n  \"candidates\": [";
  for (size_t I = 0; I < Candidates.size(); ++I) {
    const CandidatePlan &Cand = Candidates[I];
    J += I ? ",\n    {" : "\n    {";
    J += "\"merging_factor\": " + std::to_string(Cand.MergingFactor);
    J += ", \"num_groups\": " + std::to_string(Cand.NumGroups);
    J += ", \"analyzed_groups\": " + std::to_string(Cand.Groups.size());

    // Aggregate the cost-model facts over the candidate's analyzed groups:
    // total table pressure, the probe verdicts. Summed terms are
    // extrapolated to the real group count when only a sample was
    // analyzed, mirroring estimateEngines.
    bool DfaCompleted = true, Stride2Ok = true;
    uint64_t DfaStates = 0;
    double Row = 0.0;
    uint32_t Prefilterable = 0, TotalRules = 0;
    for (const CostReport &G : Cand.Groups) {
      DfaCompleted = DfaCompleted && G.Dfa.Completed;
      Stride2Ok = Stride2Ok && G.Dfa.Stride2Feasible;
      DfaStates += G.Dfa.DfaStates;
      Row += G.Shape.AvgTableRow;
      Prefilterable += G.Literals.PrefilterableRules;
      TotalRules += G.Literals.TotalRules;
    }
    const double Scale =
        Cand.Groups.empty() ? 1.0
                            : static_cast<double>(Cand.NumGroups) /
                                  static_cast<double>(Cand.Groups.size());
    DfaStates = static_cast<uint64_t>(static_cast<double>(DfaStates) * Scale);
    Row *= Scale;
    J += ",\n     \"dfa\": {\"completed\": ";
    J += DfaCompleted ? "true" : "false";
    J += ", \"states\": " + std::to_string(DfaStates);
    J += ", \"stride2_feasible\": ";
    J += Stride2Ok ? "true" : "false";
    J += "},\n     \"table\": {\"avg_row_entries\": ";
    appendNumber(J, Row);
    J += "},\n     \"literals\": {\"prefilterable\": " +
         std::to_string(Prefilterable);
    J += ", \"total\": " + std::to_string(TotalRules);
    J += "},\n     \"engines\": [";
    for (size_t K = 0; K < Cand.Engines.size(); ++K) {
      const EngineCostEstimate &Est = Cand.Engines[K];
      J += K ? ",\n       {" : "\n       {";
      J += "\"engine\": \"";
      J += engineName(Est.E);
      J += "\", \"ns_per_byte\": ";
      appendNumber(J, Est.NsPerByte);
      J += ", \"feasible\": ";
      J += Est.Feasible ? "true" : "false";
      J += ", \"why\": \"";
      J += jsonEscape(Est.Why);
      J += "\"}";
    }
    J += "\n     ],\n     \"best\": \"";
    J += engineName(Cand.Best);
    J += "\", \"best_ns_per_byte\": ";
    appendNumber(J, Cand.BestNsPerByte);
    J += "}";
  }
  J += "\n  ]\n}";
  return J;
}

void EnginePlan::recordTo(obs::MetricsRegistry &Registry) const {
  Registry.counter("analysis.cost.plans").add(1);
  Registry.gauge("analysis.cost.chosen_engine")
      .set(static_cast<int64_t>(Choice));
  Registry.gauge("analysis.cost.chosen_merging_factor")
      .set(static_cast<int64_t>(MergingFactor));
  Registry.gauge("analysis.cost.plan_wall_ms")
      .set(static_cast<int64_t>(PlanWallMs));
  // 0 = declined/disabled; otherwise the recommended chunk count.
  Registry.gauge("analysis.cost.parallel_input")
      .set(ParallelInput ? static_cast<int64_t>(InputThreads) : 0);
  if (const CandidatePlan *Cand = chosen()) {
    // Publish the largest group's report: the bottleneck the plan hinges on.
    const CostReport *Largest = nullptr;
    for (const CostReport &G : Cand->Groups)
      if (!Largest || G.Shape.NumStates > Largest->Shape.NumStates)
        Largest = &G;
    if (Largest)
      Largest->recordTo(Registry);
  }
}

EnginePlan planMfsas(const std::vector<Mfsa> &Mfsas,
                     const std::vector<std::string> &Patterns,
                     uint32_t MergingFactor, const PlannerOptions &Options) {
  Timer Clock;
  EnginePlan Plan;
  std::vector<CandidateWork> Work(1);
  Work[0].MergingFactor = MergingFactor;
  Work[0].NumGroups = static_cast<uint32_t>(Mfsas.size());
  Work[0].Groups = &Mfsas;
  evaluateCandidates(Plan, Work, nullptr, nullptr, Patterns, Options,
                     /*AllowImplied=*/false);
  choose(Plan, Options);
  decideParallelInput(Plan, Options);
  Plan.PlanWallMs = Clock.elapsedMs();
  return Plan;
}

EnginePlan planRuleset(const std::vector<Nfa> &OptimizedFsas,
                       const std::vector<uint32_t> &GlobalIds,
                       const std::vector<std::string> &Patterns,
                       const PlannerOptions &Options) {
  Timer Clock;
  EnginePlan Plan;
  std::vector<uint32_t> Factors = Options.CandidateFactors;
  std::sort(Factors.begin(), Factors.end());
  Factors.erase(std::unique(Factors.begin(), Factors.end()), Factors.end());
  std::vector<CandidateWork> Work(Factors.size());
  for (size_t I = 0; I < Factors.size(); ++I) {
    Work[I].MergingFactor = Factors[I];
    Work[I].NumGroups = numMergeGroups(
        static_cast<uint32_t>(OptimizedFsas.size()), Factors[I]);
  }
  // Trial merges keep the dataset's global ids, so a GlobalId names the same
  // rule in every candidate unless the caller repeated one.
  std::vector<uint32_t> Ids = GlobalIds;
  std::sort(Ids.begin(), Ids.end());
  const bool UniqueIds =
      std::adjacent_find(Ids.begin(), Ids.end()) == Ids.end();
  evaluateCandidates(Plan, Work, &OptimizedFsas, &GlobalIds, Patterns,
                     Options, UniqueIds);
  choose(Plan, Options);
  decideParallelInput(Plan, Options);
  Plan.PlanWallMs = Clock.elapsedMs();
  return Plan;
}

} // namespace mfsa
