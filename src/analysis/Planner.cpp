//===- Planner.cpp - Engine::Auto selection planner -----------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/Planner.h"

#include "obs/Metrics.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <limits>

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

/// Bytes of the dense per-symbol table: ~12 bytes per (transition, symbol)
/// entry plus the belonging pool.
double denseFootprint(const CostReport &R) {
  return R.Shape.AvgTableRow * 256.0 * 12.0 +
         static_cast<double>(R.Shape.NumTransitions) * R.Shape.BelWords * 8.0;
}

double spillFactor(double Bytes, const CostCoefficients &C) {
  return Bytes > C.CacheBytes ? C.CacheSpillFactor : 1.0;
}

/// Evaluates every engine for one candidate configuration (a fixed set of
/// merged groups). Costs are summed over groups because execution is
/// group-sequential: each group's engine scans the whole input.
void estimateEngines(CandidatePlan &Cand, const LiteralProfile &Literals,
                     bool HavePatterns, const CostCoefficients &C) {
  double DenseNs = 0.0, DfaNs = 0.0, Stride2Ns = 0.0;
  double DenseBytes = 0.0, DfaBytes = 0.0, Stride2Bytes = 0.0, RowSum = 0.0;
  bool DfaOk = true, Stride2Ok = true;
  for (const CostReport &G : Cand.Groups) {
    const double PerEntry =
        C.DenseNsPerEntry + G.Shape.BelWords * C.BitsetNsPerWord;
    RowSum += G.Shape.AvgTableRow;
    DenseNs += G.Shape.AvgTableRow * PerEntry;
    DenseBytes += denseFootprint(G);
    DfaOk = DfaOk && G.Dfa.Completed;
    DfaNs += C.DfaNsPerByte;
    DfaBytes +=
        static_cast<double>(G.Dfa.DfaStates) * G.Dfa.NumAtoms * 4.0;
    Stride2Ok = Stride2Ok && G.Dfa.Stride2Feasible;
    Stride2Ns += C.Stride2NsPerStep / 2.0;
    Stride2Bytes += static_cast<double>(G.Dfa.Stride2Entries) * 4.0;
  }
  // When only a sample of the groups was analyzed (PlannerOptions::
  // MaxAnalyzedGroups), extrapolate every summed term to the real group
  // count. The sample is evenly spaced, so group-size skew averages out.
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
  DenseNs *= spillFactor(DenseBytes, C);
  DfaNs *= spillFactor(DfaBytes, C);
  Stride2Ns *= spillFactor(Stride2Bytes, C);

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
    double Pre = C.PrefilterNsPerByte * (Literals.RootSkipViable ? 1.0 : 1.5);
    Pre += (1.0 - Literals.PrefilterableFraction) * C.ResidualPenalty *
           DenseNs;
    // Confirm-window reruns: charged inversely to the average mandatory
    // literal length, since shorter literals hit far more often.
    if (Literals.AvgLiteralLength > 0.0)
      Pre += C.ConfirmPenalty * Literals.PrefilterableFraction * DenseNs /
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

CandidatePlan evaluateGroups(const std::vector<Mfsa> &Groups,
                             uint32_t MergingFactor,
                             const std::vector<std::string> &Patterns,
                             const PlannerOptions &Options) {
  CandidatePlan Cand;
  Cand.MergingFactor = MergingFactor;
  Cand.NumGroups = static_cast<uint32_t>(Groups.size());
  // A K=300 candidate would otherwise pay 300 DFA probes per plan: beyond
  // the budget, analyze an evenly spaced sample and let estimateEngines
  // extrapolate the summed cost terms.
  std::vector<size_t> Sampled;
  const size_t Limit =
      Options.MaxAnalyzedGroups ? Options.MaxAnalyzedGroups : Groups.size();
  if (Groups.size() <= Limit)
    for (size_t I = 0; I < Groups.size(); ++I)
      Sampled.push_back(I);
  else
    for (size_t I = 0; I < Limit; ++I)
      Sampled.push_back(I * Groups.size() / Limit);
  LiteralProfile Aggregate;
  double LiteralLenSum = 0.0;
  for (size_t Idx : Sampled) {
    const Mfsa &Z = Groups[Idx];
    Cand.Groups.push_back(analyzeCost(Z, Patterns, Options.Cost));
    const LiteralProfile &L = Cand.Groups.back().Literals;
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
  estimateEngines(Cand, Aggregate, !Patterns.empty(), Options.Coefficients);
  return Cand;
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
/// iMFAnt's death probe is bounded by a 64 KiB overlap window, after which
/// the join re-scans the chunk sequentially (engine/InputParallel.cpp).
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
        "imfant speculation: death probe bounded by the overlap window, "
        "sequential re-scan otherwise";
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

void jsonEscapeTo(std::string &Out, std::string_view S) {
  for (char Ch : S) {
    unsigned char U = static_cast<unsigned char>(Ch);
    if (Ch == '"' || Ch == '\\') {
      Out += '\\';
      Out += Ch;
    } else if (U < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", U);
      Out += Buf;
    } else {
      Out += Ch;
    }
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
  jsonEscapeTo(J, ParallelInputWhy);
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
      jsonEscapeTo(J, Est.Why);
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
  Plan.Candidates.push_back(
      evaluateGroups(Mfsas, MergingFactor, Patterns, Options));
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
  for (uint32_t M : Factors) {
    // Trial-merge the candidate grouping, preserving dataset global ids.
    const std::vector<Mfsa> Groups =
        mergeInGroups(OptimizedFsas, GlobalIds, M, Options.Merge);
    Plan.Candidates.push_back(evaluateGroups(Groups, M, Patterns, Options));
  }
  choose(Plan, Options);
  decideParallelInput(Plan, Options);
  Plan.PlanWallMs = Clock.elapsedMs();
  return Plan;
}

} // namespace mfsa
