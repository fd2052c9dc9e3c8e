//===- Trace.cpp - activation-function execution tracing -----------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/Trace.h"

#include "engine/Imfant.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <limits>
#include <map>

using namespace mfsa;

std::vector<TraceStep> mfsa::traceActivation(const Mfsa &Z,
                                             std::string_view Input) {
  const ImfantEngine Engine(Z);
  ImfantEngine::Scanner Scan(Engine);

  // Global id -> local rules, ascending; rules sharing a global id are
  // attributed in local order.
  std::multimap<uint32_t, RuleId> LocalOf;
  for (RuleId Rule = 0; Rule < Engine.numRules(); ++Rule)
    LocalOf.emplace(Engine.globalIds()[Rule], Rule);

  std::vector<TraceStep> Trace;
  Trace.reserve(Input.size());
  for (size_t Pos = 0; Pos < Input.size(); ++Pos) {
    // One byte per feed; the `$` matches finish() flushes belong to the
    // last step.
    MatchRecorder Step(MatchRecorder::Mode::Collect);
    Step.Cap = std::numeric_limits<size_t>::max();
    Scan.feed(Input.substr(Pos, 1), Step);
    if (Pos + 1 == Input.size())
      Scan.finish(Step);

    TraceStep Out;
    Out.Offset = Pos + 1;
    Out.Symbol = static_cast<unsigned char>(Input[Pos]);
    const ActivationSet Active = Scan.captureActivation();
    for (size_t I = 0; I < Active.size(); ++I) {
      TraceStep::ActiveEntry Entry;
      Entry.State = Active.States[I];
      const uint64_t *Block = Active.block(I);
      for (uint32_t Word = 0; Word < Active.Words; ++Word)
        for (uint64_t Bits = Block[Word]; Bits; Bits &= Bits - 1)
          Entry.ActiveRules.push_back(static_cast<RuleId>(
              Word * 64 + static_cast<unsigned>(__builtin_ctzll(Bits))));
      Out.Active.push_back(std::move(Entry));
    }
    std::sort(Out.Active.begin(), Out.Active.end(),
              [](const TraceStep::ActiveEntry &A,
                 const TraceStep::ActiveEntry &B) {
                return A.State < B.State;
              });

    // A local rule reports at most once per offset, so the k-th report of a
    // global id this step is that id's k-th local rule.
    std::map<uint32_t, unsigned> Seen;
    for (const auto &[GlobalId, End] : Step.matches()) {
      auto Local = LocalOf.lower_bound(GlobalId);
      std::advance(Local, Seen[GlobalId]++);
      Out.Matches.emplace_back(Local->second, GlobalId);
    }
    std::sort(Out.Matches.begin(), Out.Matches.end());
    Trace.push_back(std::move(Out));
  }
  return Trace;
}

void mfsa::replayTrace(const Mfsa &Z, std::string_view Input,
                       TraceSink &Sink) {
  const uint32_t NumRules = Z.numRules();
  std::vector<TraceStep> Trace = traceActivation(Z, Input);

  DynamicBitset Prev(NumRules);
  for (const TraceStep &Step : Trace) {
    DynamicBitset Cur(NumRules);
    for (const TraceStep::ActiveEntry &Entry : Step.Active)
      for (RuleId Rule : Entry.ActiveRules)
        Cur.set(Rule);

    DynamicBitset Deactivated = Prev, Activated = Cur;
    for (size_t I = 0, E = Deactivated.words().size(); I != E; ++I) {
      Deactivated.words()[I] &= ~Cur.words()[I];
      Activated.words()[I] &= ~Prev.words()[I];
    }
    Deactivated.forEach([&](unsigned Rule) {
      Sink.onRuleDeactivated(static_cast<RuleId>(Rule), Step.Offset);
    });
    Activated.forEach([&](unsigned Rule) {
      Sink.onRuleActivated(static_cast<RuleId>(Rule), Step.Offset);
    });
    for (const auto &[Rule, GlobalId] : Step.Matches)
      Sink.onMatch(Rule, GlobalId, Step.Offset);
    Sink.onStep(Step.Offset, Step.Symbol,
                static_cast<uint32_t>(Step.Active.size()),
                static_cast<uint32_t>(Cur.count()));
    Prev = std::move(Cur);
  }
}

MetricsTraceSink::MetricsTraceSink(obs::MetricsRegistry &Registry) {
  Activations = &Registry.counter("trace.activations");
  Deactivations = &Registry.counter("trace.deactivations");
  Matches = &Registry.counter("trace.matches");
  Steps = &Registry.counter("trace.steps");
  ActiveRulesHist =
      &Registry.histogram("trace.active_rules", obs::pow2Buckets(12));
  ActiveStatesHist =
      &Registry.histogram("trace.active_states", obs::pow2Buckets(12));
}

void MetricsTraceSink::onRuleDeactivated(RuleId, uint64_t) {
  Deactivations->add(1);
}

void MetricsTraceSink::onRuleActivated(RuleId, uint64_t) {
  Activations->add(1);
}

void MetricsTraceSink::onMatch(RuleId, uint32_t, uint64_t) {
  Matches->add(1);
}

void MetricsTraceSink::onStep(uint64_t, unsigned char, uint32_t ActiveStates,
                              uint32_t ActiveRules) {
  Steps->add(1);
  ActiveStatesHist->observe(ActiveStates);
  ActiveRulesHist->observe(ActiveRules);
}

std::string mfsa::formatTrace(const Mfsa &Z, std::string_view Input) {
  std::vector<TraceStep> Trace = traceActivation(Z, Input);
  std::string Out;
  for (const TraceStep &Step : Trace) {
    Out += std::to_string(Step.Offset) + ") '";
    if (Step.Symbol >= 0x20 && Step.Symbol < 0x7f)
      Out.push_back(static_cast<char>(Step.Symbol));
    else
      Out += "\\x" + std::to_string(Step.Symbol);
    Out += "' ->";
    if (Step.Active.empty())
      Out += " (no active states)";
    for (const TraceStep::ActiveEntry &Entry : Step.Active) {
      Out += " {" + std::to_string(Entry.State) + ": J={";
      for (size_t I = 0; I < Entry.ActiveRules.size(); ++I) {
        if (I)
          Out += ",";
        Out += std::to_string(Entry.ActiveRules[I]);
      }
      Out += "}}";
    }
    if (!Step.Matches.empty()) {
      Out += "   match:";
      for (const auto &[Rule, GlobalId] : Step.Matches)
        Out += " rule " + std::to_string(GlobalId);
    }
    Out += "\n";
  }
  return Out;
}
