//===- ObsTest.cpp - observability subsystem tests ---------------------------===//
//
// Part of the mfsa project. MIT License.
//
// Covers the metrics registry (registration semantics, histogram bucketing,
// byte-stable golden JSON), the compile-telemetry export (deterministic
// modulo wall-clock fields, which by convention end in `_ns`/`_ms` and are
// masked here), the cost-model export (`analysis.cost.*`, golden modulo
// the same masking), the engines' scan instrumentation (exact counters under a
// sampling period of 1), and the trace-sink event stream (activation /
// deactivation / match / step ordering and bookkeeping consistency).
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "analysis/CostModel.h"
#include "compiler/Pipeline.h"
#include "engine/Imfant.h"
#include "engine/Trace.h"
#include "mfsa/Merge.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace mfsa;
using namespace mfsa::test;

namespace {

/// Compiles + merges patterns into one MFSA (global ids = indices).
Mfsa mergePatterns(const std::vector<std::string> &Patterns) {
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  return mergeFsas(Fsas, Ids);
}

/// Replaces the value of every metric whose name ends in `_ns` or `_ms`
/// with the placeholder "T", asserting along the way that each masked value
/// is a non-negative number. Everything else passes through untouched, so
/// masked exports from deterministic runs compare byte-for-byte.
std::string maskTimings(const std::string &Json, unsigned *Masked = nullptr) {
  std::istringstream In(Json);
  std::string Out, Line;
  while (std::getline(In, Line)) {
    size_t Open = Line.find('"');
    size_t Close = Open == std::string::npos ? std::string::npos
                                             : Line.find('"', Open + 1);
    if (Close != std::string::npos) {
      std::string Name = Line.substr(Open + 1, Close - Open - 1);
      bool Timing = Name.size() > 3 && (Name.compare(Name.size() - 3, 3,
                                                     "_ns") == 0 ||
                                        Name.compare(Name.size() - 3, 3,
                                                     "_ms") == 0);
      size_t Colon = Line.find(':', Close);
      if (Timing && Colon != std::string::npos) {
        std::string Value = Line.substr(Colon + 1);
        bool Comma = !Value.empty() && Value.back() == ',';
        if (Comma)
          Value.pop_back();
        double Parsed = std::stod(Value);
        EXPECT_GE(Parsed, 0.0) << Name << " went negative: " << Value;
        Line = Line.substr(0, Colon + 1) + " \"T\"" + (Comma ? "," : "");
        if (Masked)
          ++*Masked;
      }
    }
    Out += Line + "\n";
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Registry primitives
//===----------------------------------------------------------------------===//

TEST(Metrics, RegistrationIsIdempotent) {
  obs::MetricsRegistry Registry;
  obs::Counter &C1 = Registry.counter("x.count");
  obs::Counter &C2 = Registry.counter("x.count");
  EXPECT_EQ(&C1, &C2);

  obs::Histogram &H1 = Registry.histogram("x.dist", {1, 2, 4});
  // Bounds of a later registration are ignored; the original object wins.
  obs::Histogram &H2 = Registry.histogram("x.dist", {10, 20});
  EXPECT_EQ(&H1, &H2);
  EXPECT_EQ(H2.bounds(), (std::vector<uint64_t>{1, 2, 4}));
}

TEST(Metrics, ResetZeroesButKeepsHandles) {
  obs::MetricsRegistry Registry;
  obs::Counter &C = Registry.counter("x.count");
  obs::Gauge &G = Registry.gauge("x.size");
  obs::Histogram &H = Registry.histogram("x.dist", obs::pow2Buckets(3));
  C.add(5);
  G.set(-3);
  H.observe(7);
  Registry.reset();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(G.value(), 0);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
  EXPECT_EQ(H.max(), 0u);
  C.add(1); // cached handle still live after reset
  EXPECT_EQ(Registry.counter("x.count").value(), 1u);
}

TEST(Metrics, HistogramBucketing) {
  obs::Histogram H({1, 2, 4});
  H.observe(0); // slot 0 (bound 1 is inclusive upper)
  H.observe(1); // slot 0
  H.observe(2); // slot 1
  H.observe(3); // slot 2 (first bound >= 3 is 4)
  H.observe(4); // slot 2
  H.observe(9); // overflow slot
  EXPECT_EQ(H.numBuckets(), 4u);
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(2), 2u);
  EXPECT_EQ(H.bucketCount(3), 1u);
  EXPECT_EQ(H.count(), 6u);
  EXPECT_EQ(H.sum(), 19u);
  EXPECT_EQ(H.max(), 9u);
  EXPECT_NEAR(H.mean(), 19.0 / 6.0, 1e-9);
}

TEST(Metrics, Pow2Buckets) {
  EXPECT_EQ(obs::pow2Buckets(3), (std::vector<uint64_t>{1, 2, 4, 8}));
}

//===----------------------------------------------------------------------===//
// Golden JSON
//===----------------------------------------------------------------------===//

TEST(Metrics, GoldenJsonEmptyRegistry) {
  obs::MetricsRegistry Registry;
  EXPECT_EQ(Registry.toJson(), "{\n"
                               "  \"counters\": {},\n"
                               "  \"gauges\": {},\n"
                               "  \"histograms\": {}\n"
                               "}\n");
}

TEST(Metrics, GoldenJsonByteStable) {
  obs::MetricsRegistry Registry;
  Registry.counter("b.count").add(3);
  Registry.counter("a.count"); // registered but untouched -> exported as 0
  Registry.gauge("a.size").set(-7);
  obs::Histogram &H = Registry.histogram("a.dist", {1, 2, 4});
  H.observe(1);
  H.observe(3);
  H.observe(8);
  // One metric per line, sorted by name within each section — the contract
  // the bench JSON and the CI schema checker rely on.
  EXPECT_EQ(Registry.toJson(),
            "{\n"
            "  \"counters\": {\n"
            "    \"a.count\": 0,\n"
            "    \"b.count\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"a.size\": -7\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"a.dist\": {\"bounds\": [1,2,4], \"counts\": [1,0,1,1], "
            "\"count\": 3, \"sum\": 12, \"max\": 8, \"mean\": 4}\n"
            "  }\n"
            "}\n");
}

TEST(Metrics, TimingMaskerMasksOnlyTimingFields) {
  obs::MetricsRegistry Registry;
  Registry.counter("work.items").add(2);
  Registry.gauge("work.wall_ns").set(123456);
  Registry.gauge("work.elapsed_ms").set(9);
  unsigned Masked = 0;
  std::string Out = maskTimings(Registry.toJson(), &Masked);
  EXPECT_EQ(Masked, 2u);
  EXPECT_NE(Out.find("\"work.wall_ns\": \"T\""), std::string::npos);
  EXPECT_NE(Out.find("\"work.elapsed_ms\": \"T\""), std::string::npos);
  EXPECT_NE(Out.find("\"work.items\": 2"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Compile telemetry export
//===----------------------------------------------------------------------===//

TEST(CompileTelemetry, ExportIsByteStableModuloTimings) {
  const std::vector<std::string> Rules = {"ab+c", "x[yz]{2,3}", "(a|b)c"};
  auto Export = [&Rules]() {
    Result<CompileArtifacts> Artifacts = compileRuleset(Rules, {});
    EXPECT_TRUE(Artifacts.ok());
    obs::MetricsRegistry Registry;
    Artifacts->Telemetry.recordTo(Registry);
    return Registry.toJson();
  };
  unsigned MaskedA = 0, MaskedB = 0;
  std::string A = maskTimings(Export(), &MaskedA);
  std::string B = maskTimings(Export(), &MaskedB);
  EXPECT_EQ(A, B) << "compile telemetry not deterministic modulo timings";
  EXPECT_EQ(MaskedA, 6u)
      << "one wall_ns gauge per pipeline stage plus the validation proofs";
  EXPECT_EQ(MaskedA, MaskedB);

  // Every stage exports the full metric family.
  for (const char *Stage : {"front_end", "ast_to_fsa", "single_opt",
                            "merging", "back_end"})
    for (const char *Field : {"rules_in", "rules_out", "states_out",
                              "transitions_out"})
      EXPECT_NE(A.find("\"compile." + std::string(Stage) + "." + Field +
                       "\""),
                std::string::npos)
          << Stage << "." << Field;
  EXPECT_NE(A.find("\"compile.quarantined_rules\": 0"), std::string::npos);
  EXPECT_NE(A.find("\"compile.peak.merged_states\""), std::string::npos);
  EXPECT_NE(A.find("\"analysis.inclusion.proofs\""), std::string::npos);
}

TEST(CostTelemetry, ExportIsGoldenModuloTimings) {
  const std::vector<std::string> Rules = {"a[ab]*b", "ab*", "foobar"};
  obs::MetricsRegistry Registry;
  const Mfsa Z = mergePatterns(Rules);
  CostReport Report;
  Report.Shape = computeShape(Z);
  Report.Dfa = probeDfaBlowup(Z);
  Report.Literals = profileLiterals(Z, Rules);
  Report.recordTo(Registry);
  unsigned Masked = 0;
  EXPECT_EQ(maskTimings(Registry.toJson(), &Masked),
            "{\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {\n"
            "    \"analysis.cost.dfa_probe_completed\": 1,\n"
            "    \"analysis.cost.dfa_probe_implied\": 0,\n"
            "    \"analysis.cost.dfa_probe_states\": 9,\n"
            "    \"analysis.cost.dfa_probe_wall_ms\": \"T\",\n"
            "    \"analysis.cost.distinct_first_bytes\": 1,\n"
            "    \"analysis.cost.prefilterable_rules\": 1\n"
            "  },\n"
            "  \"histograms\": {}\n"
            "}\n");
  EXPECT_EQ(Masked, 1u) << "the DFA probe's wall_ms";
}

//===----------------------------------------------------------------------===//
// Scan instrumentation (compiled out in plain Release builds)
//===----------------------------------------------------------------------===//

TEST(ScanMetrics, ImfantCountersExactUnderFullSampling) {
  if (!obs::kScanMetricsCompiledIn)
    GTEST_SKIP() << "scan instrumentation compiled out (NDEBUG without "
                    "MFSA_METRICS=1)";
  obs::setScanSampleEvery(1);

  Mfsa Z = mergePatterns({"ab", "b+"});
  ImfantEngine Engine(Z);
  obs::MetricsRegistry Registry;
  Engine.setMetrics(&Registry);

  const std::string Input = "abbaba";
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  Engine.run(Input, Recorder);

  EXPECT_EQ(Registry.counter("imfant.bytes_scanned").value(), Input.size());
  EXPECT_EQ(Registry.counter("imfant.matches").value(), Recorder.total());
  EXPECT_GT(Registry.counter("imfant.transitions_touched").value(), 0u);
  // Sampling period 1 => one occupancy sample per consumed byte.
  EXPECT_EQ(Registry.histogram("imfant.frontier_size", {}).count(),
            Input.size());
  EXPECT_EQ(Registry.histogram("imfant.active_rules", {}).count(),
            Input.size());
  EXPECT_GT(Registry.gauge("imfant.states").value(), 0);
  EXPECT_EQ(Registry.gauge("imfant.rules").value(), 2);

  // A second run keeps accumulating into the same registry.
  Engine.run(Input, Recorder);
  EXPECT_EQ(Registry.counter("imfant.bytes_scanned").value(),
            2 * Input.size());

  // Detaching stops the flow.
  Engine.setMetrics(nullptr);
  Engine.run(Input, Recorder);
  EXPECT_EQ(Registry.counter("imfant.bytes_scanned").value(),
            2 * Input.size());
}

//===----------------------------------------------------------------------===//
// Trace sink event stream
//===----------------------------------------------------------------------===//

namespace {

/// Records the event stream and enforces the TraceSink ordering contract
/// inline: per step deactivations, then activations, then matches, then the
/// step summary; activations/deactivations must toggle coherently.
class CheckingSink : public TraceSink {
public:
  enum Phase { Deact = 0, Act = 1, Match = 2, Step = 3 };

  void onRuleDeactivated(RuleId Rule, uint64_t Offset) override {
    advance(Deact, Offset);
    EXPECT_TRUE(ActiveNow.count(Rule))
        << "rule " << Rule << " deactivated while inactive @" << Offset;
    ActiveNow.erase(Rule);
    Events.push_back("deact r" + std::to_string(Rule) + " @" +
                     std::to_string(Offset));
    ++Deactivations;
  }
  void onRuleActivated(RuleId Rule, uint64_t Offset) override {
    advance(Act, Offset);
    EXPECT_FALSE(ActiveNow.count(Rule))
        << "rule " << Rule << " activated twice @" << Offset;
    ActiveNow.insert(Rule);
    Events.push_back("act r" + std::to_string(Rule) + " @" +
                     std::to_string(Offset));
    ++Activations;
  }
  void onMatch(RuleId Rule, uint32_t GlobalId, uint64_t Offset) override {
    advance(Match, Offset);
    Events.push_back("match r" + std::to_string(Rule) + " g" +
                     std::to_string(GlobalId) + " @" +
                     std::to_string(Offset));
    ++Matches;
  }
  void onStep(uint64_t Offset, unsigned char /*Symbol*/,
              uint32_t /*ActiveStates*/, uint32_t ActiveRules) override {
    advance(Step, Offset);
    EXPECT_EQ(ActiveRules, ActiveNow.size())
        << "occupancy summary disagrees with the event stream @" << Offset;
    Events.push_back("step @" + std::to_string(Offset));
    CurrentPhase = -1; // next event belongs to the next step
    ++Steps;
  }

  std::vector<std::string> Events;
  std::set<RuleId> ActiveNow;
  unsigned Activations = 0, Deactivations = 0, Matches = 0, Steps = 0;

private:
  /// Phases may be skipped but never revisited within one step.
  void advance(int Phase, uint64_t Offset) {
    EXPECT_GE(Phase, CurrentPhase)
        << "event out of order @" << Offset << ": phase " << Phase
        << " after " << CurrentPhase;
    CurrentPhase = Phase;
  }

  int CurrentPhase = -1;
};

} // namespace

TEST(Trace, EventOrderingAndBookkeeping) {
  Mfsa Z = mergePatterns({"ab", "b+"});
  const std::string Input = "abba";

  CheckingSink Sink;
  replayTrace(Z, Input, Sink);

  EXPECT_EQ(Sink.Steps, Input.size()) << "one summary per consumed symbol";
  EXPECT_FALSE(Sink.Events.empty());
  EXPECT_EQ(Sink.Events.back(), "step @" + std::to_string(Input.size()));

  // The sink's running active set must agree with the trace snapshots.
  std::vector<TraceStep> Trace = traceActivation(Z, Input);
  ASSERT_EQ(Trace.size(), Input.size());
  std::set<RuleId> FinalActive;
  for (const TraceStep::ActiveEntry &Entry : Trace.back().Active)
    FinalActive.insert(Entry.ActiveRules.begin(), Entry.ActiveRules.end());
  EXPECT_EQ(Sink.ActiveNow, FinalActive);

  // Match events mirror the snapshot matches one-to-one.
  unsigned SnapshotMatches = 0;
  for (const TraceStep &Step : Trace)
    SnapshotMatches += static_cast<unsigned>(Step.Matches.size());
  EXPECT_EQ(Sink.Matches, SnapshotMatches);

  // "b+" self-extends: it must activate, survive, and deactivate when the
  // run of b's ends, so both event kinds fire on this input.
  EXPECT_GT(Sink.Activations, 0u);
  EXPECT_GT(Sink.Deactivations, 0u);
}

TEST(Trace, ReplayMatchesEngineSemantics) {
  Mfsa Z = mergePatterns({"ab", "b+", "a[ab]*b"});
  Rng Random(31337);
  for (int Trial = 0; Trial < 10; ++Trial) {
    std::string Input = randomInput(Random, 24);
    CheckingSink Sink;
    replayTrace(Z, Input, Sink);

    ImfantEngine Engine(Z);
    MatchRecorder Recorder;
    Engine.run(Input, Recorder);
    EXPECT_EQ(Sink.Matches, Recorder.total()) << "input " << Input;
  }
}

TEST(Trace, MetricsTraceSinkFoldsEventStream) {
  Mfsa Z = mergePatterns({"ab", "b+"});
  const std::string Input = "abbab";

  CheckingSink Reference;
  replayTrace(Z, Input, Reference);

  obs::MetricsRegistry Registry;
  MetricsTraceSink Sink(Registry);
  replayTrace(Z, Input, Sink);

  EXPECT_EQ(Registry.counter("trace.steps").value(), Reference.Steps);
  EXPECT_EQ(Registry.counter("trace.activations").value(),
            Reference.Activations);
  EXPECT_EQ(Registry.counter("trace.deactivations").value(),
            Reference.Deactivations);
  EXPECT_EQ(Registry.counter("trace.matches").value(), Reference.Matches);
  EXPECT_EQ(Registry.histogram("trace.active_rules", {}).count(),
            Reference.Steps);
  EXPECT_EQ(Registry.histogram("trace.active_states", {}).count(),
            Reference.Steps);
}
