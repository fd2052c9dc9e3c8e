//===- imfant_run.cpp - the iMFAnt matcher driver ------------------------------===//
//
// Part of the mfsa project. MIT License.
//
// Command-line matcher, the analogue of the artifact's multithreaded_imfant:
//
//   $ ./imfant_run -t 4 -r 15 stream.bin out.anml [more.anml ...]
//   $ ./imfant_run --load-artifact rules.mfsa stream.bin
//
// loads extended-ANML automata — or a compiled binary artifact (mfsac
// --emit-artifact) with corruption-hardened validation and optional
// recompile fallback — scans the stream with T worker threads pulling
// automata from a shared queue (paper §VI-C2), and prints the best matching
// time over R repetitions (the artifact's -DREPS) and per-automaton match
// counts.
//
//===----------------------------------------------------------------------===//

#include "anml/Anml.h"
#include "artifact/Reader.h"
#include "engine/Imfant.h"
#include "engine/Parallel.h"
#include "engine/PlannedEngine.h"
#include "obs/Metrics.h"
#include "support/Timer.h"

#include "CliInput.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace mfsa;

static void usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [-t threads] [-r reps] [-v] stream.bin "
               "mfsa.anml [...]\n"
               "       %s [options] --load-artifact rules.mfsa stream.bin\n"
               "  -t threads  worker threads, one automaton each (default "
               "1)\n"
               "  --input-threads n  split the ONE input stream into n "
               "chunks\n"
               "              scanned in parallel with frontier-set "
               "boundary\n"
               "              stitching (byte-identical output; with "
               "--engine\n"
               "              auto the planner may decline and scan "
               "sequentially)\n"
               "  -r reps     timed repetitions, best-of (default 1)\n"
               "  -v          print every (rule, offset) match pair\n"
               "  --load-artifact path  load compiled MFSAs from a binary\n"
               "              artifact (validated end to end before use)\n"
               "  --fallback-rules file  if the artifact is rejected,\n"
               "              recompile these rules instead of failing\n"
               "  --spot-check  also prove sampled artifact rules' languages\n"
               "              against a fresh compile of the embedded "
               "patterns\n"
               "  --engine e  execution engine: auto|dense|dfa|stride2|\n"
               "              prefilter (default dense; auto asks the\n"
               "              static cost planner)\n"
               "  --explain-plan  with --engine auto, print the planner's\n"
               "              JSON decision trace before running\n"
               "  --metrics   dump scan instrumentation after the run "
               "(text; --metrics=json for JSON; counters need a build "
               "with MFSA_METRICS=1 or asserts)\n"
               "exit codes: 0 ok, 1 error, 2 usage, 3 missing/unreadable "
               "input,\n"
               "            4 empty input, 5 artifact rejected with no "
               "usable fallback\n",
               Prog, Prog);
}

int main(int argc, char **argv) {
  unsigned Threads = 1;
  unsigned Reps = 1;
  bool Verbose = false;
  bool Metrics = false;
  bool MetricsJson = false;
  bool SpotCheck = false;
  bool ExplainPlan = false;
  Engine EngineChoice = Engine::ImfantDense;
  std::string ArtifactPath;
  std::string FallbackRulesPath;
  std::vector<std::string> Paths;

  unsigned InputThreads = 1;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "-t") && I + 1 < argc)
      Threads = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--input-threads") && I + 1 < argc)
      InputThreads = static_cast<unsigned>(std::max(1, std::atoi(argv[++I])));
    else if (!std::strcmp(argv[I], "-r") && I + 1 < argc)
      Reps = std::max(1, std::atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "-v"))
      Verbose = true;
    else if (!std::strcmp(argv[I], "--load-artifact") && I + 1 < argc)
      ArtifactPath = argv[++I];
    else if (!std::strcmp(argv[I], "--fallback-rules") && I + 1 < argc)
      FallbackRulesPath = argv[++I];
    else if (!std::strcmp(argv[I], "--spot-check"))
      SpotCheck = true;
    else if (!std::strcmp(argv[I], "--engine") && I + 1 < argc) {
      if (int Rc = cli::parseEngineFlag(argv[++I], EngineChoice))
        return Rc;
    } else if (!std::strcmp(argv[I], "--explain-plan"))
      ExplainPlan = true;
    else if (!std::strcmp(argv[I], "--metrics"))
      Metrics = true;
    else if (!std::strcmp(argv[I], "--metrics=json"))
      Metrics = MetricsJson = true;
    else if (argv[I][0] == '-') {
      usage(argv[0]);
      return cli::kExitUsage;
    } else
      Paths.push_back(argv[I]);
  }
  const size_t WantPaths = ArtifactPath.empty() ? 2 : 1;
  if (Paths.size() < WantPaths ||
      (!ArtifactPath.empty() && Paths.size() != 1)) {
    usage(argv[0]);
    return cli::kExitUsage;
  }

  std::string Stream;
  if (int Rc = cli::readInputFile(Paths[0], "input stream", Stream))
    return Rc;

  // The registry exists unconditionally so the artifact loader's
  // `artifact.load.*` / `artifact.fallback.*` metrics are counted whether or
  // not --metrics later dumps them.
  obs::MetricsRegistry Registry;

  // Both input paths produce merged MFSAs (plus, when the artifact embeds
  // them, the original patterns) so every engine choice shares one setup.
  std::vector<Mfsa> Mfsas;
  std::vector<std::string> MfsaNames;
  std::vector<std::string> RulePatterns;
  if (!ArtifactPath.empty()) {
    std::vector<std::string> FallbackRules;
    if (!FallbackRulesPath.empty())
      if (int Rc = cli::readRulesFile(FallbackRulesPath, FallbackRules))
        return Rc;
    artifact::LoadOptions LoadOptions;
    LoadOptions.SpotCheckValidate = SpotCheck;
    Result<artifact::RecoveredRuleset> Recovered =
        artifact::loadArtifactOrRecompile(ArtifactPath, FallbackRules, {},
                                          LoadOptions, &Registry);
    if (!Recovered.ok()) {
      std::fprintf(stderr, "error: %s\n", Recovered.diag().render().c_str());
      return FallbackRules.empty() ? cli::kExitArtifactRejected
                                   : cli::kExitRuntime;
    }
    if (!Recovered->FromArtifact)
      std::fprintf(stderr,
                   "warning: artifact rejected, recompiled %zu fallback "
                   "rule(s): %s\n",
                   FallbackRules.size(), Recovered->FallbackReason.c_str());
    RulePatterns = std::move(Recovered->Patterns);
    Mfsas = std::move(Recovered->Mfsas);
    for (size_t I = 0; I < Mfsas.size(); ++I)
      MfsaNames.push_back(ArtifactPath + "[" + std::to_string(I) + "]");
  } else {
    for (size_t I = 1; I < Paths.size(); ++I) {
      std::string Doc;
      if (int Rc = cli::readInputFile(Paths[I], "ANML file", Doc))
        return Rc;
      Result<Mfsa> Z = readAnml(Doc);
      if (!Z.ok()) {
        std::fprintf(stderr, "error: %s: %s\n", Paths[I].c_str(),
                     Z.diag().render().c_str());
        return cli::kExitRuntime;
      }
      Mfsas.push_back(std::move(*Z));
      MfsaNames.push_back(Paths[I]);
    }
  }

  // Resolve --engine auto through the static cost planner, then run any
  // non-dense choice — or any --input-threads request — through the uniform
  // PlannedEngineSet driver (group-sequential). The plain dense default
  // keeps the historical multithreaded runParallel path below.
  bool InputParallel = InputThreads > 1;
  if (EngineChoice != Engine::ImfantDense || InputParallel) {
    EnginePlan Plan;
    if (EngineChoice == Engine::Auto) {
      PlannerOptions PO;
      PO.InputThreads = InputThreads;
      Plan = planMfsas(Mfsas, RulePatterns, 0, PO);
      if (ExplainPlan)
        std::printf("%s\n", Plan.explainJson().c_str());
      if (Metrics)
        Plan.recordTo(Registry);
      EngineChoice = Plan.Choice;
      if (InputParallel && !Plan.ParallelInput) {
        std::fprintf(stderr,
                     "note: planner declined input-parallel scan (%s); "
                     "scanning sequentially\n",
                     Plan.ParallelInputWhy.c_str());
        InputParallel = false;
      }
    }
    Result<PlannedEngineSet> Set =
        PlannedEngineSet::create(EngineChoice, Mfsas, RulePatterns);
    if (!Set.ok()) {
      std::fprintf(stderr,
                   "warning: %s engine unavailable (%s); falling back to "
                   "dense\n",
                   engineName(EngineChoice), Set.diag().render().c_str());
      EngineChoice = Engine::ImfantDense;
    } else {
      InputParallelOptions ParOpts;
      ParOpts.Threads = InputThreads;
      MatchRecorder Recorder(Verbose ? MatchRecorder::Mode::Collect
                                     : MatchRecorder::Mode::CountOnly);
      InputParallelStats ParStats;
      Timer Clock;
      if (InputParallel)
        Set->runInputParallel(Stream, Recorder, ParOpts, &ParStats);
      else
        Set->run(Stream, Recorder);
      double Best = Clock.elapsedNs() * 1e-9;
      for (unsigned Rep = 1; Rep < Reps; ++Rep) {
        MatchRecorder Again(MatchRecorder::Mode::CountOnly);
        Clock.reset();
        if (InputParallel)
          Set->runInputParallel(Stream, Again, ParOpts);
        else
          Set->run(Stream, Again);
        Best = std::min(Best, Clock.elapsedNs() * 1e-9);
      }
      std::printf("scanned %zu bytes with the %s engine (%zu group(s))\n",
                  Stream.size(), engineName(EngineChoice), Set->numGroups());
      if (InputParallel) {
        std::printf("input-parallel: %lu chunk(s), %lu re-scanned in full, "
                    "%lu overlap byte(s)\n",
                    static_cast<unsigned long>(ParStats.Chunks),
                    static_cast<unsigned long>(ParStats.RescanFallbackChunks),
                    static_cast<unsigned long>(ParStats.OverlapBytes));
        if (Metrics)
          recordInputParallelStats(ParStats, Registry);
      }
      std::printf("matching time: %.6f s (%.2f MB/s)\n", Best,
                  static_cast<double>(Stream.size()) / (Best * 1e6));
      std::printf("total matches: %lu\n",
                  static_cast<unsigned long>(Recorder.total()));
      if (Verbose)
        for (const auto &[Rule, End] : Recorder.matches())
          std::printf("    rule %u @ %lu\n", Rule,
                      static_cast<unsigned long>(End));
      if (Metrics)
        std::printf("%s", MetricsJson ? Registry.toJson().c_str()
                                      : Registry.toText().c_str());
      return 0;
    }
  }

  std::vector<ImfantEngine> Engines;
  std::vector<std::string> EngineNames;
  for (size_t I = 0; I < Mfsas.size(); ++I) {
    Engines.emplace_back(Mfsas[I]);
    EngineNames.push_back(MfsaNames[I]);
  }

  if (Metrics)
    for (ImfantEngine &Engine : Engines)
      Engine.setMetrics(&Registry);

  std::vector<MatchRecorder> Recorders;
  Recorders.reserve(Engines.size());
  for (size_t I = 0; I < Engines.size(); ++I)
    Recorders.emplace_back(Verbose ? MatchRecorder::Mode::Collect
                                   : MatchRecorder::Mode::CountOnly);

  ParallelRunResult Result = runParallel(Engines, Stream, Threads, &Recorders);
  for (unsigned Rep = 1; Rep < Reps; ++Rep) {
    ParallelRunResult Again = runParallel(Engines, Stream, Threads);
    if (Again.WallSeconds < Result.WallSeconds)
      Result.WallSeconds = Again.WallSeconds;
  }

  std::printf("scanned %zu bytes with %zu automaton/automata on %u "
              "thread(s)\n",
              Stream.size(), Engines.size(), Threads);
  std::printf("matching time: %.6f s (%.2f MB/s aggregate)\n",
              Result.WallSeconds,
              static_cast<double>(Stream.size()) * Engines.size() /
                  (Result.WallSeconds * 1e6));
  std::printf("total matches: %lu\n",
              static_cast<unsigned long>(Result.TotalMatches));
  for (size_t I = 0; I < Recorders.size(); ++I) {
    std::printf("  %s: %lu matches\n", EngineNames[I].c_str(),
                static_cast<unsigned long>(Recorders[I].total()));
    if (Verbose)
      for (const auto &[Rule, End] : Recorders[I].matches())
        std::printf("    rule %u @ %lu\n", Rule,
                    static_cast<unsigned long>(End));
  }
  if (Metrics)
    std::printf("%s", MetricsJson ? Registry.toJson().c_str()
                                  : Registry.toText().c_str());
  return 0;
}
