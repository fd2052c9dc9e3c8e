//===- ArtifactTest.cpp - artifact round-trip and corruption hardening --------===//
//
// Part of the mfsa project. MIT License.
//
// Exercises the compiled-MFSA artifact subsystem end to end: byte-exact
// round trips through serialize -> write -> mmap -> validate -> materialize,
// cross-engine differential equivalence of artifact-built engines against
// in-memory compiles, images from older writers, and — the robustness
// headline — a battery of corrupted images (truncations, bit flips, section
// offset swaps, checksum-fixed structural mutants) that must every one be
// rejected with a one-line diagnostic, never a crash, with the fallback
// recompile path keeping the ruleset serviceable throughout.
//
// Mutants come in two tiers on purpose: raw mutations prove the checksum
// layers catch accidental corruption; mutations followed by fixChecksums()
// (recomputing every CRC the way a deliberate attacker could) prove the
// structural validation ladder stands on its own underneath the checksums.
//
//===----------------------------------------------------------------------===//

#include "artifact/Format.h"
#include "artifact/Reader.h"
#include "artifact/Writer.h"
#include "compiler/Pipeline.h"
#include "engine/DfaEngine.h"
#include "engine/Imfant.h"
#include "engine/MultiStride.h"
#include "engine/PlannedEngine.h"
#include "fsa/Determinize.h"
#include "obs/Metrics.h"
#include "support/Checksum.h"
#include "support/Endian.h"
#include "workload/Datasets.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

using namespace mfsa;
using namespace mfsa::artifact;
using namespace mfsa::test;

namespace {

using RuleEnds = std::map<uint32_t, std::set<size_t>>;

/// A per-test temp directory under TMPDIR, removed on destruction.
class TempDir {
public:
  TempDir() {
    const char *Base = std::getenv("TMPDIR");
    std::string Template =
        std::string(Base ? Base : "/tmp") + "/mfsa-artifact-XXXXXX";
    std::vector<char> Buf(Template.begin(), Template.end());
    Buf.push_back('\0');
    const char *Made = mkdtemp(Buf.data());
    EXPECT_NE(Made, nullptr);
    Path = Made ? Made : "";
  }
  ~TempDir() {
    if (Path.empty())
      return;
    // Only this suite's files land here; remove them then the directory.
    if (DIR *D = opendir(Path.c_str())) {
      while (struct dirent *E = readdir(D)) {
        const std::string Name = E->d_name;
        if (Name != "." && Name != "..")
          ::unlink((Path + "/" + Name).c_str());
      }
      closedir(D);
    }
    ::rmdir(Path.c_str());
  }
  std::string file(const std::string &Name) const { return Path + "/" + Name; }

private:
  std::string Path;
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// Recomputes every checksum of a (possibly mutated) image in place: each
/// section CRC from its current payload, then the file CRC, then the header
/// CRC. This is exactly what a deliberate tamperer could do, so anything
/// that fixChecksums cannot hide must be caught by structural validation.
void fixChecksums(std::string &Image) {
  ASSERT_GE(Image.size(), kHeaderBytes);
  uint8_t *D = reinterpret_cast<uint8_t *>(Image.data());
  const uint32_t NumSections = loadLE32(D + 36);
  for (uint32_t I = 0; I < NumSections; ++I) {
    uint8_t *E = D + kHeaderBytes + uint64_t(I) * kSectionEntryBytes;
    if (E + kSectionEntryBytes > D + Image.size())
      break;
    const uint64_t Offset = loadLE64(E + 8);
    const uint64_t Bytes = loadLE64(E + 16);
    if (Offset <= Image.size() && Bytes <= Image.size() - Offset)
      storeLE32(E + 32, crc32c(D + Offset, Bytes));
  }
  storeLE32(D + 56, crc32c(D + kHeaderBytes, Image.size() - kHeaderBytes));
  storeLE32(D + 60, 0);
  storeLE32(D + 60, crc32c(D, kHeaderBytes));
}

/// Per-global-rule match ends of \p Input under every MFSA of \p Mfsas,
/// merged (engines report GlobalIds, so the union is well-defined).
RuleEnds imfantEnds(const std::vector<Mfsa> &Mfsas, const std::string &Input) {
  RuleEnds All;
  for (const Mfsa &Z : Mfsas) {
    ImfantEngine Engine(Z);
    MatchRecorder Recorder(MatchRecorder::Mode::Collect);
    Engine.run(Input, Recorder);
    for (const auto &[Rule, End] : Recorder.matches())
      All[Rule].insert(static_cast<size_t>(End));
  }
  return All;
}

/// Compiles, emits, and reloads \p Patterns; fails the test on any step.
/// \returns the loaded artifact (engine views stay valid while it lives).
Result<LoadedArtifact> roundTrip(const TempDir &Dir,
                                 const std::vector<std::string> &Patterns,
                                 uint32_t MergingFactor = 0,
                                 const LoadOptions &Load = {},
                                 obs::MetricsRegistry *Metrics = nullptr) {
  CompileOptions Options;
  Options.MergingFactor = MergingFactor;
  Options.EmitAnml = false;
  Result<CompileArtifacts> Compiled = compileRuleset(Patterns, Options);
  EXPECT_TRUE(Compiled.ok()) << formatPatterns(Patterns);
  if (!Compiled.ok())
    return Result<LoadedArtifact>::error("compile failed");
  ArtifactWriteOptions Write;
  Write.MergingFactor = MergingFactor;
  const std::string Path = Dir.file("roundtrip.mfsa");
  Result<uint64_t> Written =
      writeArtifactFile(Path, Compiled->Mfsas, Patterns, Write);
  EXPECT_TRUE(Written.ok()) << (Written.ok() ? "" : Written.diag().render());
  return loadArtifact(Path, Load, Metrics);
}

//===--------------------------------------------------------------------===//
// Round trip: the loaded image IS the compiled automaton.
//===--------------------------------------------------------------------===//

const std::vector<std::string> kSmallRuleset = {
    "abc",       "a[bc]+d",   "(ab|cd)e*f", "x{2,4}y",
    "^anchored", "suffix$",   "lit(eral)?", "[a-d]{3}z",
};

TEST(ArtifactRoundTrip, MaterializedMfsasMatchCompiledOnes) {
  TempDir Dir;
  CompileOptions Options;
  Options.MergingFactor = 3; // several MFSAs, exercises per-MFSA sections
  Options.EmitAnml = false;
  Result<CompileArtifacts> Compiled = compileRuleset(kSmallRuleset, Options);
  ASSERT_TRUE(Compiled.ok());

  const std::string Path = Dir.file("rt.mfsa");
  ArtifactWriteOptions Write;
  Write.MergingFactor = 3;
  Result<uint64_t> Written =
      writeArtifactFile(Path, Compiled->Mfsas, kSmallRuleset, Write);
  ASSERT_TRUE(Written.ok()) << Written.diag().render();

  struct stat St;
  ASSERT_EQ(::stat(Path.c_str(), &St), 0);
  EXPECT_EQ(static_cast<uint64_t>(St.st_size), *Written);
  EXPECT_EQ(*Written % kPageBytes, 0u) << "image must be page-padded";

  Result<LoadedArtifact> Loaded = loadArtifact(Path);
  ASSERT_TRUE(Loaded.ok()) << Loaded.diag().render();
  EXPECT_EQ(Loaded->header().MergingFactor, 3u);
  EXPECT_EQ(Loaded->patterns(), kSmallRuleset);
  ASSERT_EQ(Loaded->numMfsas(), Compiled->Mfsas.size());

  std::vector<Mfsa> Restored = Loaded->materializeAll();
  for (size_t I = 0; I < Restored.size(); ++I) {
    const Mfsa &Want = Compiled->Mfsas[I];
    const Mfsa &Got = Restored[I];
    EXPECT_EQ(Got.numStates(), Want.numStates()) << "mfsa " << I;
    EXPECT_EQ(Got.numRules(), Want.numRules()) << "mfsa " << I;
    EXPECT_EQ(Got.numTransitions(), Want.numTransitions()) << "mfsa " << I;
    EXPECT_EQ(Got.verify(), "") << "mfsa " << I;
    for (RuleId R = 0; R < Want.numRules(); ++R) {
      EXPECT_EQ(Got.rule(R).GlobalId, Want.rule(R).GlobalId);
      EXPECT_EQ(Got.rule(R).Initial, Want.rule(R).Initial);
      EXPECT_EQ(Got.rule(R).Finals, Want.rule(R).Finals);
      EXPECT_EQ(Got.rule(R).AnchoredStart, Want.rule(R).AnchoredStart);
      EXPECT_EQ(Got.rule(R).AnchoredEnd, Want.rule(R).AnchoredEnd);
    }
  }
}

TEST(ArtifactRoundTrip, SerializationIsByteStable) {
  CompileOptions Options;
  Options.EmitAnml = false;
  Result<CompileArtifacts> Compiled = compileRuleset(kSmallRuleset, Options);
  ASSERT_TRUE(Compiled.ok());
  Result<std::string> A = serializeArtifact(Compiled->Mfsas, kSmallRuleset);
  Result<std::string> B = serializeArtifact(Compiled->Mfsas, kSmallRuleset);
  ASSERT_TRUE(A.ok() && B.ok());
  EXPECT_EQ(*A, *B) << "same input must serialize to identical bytes";
}

TEST(ArtifactRoundTrip, OlderWritersSimdLevelTwoStillLoads) {
  // Offset 20 is provenance only. Older writers stored their SIMD dispatch
  // level there, 2 on AVX2 hosts; such an image loads and scans like one
  // written now.
  TempDir Dir;
  CompileOptions Options;
  Options.MergingFactor = 4;
  Options.EmitAnml = false;
  Result<CompileArtifacts> Compiled = compileRuleset(kSmallRuleset, Options);
  ASSERT_TRUE(Compiled.ok());
  const std::string NewPath = Dir.file("new.mfsa");
  ASSERT_TRUE(writeArtifactFile(NewPath, Compiled->Mfsas, kSmallRuleset).ok());

  std::string Image = slurp(NewPath);
  uint8_t *D = reinterpret_cast<uint8_t *>(Image.data());
  storeLE32(D + 20, 2);
  storeLE32(D + 60, 0);
  storeLE32(D + 60, crc32c(D, kHeaderBytes));
  const std::string OldPath = Dir.file("old.mfsa");
  spit(OldPath, Image);

  Result<LoadedArtifact> Old = loadArtifact(OldPath);
  ASSERT_TRUE(Old.ok()) << Old.diag().render();
  Result<LoadedArtifact> New = loadArtifact(NewPath);
  ASSERT_TRUE(New.ok()) << New.diag().render();
  EXPECT_EQ(Old->header().SimdLevel, 2u);
  EXPECT_EQ(Old->patterns(), kSmallRuleset);

  const std::vector<Mfsa> OldMfsas = Old->materializeAll();
  const std::vector<Mfsa> NewMfsas = New->materializeAll();
  Rng Random(0xA2);
  for (int Trial = 0; Trial < 4; ++Trial) {
    const std::string Input = randomInput(Random, 64 + Random.nextBelow(64));
    const RuleEnds Expected = imfantEnds(NewMfsas, Input);
    EXPECT_EQ(imfantEnds(OldMfsas, Input), Expected) << Input;
    EXPECT_EQ(oracleRuleEnds(kSmallRuleset, Input), Expected) << Input;
  }
}

//===--------------------------------------------------------------------===//
// Differential: every engine built from the artifact (dense iMFAnt, union
// DFA, stride-2 DFA, prefilter) agrees with the AST oracle.
//===--------------------------------------------------------------------===//

TEST(ArtifactDifferential, FiveEnginesFromArtifactMatchOracle) {
  TempDir Dir;
  const std::vector<std::string> Patterns = {"ab+c", "(a|b)c", "cab{1,3}",
                                             "[ab]cd", "d+e"};
  Result<LoadedArtifact> Loaded = roundTrip(Dir, Patterns);
  ASSERT_TRUE(Loaded.ok()) << Loaded.diag().render();

  std::vector<Mfsa> Mfsas = Loaded->materializeAll();

  // DFA family: per-rule NFAs extracted back out of the artifact MFSAs.
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (const Mfsa &Z : Mfsas)
    for (RuleId R = 0; R < Z.numRules(); ++R) {
      Fsas.push_back(Z.extractRule(R));
      Ids.push_back(Z.rule(R).GlobalId);
    }
  Result<Dfa> UnionDfa = determinize(Fsas, Ids);
  ASSERT_TRUE(UnionDfa.ok()) << UnionDfa.diag().render();
  Result<StridedDfa> Stride2 = makeStride2(*UnionDfa);
  ASSERT_TRUE(Stride2.ok()) << Stride2.diag().render();
  const DfaEngine Dfa(UnionDfa.take());
  const StridedDfaEngine Strided(Stride2.take());

  // Prefilter plan from the artifact MFSAs, with literals from the embedded
  // pattern text.
  Result<PlannedEngineSet> Prefilter =
      PlannedEngineSet::create(Engine::Prefilter, Mfsas, Loaded->patterns());
  ASSERT_TRUE(Prefilter.ok()) << Prefilter.diag().render();

  Rng Random(20260808);
  std::vector<std::string> Inputs = {"", "abcabc"};
  for (int Trial = 0; Trial < 3; ++Trial)
    Inputs.push_back(randomInput(Random, 48 + Random.nextBelow(48)));

  for (const std::string &Input : Inputs) {
    RuleEnds Expected = oracleRuleEnds(Patterns, Input);
    const std::string Tag = "input=\"" + Input + "\"";

    EXPECT_EQ(imfantEnds(Mfsas, Input), Expected) << "engine=imfant " << Tag;
    {
      MatchRecorder Recorder(MatchRecorder::Mode::Collect);
      Dfa.run(Input, Recorder);
      EXPECT_EQ(recorderEnds(Recorder), Expected) << "engine=dfa " << Tag;
    }
    {
      MatchRecorder Recorder(MatchRecorder::Mode::Collect);
      Strided.run(Input, Recorder);
      EXPECT_EQ(recorderEnds(Recorder), Expected) << "engine=stride2 " << Tag;
    }
    {
      MatchRecorder Recorder(MatchRecorder::Mode::Collect);
      Prefilter->run(Input, Recorder);
      EXPECT_EQ(recorderEnds(Recorder), Expected) << "engine=prefilter "
                                                  << Tag;
    }
  }
}

TEST(ArtifactDifferential, TableIDatasetRoundTripPreservesMatches) {
  TempDir Dir;
  for (const char *Abbrev : {"BRO", "TCP"}) {
    const DatasetSpec *Spec = findDataset(Abbrev);
    ASSERT_NE(Spec, nullptr);
    DatasetSpec Sized = *Spec;
    Sized.NumRes = 20; // scaled: the ctest budget, not the paper's
    std::vector<std::string> Patterns = generateRuleset(Sized);
    std::string Stream = generateStream(Sized, Patterns, 1 << 14);

    CompileOptions Options;
    Options.MergingFactor = 8;
    Options.EmitAnml = false;
    Result<CompileArtifacts> Compiled = compileRuleset(Patterns, Options);
    ASSERT_TRUE(Compiled.ok()) << Abbrev;

    const std::string Path = Dir.file(std::string(Abbrev) + ".mfsa");
    ASSERT_TRUE(
        writeArtifactFile(Path, Compiled->Mfsas, Patterns).ok());
    Result<LoadedArtifact> Loaded = loadArtifact(Path);
    ASSERT_TRUE(Loaded.ok()) << Loaded.diag().render();

    EXPECT_EQ(imfantEnds(Loaded->materializeAll(), Stream),
              imfantEnds(Compiled->Mfsas, Stream))
        << Abbrev << ": artifact engines diverge from in-memory compile";
  }
}

//===--------------------------------------------------------------------===//
// Corruption battery: every mutant rejected, never a crash.
//===--------------------------------------------------------------------===//

class ArtifactCorruption : public ::testing::Test {
protected:
  void SetUp() override {
    CompileOptions Options;
    Options.MergingFactor = 4;
    Options.EmitAnml = false;
    Result<CompileArtifacts> Compiled =
        compileRuleset(kSmallRuleset, Options);
    ASSERT_TRUE(Compiled.ok());
    GoodPath = Dir.file("good.mfsa");
    ArtifactWriteOptions Write;
    Write.MergingFactor = 4;
    ASSERT_TRUE(
        writeArtifactFile(GoodPath, Compiled->Mfsas, kSmallRuleset, Write)
            .ok());
    GoodImage = slurp(GoodPath);
    ASSERT_GE(GoodImage.size(), kHeaderBytes);
  }

  /// Writes \p Image to a scratch path and asserts the loader rejects it
  /// with a non-empty diagnostic AND that the fallback path still yields a
  /// working ruleset.
  void expectRejected(const std::string &Image, const std::string &Label) {
    const std::string Path = Dir.file("mutant.mfsa");
    spit(Path, Image);
    Result<LoadedArtifact> Loaded = loadArtifact(Path);
    EXPECT_FALSE(Loaded.ok()) << Label << ": mutant was accepted";
    if (!Loaded.ok()) {
      EXPECT_FALSE(Loaded.diag().Message.empty()) << Label;
    }

    obs::MetricsRegistry Metrics;
    Result<RecoveredRuleset> Recovered = loadArtifactOrRecompile(
        Path, kSmallRuleset, {}, {}, &Metrics);
    ASSERT_TRUE(Recovered.ok()) << Label << ": fallback failed";
    EXPECT_FALSE(Recovered->FromArtifact) << Label;
    EXPECT_FALSE(Recovered->FallbackReason.empty()) << Label;
    EXPECT_EQ(Metrics.counter("artifact.fallback.count").value(), 1u);
    EXPECT_FALSE(Recovered->Mfsas.empty()) << Label;
  }

  TempDir Dir;
  std::string GoodPath;
  std::string GoodImage;
};

TEST_F(ArtifactCorruption, TruncationsRejected) {
  // Dense near the header, sampled through the payload; every prefix is an
  // invalid image (size mismatch at minimum).
  std::vector<size_t> Cuts;
  for (size_t C = 1; C < 200 && C < GoodImage.size(); C += 13)
    Cuts.push_back(C);
  for (size_t C = 256; C < GoodImage.size(); C += 997)
    Cuts.push_back(C);
  Cuts.push_back(GoodImage.size() - 1);
  for (size_t Cut : Cuts)
    expectRejected(GoodImage.substr(0, Cut),
                   "truncate@" + std::to_string(Cut));
}

TEST_F(ArtifactCorruption, BitFlipsAnywhereRejected) {
  // Every byte of the image is under the header or file checksum, so a
  // single flipped bit anywhere — header, table, payload, padding — must be
  // caught. Sampled stride keeps the test fast; the prime avoids aligning
  // with any record size.
  for (size_t Offset = 0; Offset < GoodImage.size(); Offset += 131) {
    std::string Mutant = GoodImage;
    Mutant[Offset] = static_cast<char>(Mutant[Offset] ^ 0x10);
    expectRejected(Mutant, "bitflip@" + std::to_string(Offset));
  }
}

TEST_F(ArtifactCorruption, SectionOffsetSwapRejected) {
  const uint32_t NumSections =
      loadLE32(reinterpret_cast<const uint8_t *>(GoodImage.data()) + 36);
  ASSERT_GE(NumSections, 2u);
  // Swap every adjacent pair's Offset field; raw (checksums stale) and
  // checksum-fixed (structural checks must object on their own).
  for (uint32_t I = 0; I + 1 < NumSections; ++I) {
    std::string Mutant = GoodImage;
    uint8_t *A = reinterpret_cast<uint8_t *>(Mutant.data()) + kHeaderBytes +
                 uint64_t(I) * kSectionEntryBytes + 8;
    uint8_t *B = A + kSectionEntryBytes;
    for (int K = 0; K < 8; ++K)
      std::swap(A[K], B[K]);
    expectRejected(Mutant, "offset-swap-raw@" + std::to_string(I));
    fixChecksums(Mutant);
    expectRejected(Mutant, "offset-swap-fixed@" + std::to_string(I));
  }
}

TEST_F(ArtifactCorruption, ChecksumFixedStructuralMutantsRejected) {
  uint8_t *Base = nullptr;
  const uint32_t NumSections =
      loadLE32(reinterpret_cast<const uint8_t *>(GoodImage.data()) + 36);

  // Locate a section entry of each kind for targeted damage.
  auto findSection = [&](SectionKind Kind, const std::string &Image) {
    const uint8_t *D = reinterpret_cast<const uint8_t *>(Image.data());
    for (uint32_t I = 0; I < NumSections; ++I) {
      const uint8_t *E = D + kHeaderBytes + uint64_t(I) * kSectionEntryBytes;
      if (loadLE32(E) == static_cast<uint32_t>(Kind))
        return std::make_pair(loadLE64(E + 8), loadLE64(E + 24));
    }
    return std::make_pair(uint64_t(0), uint64_t(0));
  };

  struct Mutation {
    const char *Label;
    void (*Apply)(std::string &, uint64_t, uint64_t);
    SectionKind Target;
  };
  const Mutation Mutations[] = {
      {"transition-from-out-of-range",
       [](std::string &M, uint64_t Off, uint64_t) {
         storeLE32(reinterpret_cast<uint8_t *>(M.data()) + Off, 0xFFFFFF);
       },
       SectionKind::Transitions},
      {"transition-label-out-of-range",
       [](std::string &M, uint64_t Off, uint64_t) {
         storeLE32(reinterpret_cast<uint8_t *>(M.data()) + Off + 8, 0xFFFF);
       },
       SectionKind::Transitions},
      {"transition-bel-out-of-range",
       [](std::string &M, uint64_t Off, uint64_t) {
         storeLE32(reinterpret_cast<uint8_t *>(M.data()) + Off + 12, 0xFFFF);
       },
       SectionKind::Transitions},
      {"rule-initial-out-of-range",
       [](std::string &M, uint64_t Off, uint64_t) {
         storeLE32(reinterpret_cast<uint8_t *>(M.data()) + Off, 0xFFFFFF);
       },
       SectionKind::Rules},
      {"rule-finals-range-overflow",
       [](std::string &M, uint64_t Off, uint64_t) {
         storeLE32(reinterpret_cast<uint8_t *>(M.data()) + Off + 16,
                   0xFFFFFF);
       },
       SectionKind::Rules},
      {"final-state-out-of-range",
       [](std::string &M, uint64_t Off, uint64_t) {
         storeLE32(reinterpret_cast<uint8_t *>(M.data()) + Off, 0xFFFFFF);
       },
       SectionKind::Finals},
      {"belonging-set-zeroed",
       [](std::string &M, uint64_t Off, uint64_t) {
         std::memset(M.data() + Off, 0, 8);
       },
       SectionKind::BelPool},
      {"label-zeroed-to-epsilon",
       [](std::string &M, uint64_t Off, uint64_t) {
         std::memset(M.data() + Off, 0, kLabelRecordBytes);
       },
       SectionKind::LabelPool},
      {"meta-state-count-zeroed",
       [](std::string &M, uint64_t Off, uint64_t) {
         storeLE32(reinterpret_cast<uint8_t *>(M.data()) + Off, 0);
       },
       SectionKind::MfsaMeta},
      {"meta-belwords-inflated",
       [](std::string &M, uint64_t Off, uint64_t) {
         storeLE32(reinterpret_cast<uint8_t *>(M.data()) + Off + 12, 7);
       },
       SectionKind::MfsaMeta},
  };
  (void)Base;
  for (const Mutation &Mu : Mutations) {
    std::string Mutant = GoodImage;
    auto [Off, Count] = findSection(Mu.Target, Mutant);
    ASSERT_NE(Off, 0u) << Mu.Label << ": target section missing";
    ASSERT_NE(Count, 0u) << Mu.Label << ": target section empty";
    Mu.Apply(Mutant, Off, Count);
    fixChecksums(Mutant);
    expectRejected(Mutant, Mu.Label);
  }

  // Header-level structural lies, checksum-fixed.
  {
    std::string Mutant = GoodImage; // unknown section kind
    storeLE32(reinterpret_cast<uint8_t *>(Mutant.data()) + kHeaderBytes, 99);
    fixChecksums(Mutant);
    expectRejected(Mutant, "unknown-section-kind");
  }
  {
    std::string Mutant = GoodImage; // future schema version
    storeLE32(reinterpret_cast<uint8_t *>(Mutant.data()) + 8,
              kSchemaVersion + 1);
    fixChecksums(Mutant);
    expectRejected(Mutant, "future-schema-version");
  }
  {
    std::string Mutant = GoodImage; // absurd MFSA count
    storeLE32(reinterpret_cast<uint8_t *>(Mutant.data()) + 32, 1u << 20);
    fixChecksums(Mutant);
    expectRejected(Mutant, "implausible-mfsa-count");
  }
}

TEST_F(ArtifactCorruption, SpotCheckCatchesSemanticLabelTampering) {
  // Flip symbols inside a label record: structurally valid (non-empty
  // label, all indices in range) but the automaton's language changed.
  // Structural load accepts it; the opt-in spot check must refute it.
  const uint8_t *D = reinterpret_cast<const uint8_t *>(GoodImage.data());
  const uint32_t NumSections = loadLE32(D + 36);
  uint64_t LabelOff = 0;
  for (uint32_t I = 0; I < NumSections; ++I) {
    const uint8_t *E = D + kHeaderBytes + uint64_t(I) * kSectionEntryBytes;
    if (loadLE32(E) == static_cast<uint32_t>(SectionKind::LabelPool) &&
        loadLE64(E + 24) > 0) {
      LabelOff = loadLE64(E + 8);
      break;
    }
  }
  ASSERT_NE(LabelOff, 0u);
  std::string Mutant = GoodImage;
  // xor keeps the record non-empty (flips 'a'..'h' membership words).
  Mutant[LabelOff + 12] = static_cast<char>(Mutant[LabelOff + 12] ^ 0x5A);
  fixChecksums(Mutant);

  const std::string Path = Dir.file("tampered.mfsa");
  spit(Path, Mutant);

  LoadOptions Structural;
  Result<LoadedArtifact> Accepted = loadArtifact(Path, Structural);
  if (!Accepted.ok())
    GTEST_SKIP() << "structural verifier already caught this mutation: "
                 << Accepted.diag().render();

  LoadOptions Checked;
  Checked.SpotCheckValidate = true;
  Checked.SpotCheckMaxRules = 64; // sample every rule of the small set
  Result<LoadedArtifact> Refuted = loadArtifact(Path, Checked);
  EXPECT_FALSE(Refuted.ok())
      << "spot check accepted a semantically tampered artifact";
}

TEST_F(ArtifactCorruption, MissingEmptyAndJunkFilesRejected) {
  Result<LoadedArtifact> Missing = loadArtifact(Dir.file("nope.mfsa"));
  EXPECT_FALSE(Missing.ok());

  const std::string EmptyPath = Dir.file("empty.mfsa");
  spit(EmptyPath, "");
  Result<LoadedArtifact> Empty = loadArtifact(EmptyPath);
  EXPECT_FALSE(Empty.ok());
  EXPECT_NE(Empty.diag().Message.find("empty"), std::string::npos);

  const std::string JunkPath = Dir.file("junk.mfsa");
  std::string Junk;
  for (int I = 0; I < 400; ++I)
    Junk += "not an artifact. ";
  spit(JunkPath, Junk);
  Result<LoadedArtifact> Bad = loadArtifact(JunkPath);
  EXPECT_FALSE(Bad.ok());
  EXPECT_NE(Bad.diag().Message.find("magic"), std::string::npos);

  const std::string DirPath = Dir.file("adir");
  ASSERT_EQ(::mkdir(DirPath.c_str(), 0755), 0);
  Result<LoadedArtifact> NotRegular = loadArtifact(DirPath);
  EXPECT_FALSE(NotRegular.ok());
  ::rmdir(DirPath.c_str());
}

TEST_F(ArtifactCorruption, ResourceCeilingsRejectDeclaredGiants) {
  // Inflate the declared transition count (meta + section Count would have
  // to agree, so lie in the ceiling's face only): loader must refuse before
  // allocating, not after.
  LoadOptions Tiny;
  Tiny.MaxTransitions = 1; // below any real MFSA here
  Result<LoadedArtifact> Loaded = loadArtifact(GoodPath, Tiny);
  EXPECT_FALSE(Loaded.ok());
  EXPECT_NE(Loaded.diag().Message.find("ceiling"), std::string::npos);
}

//===--------------------------------------------------------------------===//
// Crash safety and fault injection.
//===--------------------------------------------------------------------===//

TEST(ArtifactCrashSafety, FailedRewriteKeepsOldArtifactIntact) {
  TempDir Dir;
  const std::vector<std::string> RulesV1 = {"abc", "def"};
  const std::vector<std::string> RulesV2 = {"xyz+"};
  const std::string Path = Dir.file("stable.mfsa");

  CompileOptions Options;
  Options.EmitAnml = false;
  Result<CompileArtifacts> V1 = compileRuleset(RulesV1, Options);
  ASSERT_TRUE(V1.ok());
  ASSERT_TRUE(writeArtifactFile(Path, V1->Mfsas, RulesV1).ok());
  const std::string V1Image = slurp(Path);

  // A rewrite that dies mid-serialization must leave the old image alone.
  Result<CompileArtifacts> V2 = compileRuleset(RulesV2, Options);
  ASSERT_TRUE(V2.ok());
  ASSERT_EQ(setenv("MFSA_FAULT_STAGE", "serialize:0", 1), 0);
  Result<uint64_t> Failed = writeArtifactFile(Path, V2->Mfsas, RulesV2);
  unsetenv("MFSA_FAULT_STAGE");
  EXPECT_FALSE(Failed.ok());
  EXPECT_EQ(slurp(Path), V1Image) << "failed write altered the destination";
  Result<LoadedArtifact> StillV1 = loadArtifact(Path);
  ASSERT_TRUE(StillV1.ok());
  EXPECT_EQ(StillV1->patterns(), RulesV1);

  // A successful rewrite atomically replaces it.
  ASSERT_TRUE(writeArtifactFile(Path, V2->Mfsas, RulesV2).ok());
  Result<LoadedArtifact> NowV2 = loadArtifact(Path);
  ASSERT_TRUE(NowV2.ok());
  EXPECT_EQ(NowV2->patterns(), RulesV2);
}

TEST(ArtifactCrashSafety, NoTempFilesSurviveFailure) {
  TempDir Dir;
  CompileOptions Options;
  Options.EmitAnml = false;
  Result<CompileArtifacts> Compiled = compileRuleset({"abc"}, Options);
  ASSERT_TRUE(Compiled.ok());
  ASSERT_EQ(setenv("MFSA_FAULT_STAGE", "serialize:0", 1), 0);
  Result<uint64_t> Failed =
      writeArtifactFile(Dir.file("a.mfsa"), Compiled->Mfsas, {"abc"});
  unsetenv("MFSA_FAULT_STAGE");
  EXPECT_FALSE(Failed.ok());

  // Nothing — neither destination nor temp — may remain.
  DIR *D = opendir(Dir.file("").c_str());
  ASSERT_NE(D, nullptr);
  int Entries = 0;
  while (struct dirent *E = readdir(D)) {
    const std::string Name = E->d_name;
    if (Name != "." && Name != "..")
      ++Entries;
  }
  closedir(D);
  EXPECT_EQ(Entries, 0) << "leftover files after failed artifact write";
}

TEST(ArtifactFaultInjection, LoadStageFaultFallsBackCleanly) {
  TempDir Dir;
  const std::vector<std::string> Rules = {"abc", "a[bc]d"};
  CompileOptions Options;
  Options.EmitAnml = false;
  Result<CompileArtifacts> Compiled = compileRuleset(Rules, Options);
  ASSERT_TRUE(Compiled.ok());
  const std::string Path = Dir.file("f.mfsa");
  ASSERT_TRUE(writeArtifactFile(Path, Compiled->Mfsas, Rules).ok());

  obs::MetricsRegistry Metrics;
  ASSERT_EQ(setenv("MFSA_FAULT_STAGE", "load:0", 1), 0);
  Result<RecoveredRuleset> Recovered =
      loadArtifactOrRecompile(Path, Rules, {}, {}, &Metrics);
  unsetenv("MFSA_FAULT_STAGE");
  ASSERT_TRUE(Recovered.ok()) << Recovered.diag().render();
  EXPECT_FALSE(Recovered->FromArtifact);
  EXPECT_NE(Recovered->FallbackReason.find("injected fault"),
            std::string::npos);
  EXPECT_EQ(Metrics.counter("artifact.load.failures").value(), 1u);
  EXPECT_EQ(Metrics.counter("artifact.fallback.count").value(), 1u);

  // Without the fault the same call serves from the artifact.
  Result<RecoveredRuleset> Clean =
      loadArtifactOrRecompile(Path, Rules, {}, {}, &Metrics);
  ASSERT_TRUE(Clean.ok());
  EXPECT_TRUE(Clean->FromArtifact);
  EXPECT_EQ(Metrics.counter("artifact.load.count").value(), 1u);
  EXPECT_GT(Metrics.gauge("artifact.load.bytes").value(), 0);
}

TEST(ArtifactFaultInjection, RejectedArtifactWithoutFallbackIsAnError) {
  TempDir Dir;
  const std::string Path = Dir.file("junk.mfsa");
  spit(Path, "garbage bytes, definitely not an artifact image");
  obs::MetricsRegistry Metrics;
  Result<RecoveredRuleset> Recovered =
      loadArtifactOrRecompile(Path, {}, {}, {}, &Metrics);
  EXPECT_FALSE(Recovered.ok());
  EXPECT_NE(Recovered.diag().Message.find("no fallback"), std::string::npos);
  EXPECT_EQ(Metrics.counter("artifact.fallback.count").value(), 1u);
}

//===--------------------------------------------------------------------===//
// Metrics on the happy path.
//===--------------------------------------------------------------------===//

TEST(ArtifactMetrics, LoadEmitsDurationBytesAndCount) {
  TempDir Dir;
  obs::MetricsRegistry Metrics;
  Result<LoadedArtifact> Loaded =
      roundTrip(Dir, {"abc", "de+f"}, 0, {}, &Metrics);
  ASSERT_TRUE(Loaded.ok()) << Loaded.diag().render();
  EXPECT_EQ(Metrics.counter("artifact.load.count").value(), 1u);
  EXPECT_EQ(Metrics.counter("artifact.load.failures").value(), 0u);
  EXPECT_EQ(Metrics.gauge("artifact.load.bytes").value(),
            static_cast<int64_t>(Loaded->header().FileBytes));
  EXPECT_GE(Metrics.gauge("artifact.load.duration_ms").value(), 0);

  const std::string Json = Metrics.toJson();
  EXPECT_NE(Json.find("artifact.load.count"), std::string::npos);
  EXPECT_NE(Json.find("artifact.load.bytes"), std::string::npos);
  EXPECT_NE(Json.find("artifact.load.duration_ms"), std::string::npos);
}

} // namespace
