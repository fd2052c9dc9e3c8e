//===- AnmlTest.cpp - tests for the extended-ANML back-end -------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "anml/Anml.h"

#include "engine/Imfant.h"
#include "fsa/Passes.h"
#include "mfsa/Merge.h"
#include "regex/Parser.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace mfsa;
using namespace mfsa::test;

namespace {

Mfsa mergePatterns(const std::vector<std::string> &Patterns) {
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I) + 10); // non-trivial global ids
  }
  return mergeFsas(Fsas, Ids);
}

/// Structural equality between two MFSAs after canonical serialization.
void expectEqualMfsa(const Mfsa &A, const Mfsa &B) {
  EXPECT_EQ(writeAnml(A, "cmp"), writeAnml(B, "cmp"));
}

} // namespace

TEST(Anml, WriteContainsDeclaredElements) {
  Mfsa Z = mergePatterns({"a[bc]d", "^ae$"});
  std::string Doc = writeAnml(Z, "unit");
  EXPECT_NE(Doc.find("<mfsa-network name=\"unit\""), std::string::npos);
  EXPECT_NE(Doc.find("rules=\"2\""), std::string::npos);
  EXPECT_NE(Doc.find("<rule id=\"0\" global-id=\"10\""), std::string::npos);
  EXPECT_NE(Doc.find("anchored-start=\"1\""), std::string::npos);
  EXPECT_NE(Doc.find("<transition from="), std::string::npos);
  EXPECT_NE(Doc.find("belongs="), std::string::npos);
}

TEST(Anml, RoundTripIdentity) {
  Mfsa Z = mergePatterns({"abc", "ab[cd]{2,3}", "x.*y", "(p|q)+r"});
  std::string Doc = writeAnml(Z, "rt");
  Result<Mfsa> Back = readAnml(Doc);
  ASSERT_TRUE(Back.ok()) << (Back.ok() ? "" : Back.diag().render());
  expectEqualMfsa(Z, *Back);
  EXPECT_EQ(Back->verify(), "");
}

TEST(Anml, RoundTripPreservesEngineBehaviour) {
  std::vector<std::string> Patterns = {"login[0-9]+", "log(in|out)",
                                       "^session="};
  Mfsa Z = mergePatterns(Patterns);
  Result<Mfsa> Back = readAnml(writeAnml(Z, "engine"));
  ASSERT_TRUE(Back.ok());

  ImfantEngine Before(Z), After(*Back);
  Rng Random(5);
  for (int Trial = 0; Trial < 5; ++Trial) {
    std::string Input = "session=login77logoutlogin" + randomInput(Random, 20);
    MatchRecorder A(MatchRecorder::Mode::Collect);
    MatchRecorder B(MatchRecorder::Mode::Collect);
    Before.run(Input, A);
    After.run(Input, B);
    EXPECT_EQ(A.matches(), B.matches());
  }
}

TEST(Anml, SymbolRangesEncodeCompactly) {
  Mfsa Z = mergePatterns({"[a-f]"});
  std::string Doc = writeAnml(Z, "sym");
  EXPECT_NE(Doc.find("symbols=\"61-66\""), std::string::npos);
}

TEST(Anml, AcceptsCommentsAndWhitespace) {
  Mfsa Z = mergePatterns({"ab"});
  std::string Doc = writeAnml(Z, "c");
  // Inject a comment and extra whitespace after the prolog.
  size_t Pos = Doc.find("?>") + 2;
  Doc.insert(Pos, "\n<!-- a comment -->\n   \n");
  Result<Mfsa> Back = readAnml(Doc);
  ASSERT_TRUE(Back.ok());
  expectEqualMfsa(Z, *Back);
}

TEST(Anml, RejectsMalformedDocuments) {
  auto Fails = [](const std::string &Doc, const std::string &Needle) {
    Result<Mfsa> R = readAnml(Doc);
    EXPECT_FALSE(R.ok()) << Doc;
    if (!R.ok()) {
      EXPECT_NE(R.diag().Message.find(Needle), std::string::npos)
          << "got: " << R.diag().Message;
    }
  };

  Fails("", "expected <mfsa-network>");
  Fails("<wrong/>", "expected <mfsa-network>");
  Fails("<mfsa-network states=\"2\">", "malformed states/rules");
  // Out-of-range transition endpoint.
  Fails("<mfsa-network states=\"1\" rules=\"1\">"
        "<rule id=\"0\" initial=\"0\" finals=\"0\"/>"
        "<transition from=\"0\" to=\"9\" symbols=\"61\" belongs=\"0\"/>"
        "</mfsa-network>",
        "endpoints");
  // Missing rule element.
  Fails("<mfsa-network states=\"1\" rules=\"1\"></mfsa-network>",
        "missing <rule>");
  // belongs referencing an unknown rule.
  Fails("<mfsa-network states=\"2\" rules=\"1\">"
        "<rule id=\"0\" initial=\"0\" finals=\"1\"/>"
        "<transition from=\"0\" to=\"1\" symbols=\"61\" belongs=\"3\"/>"
        "</mfsa-network>",
        "out of range");
  // Bad symbols field.
  Fails("<mfsa-network states=\"2\" rules=\"1\">"
        "<rule id=\"0\" initial=\"0\" finals=\"1\"/>"
        "<transition from=\"0\" to=\"1\" symbols=\"zz\" belongs=\"0\"/>"
        "</mfsa-network>",
        "symbols");
  // Duplicate rule ids.
  Fails("<mfsa-network states=\"1\" rules=\"1\">"
        "<rule id=\"0\" initial=\"0\" finals=\"\"/>"
        "<rule id=\"0\" initial=\"0\" finals=\"\"/>"
        "</mfsa-network>",
        "duplicate rule");
  // Unterminated element.
  Fails("<mfsa-network states=\"1\" rules=\"0\"", "unterminated");
}

TEST(Anml, ReaderEnforcesResourceLimits) {
  auto FailsWith = [](const std::string &Doc, const AnmlLimits &Limits,
                      const std::string &Needle) {
    Result<Mfsa> R = readAnml(Doc, Limits);
    ASSERT_FALSE(R.ok()) << Doc;
    EXPECT_NE(R.diag().Message.find(Needle), std::string::npos)
        << "got: " << R.diag().Message;
    EXPECT_NE(R.diag().Offset, SIZE_MAX) << "limit Diag must be positioned";
  };

  // Whole-document size cap.
  AnmlLimits Tiny;
  Tiny.MaxDocumentBytes = 16;
  FailsWith(writeAnml(mergePatterns({"abc"}), "big"), Tiny, "size cap");

  // Declared-size caps trip before any proportional allocation: a 100-byte
  // document declaring four billion states must fail up front, not OOM.
  FailsWith("<mfsa-network states=\"4000000000\" rules=\"1\"/>", AnmlLimits(),
            "declared states exceed cap");
  FailsWith("<mfsa-network states=\"1\" rules=\"4000000000\"/>", AnmlLimits(),
            "declared rules exceed cap");

  // Belonging-set cardinality cap.
  AnmlLimits TwoItems;
  TwoItems.MaxListItems = 2;
  FailsWith("<mfsa-network states=\"2\" rules=\"3\">"
            "<rule id=\"0\" initial=\"0\" finals=\"1\"/>"
            "<rule id=\"1\" initial=\"0\" finals=\"1\"/>"
            "<rule id=\"2\" initial=\"0\" finals=\"1\"/>"
            "<transition from=\"0\" to=\"1\" symbols=\"61\" belongs=\"0 1 2\"/>"
            "</mfsa-network>",
            TwoItems, "cardinality cap");

  // Transition-count cap.
  AnmlLimits OneTransition;
  OneTransition.MaxTransitions = 1;
  FailsWith("<mfsa-network states=\"2\" rules=\"1\">"
            "<rule id=\"0\" initial=\"0\" finals=\"1\"/>"
            "<transition from=\"0\" to=\"1\" symbols=\"61\" belongs=\"0\"/>"
            "<transition from=\"1\" to=\"0\" symbols=\"62\" belongs=\"0\"/>"
            "</mfsa-network>",
            OneTransition, "transition count exceeds cap");

  // Nesting-depth cap on unclosed elements.
  AnmlLimits Shallow;
  Shallow.MaxElementDepth = 2;
  FailsWith("<mfsa-network states=\"1\" rules=\"2\">"
            "<rule id=\"0\" initial=\"0\" finals=\"0\">"
            "<rule id=\"1\" initial=\"0\" finals=\"0\">"
            "</mfsa-network>",
            Shallow, "depth cap");

  // At-the-limit documents still parse.
  Mfsa Z = mergePatterns({"ab", "cd"});
  std::string Doc = writeAnml(Z, "limit");
  AnmlLimits Exact;
  Exact.MaxDocumentBytes = Doc.size();
  Exact.MaxStates = Z.numStates();
  Exact.MaxRules = Z.numRules();
  Exact.MaxTransitions = Z.numTransitions();
  Result<Mfsa> Back = readAnml(Doc, Exact);
  ASSERT_TRUE(Back.ok()) << (Back.ok() ? "" : Back.diag().render());
  expectEqualMfsa(Z, *Back);
}

TEST(Anml, ReaderSurvivesEveryTruncation) {
  // Every prefix of a valid document must yield a clean Diag or a verified
  // automaton — no crashes, no partially-initialized accepts.
  std::string Doc = writeAnml(mergePatterns({"a[bc]d", "x|y"}), "trunc");
  for (size_t Length = 0; Length < Doc.size(); ++Length) {
    Result<Mfsa> R = readAnml(Doc.substr(0, Length));
    if (R.ok()) {
      EXPECT_EQ(R->verify(), "") << "prefix length " << Length;
    }
  }
}

TEST(Anml, MinimalHandWrittenDocumentParses) {
  // A hand-authored document exercising defaults (no anchors, global-id).
  const char *Doc = R"(<?xml version="1.0"?>
<mfsa-network name="hand" states="3" rules="2">
  <rule id="0" initial="0" finals="2"/>
  <rule id="1" initial="1" finals="2" anchored-start="1"/>
  <transition from="0" to="2" symbols="61-63 7a" belongs="0 1"/>
  <transition from="1" to="2" symbols="30" belongs="1"/>
</mfsa-network>)";
  Result<Mfsa> Z = readAnml(Doc);
  ASSERT_TRUE(Z.ok()) << (Z.ok() ? "" : Z.diag().render());
  EXPECT_EQ(Z->numStates(), 3u);
  EXPECT_EQ(Z->numRules(), 2u);
  EXPECT_EQ(Z->numTransitions(), 2u);
  EXPECT_TRUE(Z->rule(1).AnchoredStart);
  EXPECT_EQ(Z->transitions()[0].Label,
            SymbolSet::range('a', 'c') | SymbolSet::singleton('z'));
}

TEST(Anml, FileSaveAndLoad) {
  Mfsa Z = mergePatterns({"filetest"});
  std::string Doc = writeAnml(Z, "file");
  std::string Path = ::testing::TempDir() + "/mfsa_anml_test.xml";
  ASSERT_TRUE(saveFile(Path, Doc));
  Result<std::string> Loaded = loadFile(Path);
  ASSERT_TRUE(Loaded.ok());
  EXPECT_EQ(*Loaded, Doc);
  std::remove(Path.c_str());

  EXPECT_FALSE(loadFile("/nonexistent/dir/file.xml").ok());
  EXPECT_FALSE(saveFile("/nonexistent/dir/file.xml", Doc));
}
