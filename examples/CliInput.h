//===- CliInput.h - hardened input-file handling for the CLIs ---*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared input handling for the example drivers. Every tool distinguishes
/// its failure modes with documented exit codes so scripts and CI can react
/// without parsing stderr:
///
///   0  success
///   1  runtime error (bad rule, unwritable output, engine failure, ...)
///   2  usage error
///   3  input file missing, unreadable, or not a regular file
///   4  input file exists but is empty (or holds no usable records)
///   5  artifact rejected and no fallback ruleset available (imfant_run)
///
/// Diagnostics are one line on stderr, prefixed "error: ".
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_EXAMPLES_CLIINPUT_H
#define MFSA_EXAMPLES_CLIINPUT_H

#include "analysis/Planner.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

namespace mfsa::cli {

inline constexpr int kExitOk = 0;
inline constexpr int kExitRuntime = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitMissingInput = 3;
inline constexpr int kExitEmptyInput = 4;
inline constexpr int kExitArtifactRejected = 5;

/// Reads \p Path into \p Out. \p What labels the file in diagnostics
/// ("rules file", "input stream"). Returns kExitOk, or prints one
/// "error: ..." line and returns kExitMissingInput / kExitEmptyInput.
inline int readInputFile(const std::string &Path, const char *What,
                         std::string &Out) {
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0) {
    std::fprintf(stderr, "error: cannot open %s %s: %s\n", What, Path.c_str(),
                 std::strerror(errno));
    return kExitMissingInput;
  }
  if (!S_ISREG(St.st_mode)) {
    std::fprintf(stderr, "error: %s %s is not a regular file\n", What,
                 Path.c_str());
    return kExitMissingInput;
  }
  if (St.st_size == 0) {
    std::fprintf(stderr, "error: %s %s is empty\n", What, Path.c_str());
    return kExitEmptyInput;
  }
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s %s: %s\n", What, Path.c_str(),
                 std::strerror(errno));
    return kExitMissingInput;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (!In.good() && !In.eof()) {
    std::fprintf(stderr, "error: cannot read %s %s\n", What, Path.c_str());
    return kExitMissingInput;
  }
  Out = Buf.str();
  return kExitOk;
}

/// readInputFile + line splitting with the rules-file conventions (blank
/// lines and #-comments skipped). Returns kExitOk with at least one rule in
/// \p Rules, or kExitMissingInput / kExitEmptyInput ("no rules" counts as
/// empty: the file cannot drive a compile).
inline int readRulesFile(const std::string &Path,
                         std::vector<std::string> &Rules) {
  std::string Text;
  if (int Rc = readInputFile(Path, "rules file", Text))
    return Rc;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty() || Line[0] == '#')
      continue;
    Rules.push_back(Line);
  }
  if (Rules.empty()) {
    std::fprintf(stderr, "error: no rules in %s\n", Path.c_str());
    return kExitEmptyInput;
  }
  return kExitOk;
}

/// Parses an `--engine <name>` value shared by imfant_run, mfsac, and the
/// benches. Returns kExitOk with \p Out set, or prints the one canonical
/// "error: ..." line and returns kExitUsage.
inline int parseEngineFlag(const char *Value, Engine &Out) {
  if (Value && engineFromName(Value, Out))
    return kExitOk;
  std::fprintf(stderr,
               "error: unknown engine '%s' (expected "
               "auto|dense|dfa|stride2|prefilter)\n",
               Value ? Value : "");
  return kExitUsage;
}

} // namespace mfsa::cli

#endif // MFSA_EXAMPLES_CLIINPUT_H
