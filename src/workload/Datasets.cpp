//===- Datasets.cpp - calibrated synthetic rulesets ---------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "workload/Datasets.h"

#include "regex/Parser.h"
#include "support/Rng.h"
#include "workload/Sampler.h"

#include <cassert>

using namespace mfsa;

//===----------------------------------------------------------------------===//
// Fragment generation
//===----------------------------------------------------------------------===//

namespace {

/// Generates the RE snippets rules are assembled from.
class FragmentFactory {
public:
  FragmentFactory(const DatasetSpec &Spec, Rng &Random)
      : Spec(Spec), Random(Random) {}

  /// One fragment of the spec's flavour mix.
  std::string make() {
    double Roll = Random.nextDouble();
    if (Roll < Spec.CcFragmentProb)
      return makeCharClass();
    Roll -= Spec.CcFragmentProb;
    if (Roll < Spec.AltGroupProb)
      return makeAltGroup();
    std::string Lit = makeLiteral();
    if (Random.nextBool(Spec.BoundedRepProb))
      return applyBoundedRep(Lit);
    return Lit;
  }

private:
  std::string makeLiteral() {
    uint32_t Len = static_cast<uint32_t>(
        Random.nextInRange(Spec.MinFragLen, Spec.MaxFragLen));
    std::string Out;
    Out.reserve(Len);
    for (uint32_t I = 0; I < Len; ++I)
      Out.push_back(
          Spec.LiteralAlphabet[Random.nextBelow(Spec.LiteralAlphabet.size())]);
    return Out;
  }

  std::string makeCharClass() {
    std::string Class = "[";
    if (Spec.RangeClassProb > 0 && Random.nextBool(Spec.RangeClassProb)) {
      // Contiguous "x-y" range (Ranges1 flavour). ERE ranges are ASCII
      // ranges, so the span must stay inside one ASCII-contiguous run of
      // the class alphabet (e.g. not cross from 'z' to '0').
      std::vector<std::pair<size_t, size_t>> Runs; // [begin, end) indices
      size_t Begin = 0;
      for (size_t I = 1; I <= Spec.CcAlphabet.size(); ++I) {
        if (I == Spec.CcAlphabet.size() ||
            Spec.CcAlphabet[I] != Spec.CcAlphabet[I - 1] + 1) {
          Runs.emplace_back(Begin, I);
          Begin = I;
        }
      }
      // Prefer runs long enough for a real range; a 1-char run degrades to
      // a singleton class.
      std::vector<size_t> Wide;
      for (size_t I = 0; I < Runs.size(); ++I)
        if (Runs[I].second - Runs[I].first >= 2)
          Wide.push_back(I);
      const auto &[RunBegin, RunEnd] =
          Wide.empty() ? Runs[Random.nextBelow(Runs.size())]
                       : Runs[Wide[Random.nextBelow(Wide.size())]];
      size_t RunLen = RunEnd - RunBegin;
      uint32_t Span = static_cast<uint32_t>(
          Random.nextInRange(Spec.CcPickMin, Spec.CcPickMax));
      Span = std::max<uint32_t>(std::min<uint32_t>(
                                    Span, static_cast<uint32_t>(RunLen)),
                                std::min<uint32_t>(
                                    2, static_cast<uint32_t>(RunLen)));
      size_t Start = RunBegin + Random.nextBelow(RunLen - Span + 1);
      Class.push_back(Spec.CcAlphabet[Start]);
      if (Span > 1) {
        Class.push_back('-');
        Class.push_back(Spec.CcAlphabet[Start + Span - 1]);
      }
    } else {
      // Distinct symbols drawn from the class alphabet, kept sorted so
      // equal classes print identically (helps CC merging, §III-A set Y).
      uint32_t Pick = static_cast<uint32_t>(
          Random.nextInRange(Spec.CcPickMin, Spec.CcPickMax));
      std::vector<bool> Used(Spec.CcAlphabet.size(), false);
      Pick = std::min<uint32_t>(
          Pick, static_cast<uint32_t>(Spec.CcAlphabet.size()));
      for (uint32_t I = 0; I < Pick; ++I) {
        size_t Idx;
        do {
          Idx = Random.nextBelow(Spec.CcAlphabet.size());
        } while (Used[Idx]);
        Used[Idx] = true;
      }
      for (size_t I = 0; I < Used.size(); ++I)
        if (Used[I])
          Class.push_back(Spec.CcAlphabet[I]);
    }
    Class.push_back(']');
    if (Random.nextBool(Spec.BoundedRepProb * 2))
      return applyBoundedRep(Class);
    return Class;
  }

  std::string makeAltGroup() {
    std::string A = makeLiteral();
    std::string B = makeLiteral();
    return "(" + A + "|" + B + ")";
  }

  /// Wraps a literal's last atom (or a whole class) in {m,n}.
  std::string applyBoundedRep(const std::string &Base) {
    uint64_t Lo = Random.nextInRange(1, 3);
    uint64_t Hi = Lo + Random.nextInRange(1, 3);
    std::string Bounds = "{";
    Bounds += std::to_string(Lo) + "," + std::to_string(Hi) + "}";
    if (Base.size() > 1 && Base.back() != ']') {
      // Quantify only the final character of a literal.
      return Base + Bounds;
    }
    return Base + Bounds;
  }

  const DatasetSpec &Spec;
  Rng &Random;
};

/// A rule under construction: its fragment sequence plus anchor flag.
struct RuleDraft {
  std::vector<std::string> Fragments;
  bool AnchorStart = false;
};

std::string renderRule(const RuleDraft &Draft, const DatasetSpec &Spec,
                       Rng &Random) {
  std::string Out;
  if (Draft.AnchorStart)
    Out.push_back('^');
  for (size_t I = 0; I < Draft.Fragments.size(); ++I) {
    Out += Draft.Fragments[I];
    if (I + 1 < Draft.Fragments.size() && Random.nextBool(Spec.DotStarProb))
      Out += ".*";
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Ruleset generation
//===----------------------------------------------------------------------===//

std::vector<std::string> mfsa::generateRuleset(const DatasetSpec &Spec) {
  Rng Random(Spec.Seed);
  FragmentFactory Factory(Spec, Random);

  // Dataset-wide shared pool: drives the M = all compression plateau.
  std::vector<std::string> Pool;
  Pool.reserve(Spec.PoolSize);
  for (uint32_t I = 0; I < Spec.PoolSize; ++I)
    Pool.push_back(Factory.make());
  auto PoolFragment = [&]() -> const std::string & {
    return Pool[Random.nextBelow(Pool.size())];
  };

  std::vector<std::string> Rules;
  Rules.reserve(Spec.NumRes);

  // Tweaks one character of a plain literal fragment; returns false when the
  // fragment contains RE syntax (classes, groups, quantifiers).
  auto TweakLiteral = [&](std::string &Fragment) {
    for (char C : Fragment)
      if (Spec.LiteralAlphabet.find(C) == std::string::npos)
        return false;
    size_t Pos = Random.nextBelow(Fragment.size());
    Fragment[Pos] =
        Spec.LiteralAlphabet[Random.nextBelow(Spec.LiteralAlphabet.size())];
    return true;
  };

  while (Rules.size() < Spec.NumRes) {
    // Start a family: a base fragment sequence mixing pool draws (dataset-
    // wide sharing) and fresh fragments (family-local sharing only).
    uint32_t FamilySize = static_cast<uint32_t>(
        Random.nextInRange(Spec.MinFamilySize, Spec.MaxFamilySize));
    uint32_t NumFragments = static_cast<uint32_t>(
        Random.nextInRange(Spec.MinFragments, Spec.MaxFragments));
    RuleDraft Base;
    Base.Fragments.reserve(NumFragments);
    for (uint32_t I = 0; I < NumFragments; ++I)
      Base.Fragments.push_back(Random.nextBool(Spec.FamilyFreshProb)
                                   ? Factory.make()
                                   : PoolFragment());
    Base.AnchorStart = Random.nextBool(Spec.AnchorStartProb);

    for (uint32_t Member = 0;
         Member < FamilySize && Rules.size() < Spec.NumRes; ++Member) {
      RuleDraft Draft = Base;
      if (Member > 0) {
        // Siblings diverge fragment-wise: character tweaks, substitutions,
        // one possible insertion or deletion.
        for (std::string &Fragment : Draft.Fragments) {
          if (!Random.nextBool(Spec.MutationRate))
            continue;
          if (Random.nextBool(Spec.TweakProb) && TweakLiteral(Fragment))
            continue;
          Fragment = Random.nextBool(0.5) ? PoolFragment() : Factory.make();
        }
        if (Random.nextBool(Spec.MutationRate))
          Draft.Fragments.push_back(PoolFragment());
        else if (Draft.Fragments.size() > 2 &&
                 Random.nextBool(Spec.MutationRate * 0.5))
          Draft.Fragments.pop_back();
      }
      Rules.push_back(renderRule(Draft, Spec, Random));
    }
  }
  return Rules;
}

//===----------------------------------------------------------------------===//
// Stream generation
//===----------------------------------------------------------------------===//

std::string mfsa::generateStream(const DatasetSpec &Spec,
                                 const std::vector<std::string> &Patterns,
                                 size_t Size, uint64_t SeedSalt) {
  Rng Random(Spec.Seed * 0x9e3779b97f4a7c15ULL + SeedSalt + 17);

  // Parse once; malformed patterns cannot occur for generated rulesets but
  // user-supplied ones are simply skipped for planting.
  std::vector<Regex> Parsed;
  Parsed.reserve(Patterns.size());
  for (const std::string &P : Patterns) {
    Result<Regex> Re = parseRegex(P);
    if (Re)
      Parsed.push_back(Re.take());
  }

  static const std::string Noise =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
      "0123456789 .,;:!?/-_()[]{}<>@#$%&*+='\"\n";

  std::string Stream;
  Stream.reserve(Size + 256);
  while (Stream.size() < Size) {
    if (!Parsed.empty() && Random.nextBool(Spec.PlantDensity)) {
      const Regex &Re = Parsed[Random.nextBelow(Parsed.size())];
      Stream += sampleMatch(Re, Random);
    } else {
      uint64_t Run = Random.nextInRange(8, 64);
      for (uint64_t I = 0; I < Run; ++I)
        Stream.push_back(Noise[Random.nextBelow(Noise.size())]);
    }
  }
  Stream.resize(Size);
  return Stream;
}

//===----------------------------------------------------------------------===//
// Standard dataset registry
//===----------------------------------------------------------------------===//

static std::vector<DatasetSpec> makeStandardDatasets() {
  std::vector<DatasetSpec> Specs;

  {
    // Bro217: short literal-dominated HTTP signatures; strong family
    // similarity, some anchored rules.
    DatasetSpec S;
    S.Name = "Bro217";
    S.Abbrev = "BRO";
    S.NumRes = 217;
    S.Seed = 0xB307;
    S.PoolSize = 60;
    S.MinFragments = 2;
    S.MaxFragments = 4;
    S.MinFragLen = 3;
    S.MaxFragLen = 6;
    S.CcFragmentProb = 0.06;
    S.DotStarProb = 0.05;
    S.AltGroupProb = 0.08;
    S.BoundedRepProb = 0.05;
    S.AnchorStartProb = 0.25;
    S.CcPickMin = 2;
    S.CcPickMax = 4;
    Specs.push_back(S);
  }
  {
    // Dotstar09: long patterns glued with unbounded `.*` gaps.
    DatasetSpec S;
    S.Name = "Dotstar09";
    S.Abbrev = "DS9";
    S.NumRes = 299;
    S.Seed = 0xD509;
    S.PoolSize = 150;
    S.MinFragments = 4;
    S.MaxFragments = 7;
    S.MinFragLen = 5;
    S.MaxFragLen = 9;
    S.CcFragmentProb = 0.08;
    S.DotStarProb = 0.45;
    S.AltGroupProb = 0.08;
    S.BoundedRepProb = 0.06;
    S.CcPickMin = 2;
    S.CcPickMax = 5;
    Specs.push_back(S);
  }
  {
    // PowerEN: mid-size literal patterns, very few and tiny classes.
    DatasetSpec S;
    S.Name = "PowerEN";
    S.Abbrev = "PEN";
    S.NumRes = 300;
    S.Seed = 0x9E10;
    S.PoolSize = 90;
    S.MinFragments = 2;
    S.MaxFragments = 4;
    S.MinFragLen = 4;
    S.MaxFragLen = 7;
    S.CcFragmentProb = 0.03;
    S.DotStarProb = 0.08;
    S.AltGroupProb = 0.10;
    S.BoundedRepProb = 0.06;
    S.CcPickMin = 2;
    S.CcPickMax = 3;
    Specs.push_back(S);
  }
  {
    // Protomata: short protein motifs dominated by wide amino-acid classes.
    DatasetSpec S;
    S.Name = "Protomata";
    S.Abbrev = "PRO";
    S.NumRes = 300;
    S.Seed = 0x9807;
    S.PoolSize = 70;
    S.MinFragments = 3;
    S.MaxFragments = 5;
    S.MinFragLen = 1;
    S.MaxFragLen = 3;
    S.CcFragmentProb = 0.50;
    S.DotStarProb = 0.04;
    S.AltGroupProb = 0.05;
    S.BoundedRepProb = 0.12;
    S.CcAlphabet = "ACDEFGHIKLMNPQRSTVWY";
    S.CcPickMin = 6;
    S.CcPickMax = 16;
    S.LiteralAlphabet = "ACDEFGHIKLMNPQRSTVWY";
    Specs.push_back(S);
  }
  {
    // Ranges1: long patterns with frequent contiguous-range classes.
    DatasetSpec S;
    S.Name = "Ranges1";
    S.Abbrev = "RG1";
    S.NumRes = 299;
    S.Seed = 0x4A61;
    S.PoolSize = 160;
    S.MinFragments = 4;
    S.MaxFragments = 7;
    S.MinFragLen = 5;
    S.MaxFragLen = 9;
    S.CcFragmentProb = 0.25;
    S.RangeClassProb = 0.8;
    S.DotStarProb = 0.06;
    S.AltGroupProb = 0.06;
    S.BoundedRepProb = 0.08;
    S.CcAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789";
    S.CcPickMin = 3;
    S.CcPickMax = 9;
    Specs.push_back(S);
  }
  {
    // TCP-ExactMatch: mid-long literal signatures, light class usage.
    DatasetSpec S;
    S.Name = "TCP-ExactMatch";
    S.Abbrev = "TCP";
    S.NumRes = 300;
    S.Seed = 0x7C9;
    S.PoolSize = 120;
    S.MinFragments = 3;
    S.MaxFragments = 6;
    S.MinFragLen = 4;
    S.MaxFragLen = 7;
    S.CcFragmentProb = 0.08;
    S.DotStarProb = 0.05;
    S.AltGroupProb = 0.12;
    S.BoundedRepProb = 0.06;
    S.AnchorStartProb = 0.10;
    S.CcPickMin = 2;
    S.CcPickMax = 5;
    Specs.push_back(S);
  }
  return Specs;
}

const std::vector<DatasetSpec> &mfsa::standardDatasets() {
  static const std::vector<DatasetSpec> Specs = makeStandardDatasets();
  return Specs;
}

const DatasetSpec *mfsa::findDataset(const std::string &Abbrev) {
  for (const DatasetSpec &Spec : standardDatasets())
    if (Spec.Abbrev == Abbrev)
      return &Spec;
  return nullptr;
}
