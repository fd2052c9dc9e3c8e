//===- Writer.cpp - crash-safe MFSA artifact serialization -------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Layout strategy: every section payload is first encoded into its own byte
// buffer (explicit little-endian stores, no struct dumping — the image must
// be identical regardless of host ABI), then the section table is laid out
// with 64-byte-aligned offsets, checksums are computed over the final
// image, and the header is written last. The belonging and label pools are
// deduplicated per MFSA in first-appearance order, which is deterministic
// for a given input, so serialization is byte-stable — equal compiles
// produce equal artifacts, which content-hash ruleset caches rely on.
//
//===----------------------------------------------------------------------===//

#include "artifact/Writer.h"

#include "artifact/Format.h"
#include "support/Checksum.h"
#include "support/Endian.h"
#include "support/FaultInject.h"
#include "support/SimdDispatch.h"
#include "support/StringUtil.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <unistd.h>

using namespace mfsa;
using namespace mfsa::artifact;

namespace {

void appendLE32(std::string &Out, uint32_t V) {
  char Buf[4];
  storeLE32(Buf, V);
  Out.append(Buf, 4);
}

void appendLE64(std::string &Out, uint64_t V) {
  char Buf[8];
  storeLE64(Buf, V);
  Out.append(Buf, 8);
}

/// One section staged for layout: the entry metadata minus the offset and
/// checksum, which are assigned once every payload size is known.
struct StagedSection {
  uint32_t Kind = 0;
  uint32_t MfsaIndex = kGlobalSection;
  uint64_t Count = 0;
  std::string Payload;
};

/// Encodes one MFSA into its five per-MFSA sections plus the meta record
/// appended to \p MetaPayload.
Result<bool> encodeMfsa(const Mfsa &Z, uint32_t Index, const FaultSpec &Fault,
                        std::string &MetaPayload,
                        std::vector<StagedSection> &Sections) {
  if (Fault.at(FaultPoint::Serialize, Index)) {
    Diag D = injectedFault();
    D.Message += " while encoding MFSA " + std::to_string(Index);
    return D;
  }

  const uint32_t NumRules = Z.numRules();
  const uint32_t BelWords = (NumRules + 63) / 64;

  StagedSection Transitions{static_cast<uint32_t>(SectionKind::Transitions),
                            Index, Z.numTransitions(), {}};
  StagedSection Labels{static_cast<uint32_t>(SectionKind::LabelPool), Index,
                       0, {}};
  StagedSection Bels{static_cast<uint32_t>(SectionKind::BelPool), Index, 0,
                     {}};
  StagedSection Rules{static_cast<uint32_t>(SectionKind::Rules), Index,
                      NumRules, {}};
  StagedSection Finals{static_cast<uint32_t>(SectionKind::Finals), Index, 0,
                       {}};

  // Deduplicate labels and belonging sets in first-appearance order. The
  // ordered map on raw words keeps lookup simple; ids follow insertion.
  std::map<std::array<uint64_t, SymbolSet::NumWords>, uint32_t> LabelIds;
  std::map<std::vector<uint64_t>, uint32_t> BelIds;

  for (const MfsaTransition &T : Z.transitions()) {
    const std::array<uint64_t, SymbolSet::NumWords> &LW = T.Label.words();
    auto [LabelIt, LabelNew] =
        LabelIds.emplace(LW, static_cast<uint32_t>(LabelIds.size()));
    if (LabelNew)
      for (uint64_t W : LW)
        appendLE64(Labels.Payload, W);

    std::vector<uint64_t> BW = T.Bel.words();
    BW.resize(BelWords, 0);
    auto [BelIt, BelNew] =
        BelIds.emplace(std::move(BW), static_cast<uint32_t>(BelIds.size()));
    if (BelNew)
      for (uint64_t W : BelIt->first)
        appendLE64(Bels.Payload, W);

    appendLE32(Transitions.Payload, T.From);
    appendLE32(Transitions.Payload, T.To);
    appendLE32(Transitions.Payload, LabelIt->second);
    appendLE32(Transitions.Payload, BelIt->second);
  }
  Labels.Count = LabelIds.size();
  Bels.Count = BelIds.size();

  uint64_t FinalsCursor = 0;
  for (RuleId R = 0; R < NumRules; ++R) {
    const Mfsa::RuleInfo &Info = Z.rule(R);
    if (FinalsCursor + Info.Finals.size() > UINT32_MAX)
      return Result<bool>::error("MFSA " + std::to_string(Index) +
                                 ": finals table exceeds format capacity");
    uint32_t Flags = 0;
    if (Info.AnchoredStart)
      Flags |= kRuleFlagAnchoredStart;
    if (Info.AnchoredEnd)
      Flags |= kRuleFlagAnchoredEnd;
    appendLE32(Rules.Payload, Info.Initial);
    appendLE32(Rules.Payload, Info.GlobalId);
    appendLE32(Rules.Payload, Flags);
    appendLE32(Rules.Payload, static_cast<uint32_t>(FinalsCursor));
    appendLE32(Rules.Payload, static_cast<uint32_t>(Info.Finals.size()));
    appendLE32(Rules.Payload, 0);
    for (StateId F : Info.Finals)
      appendLE32(Finals.Payload, F);
    FinalsCursor += Info.Finals.size();
  }
  Finals.Count = FinalsCursor;

  // Meta record, cross-checked against the section counts on load.
  appendLE32(MetaPayload, Z.numStates());
  appendLE32(MetaPayload, NumRules);
  appendLE32(MetaPayload, Z.numTransitions());
  appendLE32(MetaPayload, BelWords);
  appendLE32(MetaPayload, static_cast<uint32_t>(Labels.Count));
  appendLE32(MetaPayload, static_cast<uint32_t>(Bels.Count));
  appendLE32(MetaPayload, static_cast<uint32_t>(Finals.Count));
  appendLE32(MetaPayload, 0);

  Sections.push_back(std::move(Transitions));
  Sections.push_back(std::move(Labels));
  Sections.push_back(std::move(Bels));
  Sections.push_back(std::move(Rules));
  Sections.push_back(std::move(Finals));
  return true;
}

} // namespace

Result<std::string>
mfsa::artifact::serializeArtifact(const std::vector<Mfsa> &Mfsas,
                                  const std::vector<std::string> &Patterns,
                                  const ArtifactWriteOptions &Options) {
  const FaultSpec Fault = readFaultSpec();
  if (Mfsas.size() > UINT32_MAX)
    return Result<std::string>::error("too many MFSAs for artifact format");

  std::vector<StagedSection> Sections;
  StagedSection Meta{static_cast<uint32_t>(SectionKind::MfsaMeta),
                     kGlobalSection, Mfsas.size(), {}};
  for (size_t I = 0; I < Mfsas.size(); ++I) {
    Result<bool> Encoded = encodeMfsa(Mfsas[I], static_cast<uint32_t>(I),
                                      Fault, Meta.Payload, Sections);
    if (!Encoded.ok())
      return Encoded.takeDiag();
  }
  Sections.insert(Sections.begin(), std::move(Meta));

  if (!Patterns.empty()) {
    StagedSection Offsets{static_cast<uint32_t>(SectionKind::PatternOffsets),
                          kGlobalSection, Patterns.size() + 1, {}};
    StagedSection Blob{static_cast<uint32_t>(SectionKind::PatternBlob),
                       kGlobalSection, 0, {}};
    uint64_t Cursor = 0;
    appendLE64(Offsets.Payload, 0);
    for (const std::string &P : Patterns) {
      Blob.Payload += P;
      Cursor += P.size();
      appendLE64(Offsets.Payload, Cursor);
    }
    Blob.Count = Blob.Payload.size();
    Sections.push_back(std::move(Offsets));
    Sections.push_back(std::move(Blob));
  }

  // Lay out: header, section table, aligned payloads, page padding.
  const uint32_t NumSections = static_cast<uint32_t>(Sections.size());
  uint64_t Cursor =
      kHeaderBytes + uint64_t(NumSections) * kSectionEntryBytes;
  std::vector<uint64_t> Offsets(NumSections);
  for (uint32_t I = 0; I < NumSections; ++I) {
    Offsets[I] = alignUp(Cursor, kSectionAlign);
    Cursor = Offsets[I] + Sections[I].Payload.size();
  }
  const uint64_t FileBytes = alignUp(Cursor, kPageBytes);

  std::string Image(FileBytes, '\0');
  char *Base = Image.data();

  for (uint32_t I = 0; I < NumSections; ++I)
    std::memcpy(Base + Offsets[I], Sections[I].Payload.data(),
                Sections[I].Payload.size());

  // Section table.
  for (uint32_t I = 0; I < NumSections; ++I) {
    char *E = Base + kHeaderBytes + uint64_t(I) * kSectionEntryBytes;
    storeLE32(E + 0, Sections[I].Kind);
    storeLE32(E + 4, Sections[I].MfsaIndex);
    storeLE64(E + 8, Offsets[I]);
    storeLE64(E + 16, Sections[I].Payload.size());
    storeLE64(E + 24, Sections[I].Count);
    storeLE32(E + 32, crc32c(Sections[I].Payload.data(),
                             Sections[I].Payload.size()));
    storeLE32(E + 36, 0);
  }

  // Header (offsets mirrored in the reader and docs/artifact-format.md).
  std::memcpy(Base, kMagic, sizeof(kMagic));
  storeLE32(Base + 8, kSchemaVersion);
  storeLE32(Base + 12, kEndianTag);
  storeLE32(Base + 16, kHeaderBytes);
  storeLE32(Base + 20, static_cast<uint32_t>(simd::activeLevel()));
  storeLE64(Base + 24, FileBytes);
  storeLE32(Base + 32, static_cast<uint32_t>(Mfsas.size()));
  storeLE32(Base + 36, NumSections);
  storeLE64(Base + 40, kHeaderBytes);
  uint32_t Flags = 0;
  if (Options.CaseInsensitive)
    Flags |= kFlagCaseInsensitive;
  if (Options.SplitCcByAtoms)
    Flags |= kFlagSplitCcByAtoms;
  storeLE32(Base + 48, Flags);
  storeLE32(Base + 52, Options.MergingFactor);
  storeLE32(Base + 56, crc32c(Base + kHeaderBytes, FileBytes - kHeaderBytes));
  storeLE32(Base + 60, 0); // Header checksum computed over this zero.
  storeLE32(Base + 60, crc32c(Base, kHeaderBytes));

  return Image;
}

namespace {

/// Writes all of \p Data to \p Fd, retrying on EINTR and partial writes.
bool writeAll(int Fd, const char *Data, size_t Bytes) {
  while (Bytes > 0) {
    ssize_t N = ::write(Fd, Data, Bytes);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Bytes -= static_cast<size_t>(N);
  }
  return true;
}

std::string errnoText() { return errnoString(errno); }

} // namespace

Result<uint64_t>
mfsa::artifact::writeArtifactFile(const std::string &Path,
                                  const std::vector<Mfsa> &Mfsas,
                                  const std::vector<std::string> &Patterns,
                                  const ArtifactWriteOptions &Options) {
  Result<std::string> Image = serializeArtifact(Mfsas, Patterns, Options);
  if (!Image.ok())
    return Image.takeDiag();

  // Stage in the destination directory so rename(2) stays same-filesystem
  // and therefore atomic.
  const std::string Tmp =
      Path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (Fd < 0)
    return Result<uint64_t>::error("cannot create " + Tmp + ": " +
                                   errnoText());
  auto FailAndClean = [&](const std::string &What) {
    const int Saved = errno;
    ::close(Fd);
    ::unlink(Tmp.c_str());
    errno = Saved;
    return Result<uint64_t>::error(What + " " + Tmp + ": " + errnoText());
  };
  if (!writeAll(Fd, Image->data(), Image->size()))
    return FailAndClean("cannot write");
  if (::fsync(Fd) != 0)
    return FailAndClean("cannot fsync");
  if (::close(Fd) != 0) {
    ::unlink(Tmp.c_str());
    return Result<uint64_t>::error("cannot close " + Tmp + ": " +
                                   errnoText());
  }
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    const int Saved = errno;
    ::unlink(Tmp.c_str());
    errno = Saved;
    return Result<uint64_t>::error("cannot rename " + Tmp + " to " + Path +
                                   ": " + errnoText());
  }

  // Persist the rename itself. Failure here is reported (the data may not
  // survive a power cut) but the destination is already consistent.
  const size_t Slash = Path.find_last_of('/');
  const std::string Dir = Slash == std::string::npos
                              ? std::string(".")
                              : Path.substr(0, Slash == 0 ? 1 : Slash);
  int DirFd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (DirFd >= 0) {
    ::fsync(DirFd);
    ::close(DirFd);
  }
  return static_cast<uint64_t>(Image->size());
}
