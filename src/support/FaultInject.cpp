//===- FaultInject.cpp - deterministic test fault injection ------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInject.h"

#include <cstdlib>
#include <string>

using namespace mfsa;

FaultSpec mfsa::readFaultSpec() {
  FaultSpec Spec;
  const char *Env = std::getenv("MFSA_FAULT_STAGE");
  if (!Env || !*Env)
    return Spec;
  const std::string Text(Env);
  const size_t Colon = Text.find(':');
  if (Colon == std::string::npos)
    return Spec;
  const std::string Stage = Text.substr(0, Colon);
  if (Stage == "parse")
    Spec.Point = FaultPoint::Parse;
  else if (Stage == "build")
    Spec.Point = FaultPoint::Build;
  else if (Stage == "opt")
    Spec.Point = FaultPoint::Opt;
  else if (Stage == "merge")
    Spec.Point = FaultPoint::Merge;
  else if (Stage == "serialize")
    Spec.Point = FaultPoint::Serialize;
  else if (Stage == "load")
    Spec.Point = FaultPoint::Load;
  else
    return Spec;
  uint64_t Index = 0;
  for (size_t I = Colon + 1; I < Text.size(); ++I) {
    if (Text[I] < '0' || Text[I] > '9')
      return Spec;
    Index = Index * 10 + static_cast<uint64_t>(Text[I] - '0');
    if (Index > UINT32_MAX)
      return Spec;
  }
  if (Colon + 1 == Text.size())
    return Spec;
  Spec.Index = static_cast<uint32_t>(Index);
  Spec.Active = true;
  return Spec;
}

Diag mfsa::injectedFault() {
  return Diag("injected fault (MFSA_FAULT_STAGE)", static_cast<size_t>(-1));
}
