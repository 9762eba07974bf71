//===- workload/Scenario.cpp - Declarative workload scenarios ------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "workload/Scenario.h"

#include "build_sys/Manifest.h"
#include "support/StringUtils.h"
#include "support/Trace.h" // jsonEscape

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>

using namespace sc;

//===----------------------------------------------------------------------===//
// Node names
//===----------------------------------------------------------------------===//

const char *sc::scenarioNodeName(ScenarioNode::Kind K) {
  switch (K) {
  case ScenarioNode::Kind::ConstTweak:
    return "const-tweak";
  case ScenarioNode::Kind::CondFlip:
    return "cond-flip";
  case ScenarioNode::Kind::StmtInsert:
    return "stmt-insert";
  case ScenarioNode::Kind::StmtDelete:
    return "stmt-delete";
  case ScenarioNode::Kind::BodyRewrite:
    return "body-rewrite";
  case ScenarioNode::Kind::AddFunction:
    return "add-function";
  case ScenarioNode::Kind::SignatureChange:
    return "signature-change";
  case ScenarioNode::Kind::BodyTweak:
    return "body-tweak";
  case ScenarioNode::Kind::Commit:
    return "commit";
  case ScenarioNode::Kind::ImportAdd:
    return "import-add";
  case ScenarioNode::Kind::ImportRemove:
    return "import-remove";
  case ScenarioNode::Kind::ImportChange:
    return "import-change";
  case ScenarioNode::Kind::AddFile:
    return "add-file";
  case ScenarioNode::Kind::DeleteFile:
    return "delete-file";
  case ScenarioNode::Kind::HotHeader:
    return "hot-header";
  case ScenarioNode::Kind::BranchSwitch:
    return "branch-switch";
  case ScenarioNode::Kind::Plant:
    return "plant";
  case ScenarioNode::Kind::Choice:
    return "choice";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

// Every node a spec line can name. `choice` is deliberately absent:
// it has its own block syntax and cannot nest inside itself.
const struct {
  const char *Name;
  ScenarioNode::Kind K;
} NodeNames[] = {
    {"const-tweak", ScenarioNode::Kind::ConstTweak},
    {"cond-flip", ScenarioNode::Kind::CondFlip},
    {"stmt-insert", ScenarioNode::Kind::StmtInsert},
    {"stmt-delete", ScenarioNode::Kind::StmtDelete},
    {"body-rewrite", ScenarioNode::Kind::BodyRewrite},
    {"add-function", ScenarioNode::Kind::AddFunction},
    {"signature-change", ScenarioNode::Kind::SignatureChange},
    {"body-tweak", ScenarioNode::Kind::BodyTweak},
    {"commit", ScenarioNode::Kind::Commit},
    {"import-add", ScenarioNode::Kind::ImportAdd},
    {"import-remove", ScenarioNode::Kind::ImportRemove},
    {"import-change", ScenarioNode::Kind::ImportChange},
    {"add-file", ScenarioNode::Kind::AddFile},
    {"delete-file", ScenarioNode::Kind::DeleteFile},
    {"hot-header", ScenarioNode::Kind::HotHeader},
    {"branch-switch", ScenarioNode::Kind::BranchSwitch},
    {"plant", ScenarioNode::Kind::Plant},
};

bool allDigits(const std::string &S) {
  if (S.empty())
    return false;
  for (char C : S)
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
  return true;
}

std::vector<std::string> splitTokens(const std::string &Line) {
  std::vector<std::string> Tokens;
  std::istringstream In(Line);
  std::string Tok;
  while (In >> Tok)
    Tokens.push_back(Tok);
  return Tokens;
}

/// Parses one node spec (`name [count=N] [percent=N] [kind=...]`)
/// starting at Tokens[Start]. On failure sets Error (without the
/// "line N:" prefix — the caller owns that).
bool parseNodeTokens(const std::vector<std::string> &Tokens, size_t Start,
                     ScenarioNode &N, std::string &Error) {
  const std::string &Name = Tokens[Start];
  bool Known = false;
  for (const auto &E : NodeNames)
    if (Name == E.Name) {
      N.K = E.K;
      Known = true;
      break;
    }
  if (!Known) {
    Error = "unknown node '" + Name + "'";
    return false;
  }
  for (size_t I = Start + 1; I != Tokens.size(); ++I) {
    const std::string &Tok = Tokens[I];
    size_t Eq = Tok.find('=');
    if (Eq == std::string::npos || Eq == 0 || Eq + 1 == Tok.size()) {
      Error = "malformed option '" + Tok + "' (expected key=value)";
      return false;
    }
    std::string Key = Tok.substr(0, Eq), Val = Tok.substr(Eq + 1);
    uint64_t V = 0;
    if (Key == "count") {
      if (!parseDecimal(Val, V) || V < 1 || V > 1000) {
        Error = "count must be an integer in [1, 1000], got '" + Val + "'";
        return false;
      }
      N.Count = static_cast<unsigned>(V);
    } else if (Key == "percent") {
      if (N.K != ScenarioNode::Kind::BranchSwitch) {
        Error = "option 'percent' only applies to branch-switch";
        return false;
      }
      if (!parseDecimal(Val, V) || V < 1 || V > 100) {
        Error = "percent must be an integer in [1, 100], got '" + Val + "'";
        return false;
      }
      N.Percent = static_cast<unsigned>(V);
    } else if (Key == "kind") {
      if (N.K != ScenarioNode::Kind::Plant) {
        Error = "option 'kind' only applies to plant";
        return false;
      }
      if (Val == "missing")
        N.PlantMissing = true;
      else if (Val == "redundant")
        N.PlantMissing = false;
      else {
        Error = "plant kind must be 'missing' or 'redundant', got '" + Val +
                "'";
        return false;
      }
    } else {
      Error = "unknown option '" + Key + "' for node '" + Name + "'";
      return false;
    }
  }
  return true;
}

} // namespace

bool ScenarioParser::parse(const std::string &Text, Scenario &Out,
                           std::string &Error) {
  Scenario S;
  S.Name.clear();
  ScenarioPhase *Phase = nullptr;
  ScenarioNode *Choice = nullptr; // Open choice block, inside *Phase.
  unsigned PhaseLine = 0, ChoiceLine = 0, LineNo = 0;

  auto fail = [&](unsigned At, const std::string &Msg) {
    Error = "line " + std::to_string(At) + ": " + Msg;
    return false;
  };
  // A choice block is closed by any non-weighted line (or EOF); an
  // empty one is an error reported against its opening line.
  auto closeChoice = [&]() {
    if (Choice && Choice->Children.empty())
      return fail(ChoiceLine,
                  "choice: needs at least one weighted child (e.g. `3 "
                  "commit`)");
    Choice = nullptr;
    return true;
  };
  auto closePhase = [&]() {
    if (!closeChoice())
      return false;
    if (Phase && Phase->Nodes.empty())
      return fail(PhaseLine, "phase '" + Phase->Name + "' has no nodes");
    Phase = nullptr;
    return true;
  };

  std::istringstream In(Text);
  std::string Raw;
  while (std::getline(In, Raw)) {
    ++LineNo;
    // `#` starts a comment anywhere on the line.
    size_t Hash = Raw.find('#');
    if (Hash != std::string::npos)
      Raw.erase(Hash);
    std::vector<std::string> Tokens = splitTokens(Raw);
    if (Tokens.empty())
      continue;
    const std::string &Head = Tokens[0];

    if (allDigits(Head)) {
      // Weighted choice child: `<weight> <node> [options...]`.
      if (!Choice)
        return fail(LineNo, "weighted line outside a choice: block");
      uint64_t W = 0;
      if (!parseDecimal(Head, W) || W < 1 || W > 1000)
        return fail(LineNo, "choice weight must be an integer in [1, 1000]");
      if (Tokens.size() < 2)
        return fail(LineNo, "choice child needs a node after the weight");
      ScenarioNode Child;
      if (!parseNodeTokens(Tokens, 1, Child, Error))
        return fail(LineNo, Error);
      Choice->Weights.push_back(static_cast<unsigned>(W));
      Choice->Children.push_back(std::move(Child));
      continue;
    }

    if (Head == "scenario:" || Head == "profile:" || Head == "seed:") {
      if (!closeChoice())
        return false;
      if (Tokens.size() != 2)
        return fail(LineNo, "'" + Head + "' takes exactly one value");
      if (Head == "scenario:") {
        S.Name = Tokens[1];
      } else if (Head == "profile:") {
        if (!findProfileByName(Tokens[1]))
          return fail(LineNo, "unknown profile '" + Tokens[1] +
                                  "' (known: " + knownProfileNames() + ")");
        S.Profile = Tokens[1];
      } else {
        if (!parseDecimal(Tokens[1], S.Seed))
          return fail(LineNo, "seed must be a non-negative integer, got '" +
                                  Tokens[1] + "'");
      }
      continue;
    }

    if (Head == "phase:") {
      if (!closePhase())
        return false;
      if (Tokens.size() < 2 || Tokens[1].find('=') != std::string::npos)
        return fail(LineNo, "phase: needs a name");
      ScenarioPhase Ph;
      Ph.Name = Tokens[1];
      for (size_t I = 2; I != Tokens.size(); ++I) {
        const std::string &Tok = Tokens[I];
        size_t Eq = Tok.find('=');
        uint64_t V = 0;
        if (Eq != std::string::npos && Tok.substr(0, Eq) == "repeat") {
          if (!parseDecimal(Tok.substr(Eq + 1), V) || V < 1 || V > 1000)
            return fail(LineNo, "repeat must be an integer in [1, 1000]");
          Ph.Repeat = static_cast<unsigned>(V);
        } else {
          return fail(LineNo, "unknown phase option '" + Tok + "'");
        }
      }
      S.Phases.push_back(std::move(Ph));
      Phase = &S.Phases.back();
      PhaseLine = LineNo;
      continue;
    }

    if (Head == "choice:") {
      if (!closeChoice())
        return false;
      if (!Phase)
        return fail(LineNo, "choice: outside a phase");
      if (Tokens.size() != 1)
        return fail(LineNo, "choice: takes no options");
      ScenarioNode N;
      N.K = ScenarioNode::Kind::Choice;
      Phase->Nodes.push_back(std::move(N));
      Choice = &Phase->Nodes.back();
      ChoiceLine = LineNo;
      continue;
    }

    // Anything else must be a node line inside a phase.
    if (!closeChoice())
      return false;
    if (!Phase)
      return fail(LineNo, "node '" + Head + "' outside a phase");
    ScenarioNode N;
    if (!parseNodeTokens(Tokens, 0, N, Error))
      return fail(LineNo, Error);
    Phase->Nodes.push_back(std::move(N));
  }

  if (!closePhase())
    return false;
  if (S.Name.empty())
    return fail(LineNo ? LineNo : 1, "missing 'scenario:' name");
  Out = std::move(S);
  return true;
}

//===----------------------------------------------------------------------===//
// Renderer
//===----------------------------------------------------------------------===//

namespace {

std::string renderNodeLine(const ScenarioNode &N) {
  std::string R = scenarioNodeName(N.K);
  if (N.Count != 1)
    R += " count=" + std::to_string(N.Count);
  if (N.K == ScenarioNode::Kind::BranchSwitch && N.Percent != 25)
    R += " percent=" + std::to_string(N.Percent);
  if (N.K == ScenarioNode::Kind::Plant)
    R += N.PlantMissing ? " kind=missing" : " kind=redundant";
  return R;
}

} // namespace

std::string sc::renderScenario(const Scenario &S) {
  std::string R;
  R += "scenario: " + S.Name + "\n";
  R += "profile: " + S.Profile + "\n";
  R += "seed: " + std::to_string(S.Seed) + "\n";
  for (const ScenarioPhase &Ph : S.Phases) {
    R += "\nphase: " + Ph.Name;
    if (Ph.Repeat != 1)
      R += " repeat=" + std::to_string(Ph.Repeat);
    R += "\n";
    for (const ScenarioNode &N : Ph.Nodes) {
      if (N.K == ScenarioNode::Kind::Choice) {
        R += "  choice:\n";
        for (size_t I = 0; I != N.Children.size(); ++I)
          R += "    " + std::to_string(N.Weights[I]) + " " +
               renderNodeLine(N.Children[I]) + "\n";
      } else {
        R += "  " + renderNodeLine(N) + "\n";
      }
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Runner
//===----------------------------------------------------------------------===//

namespace {

std::string firstLine(const std::string &S) {
  size_t NL = S.find('\n');
  return NL == std::string::npos ? S : S.substr(0, NL);
}

} // namespace

BuildOptions sc::scenarioBuildOptions(const ScenarioRunOptions &Opts) {
  BuildOptions BO;
  BO.Jobs = Opts.Jobs;
  BO.OutDir = Opts.OutDir;
  BO.Compiler.Opt = Opts.OptLevel == 0   ? OptLevel::O0
                    : Opts.OptLevel == 1 ? OptLevel::O1
                                         : OptLevel::O2;
  // Replays use ExactSkip, not the paper's HeuristicSkip: the scratch
  // comparison demands byte-equality with a cold build, which exact
  // skipping guarantees (only unchanged functions skip, reproducing
  // their previous — ultimately cold-compiled — bytes). Heuristic
  // skipping promises behavioral equivalence only (DifferentialTest).
  BO.Compiler.Stateful.SkipMode = Opts.Stateful
                                      ? StatefulConfig::Mode::ExactSkip
                                      : StatefulConfig::Mode::Stateless;
  BO.VerifyDeps = Opts.VerifyDeps;
  return BO;
}

ScenarioRunner::ScenarioRunner(const Scenario &Sc_, VirtualFileSystem &FS_,
                               ScenarioRunOptions Opts_)
    : Sc(Sc_), FS(FS_), Opts(std::move(Opts_)) {}

bool ScenarioRunner::ok() const { return !Failed && !Outcomes.empty(); }

bool ScenarioRunner::run() {
  Outcomes.clear();
  EditLog.clear();
  Failed = false;
  Plant = DepVerifyPlant();

  std::optional<ProjectProfile> P = findProfileByName(Sc.Profile);
  if (!P) {
    ScenarioPhaseOutcome O;
    O.Phase = "<initial>";
    O.BuildError = "unknown profile '" + Sc.Profile +
                   "' (known: " + knownProfileNames() + ")";
    Outcomes.push_back(std::move(O));
    Failed = true;
    return false;
  }

  Model = ProjectModel::generate(*P, Sc.Seed);
  Model.renderAll(FS);
  // A stale plant from an earlier replay in the same tree must not
  // leak into this one (an empty plant removes the file).
  DepVerifier::savePlant(FS, Opts.OutDir, Plant);

  if (!Opts.ExternalBuild)
    Driver = std::make_unique<BuildDriver>(FS, scenarioBuildOptions(Opts));

  auto buildAndRecord = [&](const std::string &Phase, unsigned Iter,
                            std::vector<std::string> Changed) {
    ScenarioPhaseOutcome O;
    O.Phase = Phase;
    O.Iteration = Iter;
    O.ChangedFiles = std::move(Changed);
    BuildStats R = buildOnce();
    O.BuildOk = R.Success;
    O.BuildError = R.ErrorText;
    O.FilesCompiled = R.FilesCompiled;
    O.FilesTotal = R.FilesTotal;
    O.DepsMissing = R.DepsMissing;
    O.DepsRedundant = R.DepsRedundant;
    O.Findings = R.DepFindings;
    if (!R.Success) {
      Failed = true;
    } else {
      if (!O.Findings.empty())
        Failed = true;
      if (Opts.ScratchCompare) {
        std::string Detail;
        if (!scratchMatches(Detail)) {
          O.ScratchMatch = false;
          O.Findings.push_back("scratch-divergence: " + Detail);
          Failed = true;
        }
      }
    }
    bool BuildOk = O.BuildOk;
    Outcomes.push_back(std::move(O));
    return BuildOk;
  };

  // One RNG drives every phase in textual order — the determinism
  // contract (same spec + seed => same edit stream at any -j).
  RNG Rand(Sc.Seed);
  if (!buildAndRecord("<initial>", 0, {}))
    return ok();
  for (const ScenarioPhase &Ph : Sc.Phases) {
    for (unsigned Iter = 1; Iter <= Ph.Repeat; ++Iter) {
      std::vector<std::string> Changed;
      std::string Tag = Ph.Name + "#" + std::to_string(Iter);
      for (const ScenarioNode &N : Ph.Nodes)
        runNode(N, Rand, Tag, Changed);
      std::sort(Changed.begin(), Changed.end());
      Changed.erase(std::unique(Changed.begin(), Changed.end()),
                    Changed.end());
      if (!buildAndRecord(Ph.Name, Iter, std::move(Changed)))
        return ok();
    }
  }
  return ok();
}

bool ScenarioRunner::runNode(const ScenarioNode &N, RNG &Rand,
                             const std::string &PhaseTag,
                             std::vector<std::string> &Changed) {
  using K = ScenarioNode::Kind;
  for (unsigned Rep = 0; Rep != N.Count; ++Rep) {
    if (N.K == K::Choice) {
      uint64_t Total = 0;
      for (unsigned W : N.Weights)
        Total += W;
      if (!Total)
        continue; // Parser forbids; belt and braces.
      uint64_t Roll = Rand.nextBelow(Total);
      size_t Pick = 0;
      while (Pick + 1 < N.Weights.size() && Roll >= N.Weights[Pick]) {
        Roll -= N.Weights[Pick];
        ++Pick;
      }
      runNode(N.Children[Pick], Rand, PhaseTag, Changed);
      continue;
    }

    std::vector<std::string> Files;
    std::string Extra;
    switch (N.K) {
    case K::ConstTweak:
      Files = Model.applyEdit(EditKind::ConstTweak, Rand, FS);
      break;
    case K::CondFlip:
      Files = Model.applyEdit(EditKind::CondFlip, Rand, FS);
      break;
    case K::StmtInsert:
      Files = Model.applyEdit(EditKind::StmtInsert, Rand, FS);
      break;
    case K::StmtDelete:
      Files = Model.applyEdit(EditKind::StmtDelete, Rand, FS);
      break;
    case K::BodyRewrite:
      Files = Model.applyEdit(EditKind::BodyRewrite, Rand, FS);
      break;
    case K::AddFunction:
      Files = Model.applyEdit(EditKind::AddFunction, Rand, FS);
      break;
    case K::SignatureChange:
      Files = Model.applyEdit(EditKind::SignatureChange, Rand, FS);
      break;
    case K::BodyTweak: {
      static const EditKind BodyKinds[] = {
          EditKind::ConstTweak, EditKind::CondFlip, EditKind::StmtInsert,
          EditKind::StmtDelete, EditKind::BodyRewrite};
      Files = Model.applyEdit(BodyKinds[Rand.nextBelow(5)], Rand, FS);
      break;
    }
    case K::Commit:
      Files = Model.applyCommit(Rand, FS);
      break;
    case K::ImportAdd:
      Files = Model.addImportEdge(Rand, FS);
      break;
    case K::ImportRemove:
      Files = Model.removeImportEdge(Rand, FS);
      break;
    case K::ImportChange:
      Files = Model.applyEdit(EditKind::ImportChange, Rand, FS);
      break;
    case K::AddFile:
      Files = Model.applyEdit(EditKind::AddFile, Rand, FS);
      break;
    case K::DeleteFile:
      Files = Model.applyEdit(EditKind::DeleteFile, Rand, FS);
      break;
    case K::HotHeader:
      Files = Model.hotHeaderChurn(Rand, FS);
      break;
    case K::BranchSwitch:
      Files = Model.branchSwitch(N.Percent, Rand, FS);
      break;
    case K::Plant:
      if (N.PlantMissing) {
        // Hide one genuinely-used edge from the verifier's view of the
        // import graph via the plant file; the next verified build must
        // report it as dep-missing.
        auto Edges = Model.renderedImportEdges();
        if (!Edges.empty()) {
          const auto &E = Edges[Rand.nextBelow(Edges.size())];
          Plant.DropEdges.push_back(E);
          DepVerifier::savePlant(FS, Opts.OutDir, Plant);
          Extra = E.first + " drops " + E.second;
        } else {
          Extra = "(no rendered edges to drop)";
        }
      } else {
        Files = Model.plantRedundantImport(Rand, FS);
      }
      break;
    case K::Choice:
      break; // Handled above.
    }

    std::string Line = PhaseTag + " " + scenarioNodeName(N.K) + ":";
    for (size_t I = 0; I != Files.size(); ++I)
      Line += (I ? "," : " ") + Files[I];
    if (!Extra.empty())
      Line += " " + Extra;
    EditLog.push_back(std::move(Line));
    Changed.insert(Changed.end(), Files.begin(), Files.end());
  }
  return true;
}

BuildStats ScenarioRunner::buildOnce() {
  if (!Opts.ExternalBuild)
    return Driver->build();
  BuildStats R = Opts.ExternalBuild();
  if (R.Success && Opts.VerifyDeps && R.DepFindings.empty()) {
    // The external transport (the daemon) does not run the verifier;
    // cross-check in-process against the model's declared edges.
    std::map<std::string, std::vector<std::string>> Declared;
    const std::string Prefix = Opts.OutDir + "/";
    for (const std::string &Path : FS.listFiles())
      if (Path.size() > 3 && Path.compare(Path.size() - 3, 3, ".mc") == 0 &&
          Path.compare(0, Prefix.size(), Prefix) != 0)
        Declared[Path];
    for (const auto &E : Model.renderedImportEdges())
      Declared[E.first].push_back(E.second);
    DepVerifyReport Rep = DepVerifier::verify(FS, Declared, &Plant);
    R.DepsMissing = Rep.NumMissing;
    R.DepsRedundant = Rep.NumRedundant;
    for (const DepFinding &F : Rep.Findings)
      R.DepFindings.push_back(F.reason());
  }
  return R;
}

bool ScenarioRunner::scratchMatches(std::string &Detail) {
  // Copy everything except build outputs into a throwaway tree and
  // build it cold with the same options.
  InMemoryFileSystem Scratch;
  const std::string Prefix = Opts.OutDir + "/";
  for (const std::string &Path : FS.listFiles()) {
    if (Path.compare(0, Prefix.size(), Prefix) == 0)
      continue;
    if (std::optional<std::string> C = FS.readFile(Path))
      Scratch.writeFile(Path, *C);
  }
  BuildOptions BO = scenarioBuildOptions(Opts);
  BO.VerifyDeps = false; // Divergence detection only.
  BuildDriver Fresh(Scratch, BO);
  BuildStats S = Fresh.build();
  if (!S.Success) {
    Detail = "scratch build failed: " + firstLine(S.ErrorText);
    return false;
  }

  const std::string MPath = Opts.OutDir + "/manifest.bin";
  BuildManifest Inc, Ref;
  if (!Inc.loadFromFile(FS, MPath)) {
    Detail = "incremental manifest unreadable";
    return false;
  }
  if (!Ref.loadFromFile(Scratch, MPath)) {
    Detail = "scratch manifest unreadable";
    return false;
  }
  if (Inc.entries().size() != Ref.entries().size()) {
    Detail = "manifest entry counts differ (" +
             std::to_string(Inc.entries().size()) + " incremental vs " +
             std::to_string(Ref.entries().size()) + " scratch)";
    return false;
  }
  for (const auto &[Path, E] : Inc.entries()) {
    const ManifestEntry *O = Ref.lookup(Path);
    if (!O) {
      Detail = "scratch build has no entry for " + Path;
      return false;
    }
    // ObjectHash covers the serialized object bytes, so equal hashes
    // for every TU mean byte-identical artifacts.
    if (O->ObjectHash != E.ObjectHash) {
      Detail = "object hash differs for " + Path;
      return false;
    }
  }
  return true;
}

std::string ScenarioRunner::reportJson() const {
  auto boolean = [](bool B) { return B ? "true" : "false"; };
  std::string J = "{\n";
  J += "  \"schema\": \"scworkload-replay\",\n";
  J += "  \"schema_version\": 1,\n";
  J += "  \"scenario\": \"" + jsonEscape(Sc.Name) + "\",\n";
  J += "  \"profile\": \"" + jsonEscape(Sc.Profile) + "\",\n";
  J += "  \"seed\": " + std::to_string(Sc.Seed) + ",\n";
  J += "  \"ok\": " + std::string(boolean(ok())) + ",\n";
  J += "  \"edits\": " + std::to_string(EditLog.size()) + ",\n";
  J += "  \"phases\": [";
  for (size_t I = 0; I != Outcomes.size(); ++I) {
    const ScenarioPhaseOutcome &O = Outcomes[I];
    J += I ? ",\n    " : "\n    ";
    J += "{\"phase\": \"" + jsonEscape(O.Phase) + "\"";
    J += ", \"iteration\": " + std::to_string(O.Iteration);
    J += ", \"changed_files\": " + std::to_string(O.ChangedFiles.size());
    J += ", \"build_ok\": " + std::string(boolean(O.BuildOk));
    J += ", \"files_compiled\": " + std::to_string(O.FilesCompiled);
    J += ", \"files_total\": " + std::to_string(O.FilesTotal);
    J += ", \"deps_missing\": " + std::to_string(O.DepsMissing);
    J += ", \"deps_redundant\": " + std::to_string(O.DepsRedundant);
    J += ", \"scratch_match\": " + std::string(boolean(O.ScratchMatch));
    J += ", \"findings\": " + std::to_string(O.Findings.size());
    J += "}";
  }
  J += "\n  ],\n";
  J += "  \"findings\": [";
  bool First = true;
  for (const ScenarioPhaseOutcome &O : Outcomes)
    for (const std::string &F : O.Findings) {
      J += First ? "" : ", ";
      J += "\"" + jsonEscape(F) + "\"";
      First = false;
    }
  J += "]\n}\n";
  return J;
}
