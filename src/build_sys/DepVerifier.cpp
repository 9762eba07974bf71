//===- build_sys/DepVerifier.cpp - Build-dependency error detection -------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "build_sys/DepVerifier.h"

#include "driver/Compiler.h"
#include "lang/AST.h"
#include "lang/Diagnostics.h"
#include "lang/Parser.h"
#include "support/Casting.h"

#include <algorithm>
#include <set>
#include <sstream>

using namespace sc;

std::string DepFinding::reason() const {
  if (K == Kind::Missing)
    return "dep-missing: " + TU + " reads '" + Path + "' (calls '" + Via +
           "') but the import graph does not track it";
  return "dep-redundant: " + TU + " imports '" + Path +
         "' but never reads it";
}

namespace {

/// Collects every callee name in an expression/statement subtree.
void collectCalls(const Expr *E, std::set<std::string> &Out) {
  if (!E)
    return;
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
  case Expr::Kind::BoolLiteral:
  case Expr::Kind::VarRef:
    return;
  case Expr::Kind::Unary:
    collectCalls(cast<UnaryExpr>(E)->operand(), Out);
    return;
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    collectCalls(B->lhs(), Out);
    collectCalls(B->rhs(), Out);
    return;
  }
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E);
    Out.insert(C->callee());
    for (const ExprPtr &A : C->args())
      collectCalls(A.get(), Out);
    return;
  }
  case Expr::Kind::Index:
    collectCalls(cast<IndexExpr>(E)->index(), Out);
    return;
  }
}

void collectCalls(const Stmt *S, std::set<std::string> &Out) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (const StmtPtr &Sub : cast<BlockStmt>(S)->statements())
      collectCalls(Sub.get(), Out);
    return;
  case Stmt::Kind::VarDecl:
    collectCalls(cast<VarDeclStmt>(S)->init(), Out);
    return;
  case Stmt::Kind::ArrayDecl:
    return;
  case Stmt::Kind::Assign:
    collectCalls(cast<AssignStmt>(S)->value(), Out);
    return;
  case Stmt::Kind::IndexAssign: {
    const auto *IA = cast<IndexAssignStmt>(S);
    collectCalls(IA->index(), Out);
    collectCalls(IA->value(), Out);
    return;
  }
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    collectCalls(I->cond(), Out);
    collectCalls(I->thenBranch(), Out);
    collectCalls(I->elseBranch(), Out);
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    collectCalls(W->cond(), Out);
    collectCalls(W->body(), Out);
    return;
  }
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    collectCalls(F->init(), Out);
    collectCalls(F->cond(), Out);
    collectCalls(F->step(), Out);
    collectCalls(F->body(), Out);
    return;
  }
  case Stmt::Kind::Return:
    collectCalls(cast<ReturnStmt>(S)->value(), Out);
    return;
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    return;
  case Stmt::Kind::Expr:
    collectCalls(cast<ExprStmt>(S)->expr(), Out);
    return;
  }
}

/// Names a file exports, via the same light scan the build system's
/// dependency scanner uses. Memoized per verify() call — the exporter
/// sets do not depend on which TU is asking.
const std::set<std::string> &
exportedNames(VirtualFileSystem &FS, const std::string &Path,
              std::map<std::string, std::set<std::string>> &Cache) {
  auto It = Cache.find(Path);
  if (It != Cache.end())
    return It->second;
  std::set<std::string> Names;
  if (auto Content = FS.readFile(Path))
    if (auto Scanned = Compiler::scanInterface(*Content))
      for (const FunctionSignature &Sig : Scanned->first)
        Names.insert(Sig.Name);
  return Cache.emplace(Path, std::move(Names)).first->second;
}

} // namespace

DepVerifyReport DepVerifier::verify(
    VirtualFileSystem &FS,
    const std::map<std::string, std::vector<std::string>> &Declared,
    const DepVerifyPlant *Plant) {
  DepVerifyReport R;
  std::map<std::string, std::set<std::string>> ExportCache;

  auto Planted = [&](const std::vector<std::pair<std::string, std::string>>
                         &Edges,
                     const std::string &TU, const std::string &Dep) {
    for (const auto &[PTU, PDep] : Edges)
      if (PTU == TU && PDep == Dep)
        return true;
    return false;
  };

  for (const auto &[TU, TrackedDeps] : Declared) {
    std::optional<std::string> Content = FS.readFile(TU);
    if (!Content)
      continue; // Vanished mid-check; nothing to verify.

    DiagnosticEngine Diags;
    Parser P(*Content, Diags);
    std::unique_ptr<ModuleAST> AST = P.parseModule();
    if (Diags.hasErrors())
      continue; // Unparseable TUs are the compiler's problem, not ours.
    ++R.TUsChecked;

    // What the TU defines itself, and every name it calls.
    std::set<std::string> Local, Called;
    for (const auto &F : AST->Functions) {
      Local.insert(F->name());
      collectCalls(F->body(), Called);
    }
    std::set<std::string> External;
    for (const std::string &Name : Called)
      if (!Local.count(Name) && Name != "print")
        External.insert(Name);

    // The declared edge set this TU will be judged against: the
    // tracked graph edges, minus planted drops, plus planted adds.
    std::vector<std::string> Edges;
    for (const std::string &Dep : TrackedDeps)
      if (!Plant || !Planted(Plant->DropEdges, TU, Dep))
        Edges.push_back(Dep);
    if (Plant)
      for (const auto &[PTU, PDep] : Plant->AddEdges)
        if (PTU == TU &&
            std::find(Edges.begin(), Edges.end(), PDep) == Edges.end())
          Edges.push_back(PDep);

    // Resolve each external call through the declared edges' exports:
    // the files these calls resolve to are the TU's actual
    // dependencies, which the declared graph is supposed to predict.
    std::set<std::string> UsedEdges;
    std::set<std::string> Unresolved = External;
    for (const std::string &Dep : Edges) {
      const std::set<std::string> &Exports =
          exportedNames(FS, Dep, ExportCache);
      bool Used = false;
      for (auto It = Unresolved.begin(); It != Unresolved.end();) {
        if (Exports.count(*It)) {
          Used = true;
          It = Unresolved.erase(It);
        } else {
          ++It;
        }
      }
      if (Used)
        UsedEdges.insert(Dep);
    }

    // Still-unresolved calls: the TU needs a file no declared edge
    // covers. Find its definer among the project's sources so the
    // finding can name the untracked path.
    std::set<std::string> MissingPaths;
    for (const std::string &Sym : Unresolved) {
      for (const auto &[Candidate, Ignored] : Declared) {
        if (Candidate == TU)
          continue;
        if (exportedNames(FS, Candidate, ExportCache).count(Sym)) {
          if (MissingPaths.insert(Candidate).second) {
            DepFinding F;
            F.K = DepFinding::Kind::Missing;
            F.TU = TU;
            F.Path = Candidate;
            F.Via = Sym;
            R.Findings.push_back(std::move(F));
          }
          break;
        }
      }
    }

    // Declared edges that resolved nothing the TU calls: tracked, but
    // never actually needed.
    for (const std::string &Dep : Edges) {
      if (!UsedEdges.count(Dep)) {
        DepFinding F;
        F.K = DepFinding::Kind::Redundant;
        F.TU = TU;
        F.Path = Dep;
        R.Findings.push_back(std::move(F));
      }
    }
  }

  for (const DepFinding &F : R.Findings) {
    if (F.K == DepFinding::Kind::Missing)
      ++R.NumMissing;
    else
      ++R.NumRedundant;
  }
  std::sort(R.Findings.begin(), R.Findings.end(),
            [](const DepFinding &A, const DepFinding &B) {
              return A.reason() < B.reason();
            });
  return R;
}

std::string DepVerifier::plantPath(const std::string &OutDir) {
  return OutDir + "/verify.plant";
}

std::optional<DepVerifyPlant>
DepVerifier::loadPlant(VirtualFileSystem &FS, const std::string &OutDir,
                       std::string *Error) {
  std::optional<std::string> Content = FS.readFile(plantPath(OutDir));
  if (!Content)
    return std::nullopt;
  DepVerifyPlant Plant;
  std::istringstream In(*Content);
  std::string Line;
  bool First = true;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    if (First) {
      std::string Magic, Version;
      Fields >> Magic >> Version;
      if (Magic != "scverify-plant" || Version != "v1") {
        if (Error)
          *Error = plantPath(OutDir) + ": not an scverify-plant v1 file";
        return DepVerifyPlant{};
      }
      First = false;
      continue;
    }
    std::string Verb, TU, Dep, Extra;
    Fields >> Verb >> TU >> Dep;
    if (TU.empty() || Dep.empty() || (Fields >> Extra) ||
        (Verb != "drop" && Verb != "add")) {
      if (Error)
        *Error = plantPath(OutDir) + ":" + std::to_string(LineNo) +
                 ": expected 'drop|add <tu> <path>'";
      return DepVerifyPlant{};
    }
    auto &Edges = Verb == "drop" ? Plant.DropEdges : Plant.AddEdges;
    Edges.emplace_back(TU, Dep);
  }
  if (First) {
    if (Error)
      *Error = plantPath(OutDir) + ": missing scverify-plant header";
    return DepVerifyPlant{};
  }
  return Plant;
}

bool DepVerifier::savePlant(VirtualFileSystem &FS, const std::string &OutDir,
                            const DepVerifyPlant &Plant) {
  if (Plant.empty())
    return FS.removeFile(plantPath(OutDir)), true;
  std::string Out = "scverify-plant v1\n";
  for (const auto &[TU, Dep] : Plant.DropEdges)
    Out += "drop " + TU + " " + Dep + "\n";
  for (const auto &[TU, Dep] : Plant.AddEdges)
    Out += "add " + TU + " " + Dep + "\n";
  return FS.writeFile(plantPath(OutDir), Out);
}
