//===- ir/IR.cpp - Core IR implementation ----------------------------------===//
//
// Part of the stateful-compiler project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include <algorithm>
#include <atomic>
#include <thread>

using namespace sc;

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

namespace {
// Striped spinlocks guarding the user lists of values shared across
// functions (constants, globals). Instruction results and arguments are
// only ever used from their owning function, which the parallel pass
// engine runs on exactly one thread at a time, so they take no lock.
// The critical sections are a handful of pointer moves; a spinlock
// beats a mutex here and keeps Value allocation-free. The spin is
// bounded: after a short burst the holder is either descheduled or on
// another core doing real work, and yielding beats burning the CPU —
// unbounded spinning is catastrophic when threads outnumber cores.
struct SpinLock {
  std::atomic_flag F = ATOMIC_FLAG_INIT;
  void lock() {
    unsigned Spins = 0;
    while (F.test_and_set(std::memory_order_acquire))
      if (++Spins >= 32) {
        Spins = 0;
        std::this_thread::yield();
      }
  }
  void unlock() { F.clear(std::memory_order_release); }
};

SpinLock SharedUseLocks[64];

SpinLock &lockFor(const Value *V) {
  return SharedUseLocks[(reinterpret_cast<uintptr_t>(V) >> 4) & 63];
}
} // namespace

void Value::addUser(Instruction *I) {
  if (isSharedAcrossFunctions()) {
    SpinLock &L = lockFor(this);
    L.lock();
    Users.push_back(I);
    L.unlock();
    return;
  }
  Users.push_back(I);
}

void Value::removeUser(Instruction *I) {
  if (isSharedAcrossFunctions()) {
    SpinLock &L = lockFor(this);
    L.lock();
    auto It = std::find(Users.begin(), Users.end(), I);
    assert(It != Users.end() && "removing a non-existent user");
    *It = Users.back();
    Users.pop_back();
    L.unlock();
    return;
  }
  auto It = std::find(Users.begin(), Users.end(), I);
  assert(It != Users.end() && "removing a non-existent user");
  // Order is irrelevant: swap-and-pop.
  *It = Users.back();
  Users.pop_back();
}

void Value::replaceAllUsesWith(Value *New) {
  assert(New != this && "RAUW with self");
  assert(New->type() == type() && "RAUW type mismatch");
  // Users mutates as we rewrite; iterate over a snapshot.
  std::vector<Instruction *> Snapshot = Users;
  for (Instruction *User : Snapshot)
    User->replaceUsesOfWith(this, New);
  assert(Users.empty() && "RAUW left dangling uses");
}

//===----------------------------------------------------------------------===//
// Instruction
//===----------------------------------------------------------------------===//

Function *Instruction::function() const {
  return Parent ? Parent->parent() : nullptr;
}

void Instruction::setOperand(size_t I, Value *V) {
  assert(I < Operands.size() && "operand index out of range");
  assert(V && "null operand");
  Operands[I]->removeUser(this);
  Operands[I] = V;
  V->addUser(this);
}

void Instruction::replaceUsesOfWith(Value *Old, Value *New) {
  for (size_t I = 0; I != Operands.size(); ++I)
    if (Operands[I] == Old)
      setOperand(I, New);
}

void Instruction::dropAllOperands() {
  for (Value *Op : Operands)
    Op->removeUser(this);
  Operands.clear();
}

bool Instruction::hasSideEffects() const {
  switch (kind()) {
  case Kind::Store:
  case Kind::Call: // Conservative: any call may write memory or print.
  case Kind::Br:
  case Kind::CondBr:
  case Kind::Ret:
    return true;
  default:
    return false;
  }
}

bool Instruction::mayReadMemory() const {
  return kind() == Kind::Load || kind() == Kind::Call;
}

unsigned Instruction::numSuccessors() const {
  return static_cast<unsigned>(Successors.size());
}

BasicBlock *Instruction::successor(unsigned I) const {
  assert(I < Successors.size() && "successor index out of range");
  return Successors[I];
}

void Instruction::setSuccessor(unsigned I, BasicBlock *BB) {
  assert(I < Successors.size() && "successor index out of range");
  assert(BB && "null successor");
  if (Parent) {
    // Maintain predecessor lists when the instruction is in a block.
    BasicBlock *Old = Successors[I];
    auto It = std::find(Old->Preds.begin(), Old->Preds.end(), Parent);
    assert(It != Old->Preds.end() && "stale predecessor list");
    Old->Preds.erase(It);
    BB->Preds.push_back(Parent);
  }
  Successors[I] = BB;
}

const char *sc::binOpName(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "add";
  case BinOp::Sub:
    return "sub";
  case BinOp::Mul:
    return "mul";
  case BinOp::SDiv:
    return "sdiv";
  case BinOp::SRem:
    return "srem";
  }
  return "?";
}

const char *sc::cmpPredName(CmpPred P) {
  switch (P) {
  case CmpPred::EQ:
    return "eq";
  case CmpPred::NE:
    return "ne";
  case CmpPred::SLT:
    return "slt";
  case CmpPred::SLE:
    return "sle";
  case CmpPred::SGT:
    return "sgt";
  case CmpPred::SGE:
    return "sge";
  }
  return "?";
}

CmpPred sc::swapCmpPred(CmpPred P) {
  switch (P) {
  case CmpPred::EQ:
    return CmpPred::EQ;
  case CmpPred::NE:
    return CmpPred::NE;
  case CmpPred::SLT:
    return CmpPred::SGT;
  case CmpPred::SLE:
    return CmpPred::SGE;
  case CmpPred::SGT:
    return CmpPred::SLT;
  case CmpPred::SGE:
    return CmpPred::SLE;
  }
  return P;
}

CmpPred sc::invertCmpPred(CmpPred P) {
  switch (P) {
  case CmpPred::EQ:
    return CmpPred::NE;
  case CmpPred::NE:
    return CmpPred::EQ;
  case CmpPred::SLT:
    return CmpPred::SGE;
  case CmpPred::SLE:
    return CmpPred::SGT;
  case CmpPred::SGT:
    return CmpPred::SLE;
  case CmpPred::SGE:
    return CmpPred::SLT;
  }
  return P;
}

//===----------------------------------------------------------------------===//
// PhiInst
//===----------------------------------------------------------------------===//

void PhiInst::removeIncoming(size_t I) {
  assert(I < Incoming.size() && "incoming index out of range");
  removeOperandSlot(I);
  Incoming.erase(Incoming.begin() + static_cast<ptrdiff_t>(I));
}

void PhiInst::removeIncomingBlock(BasicBlock *BB) {
  for (size_t I = Incoming.size(); I-- > 0;)
    if (Incoming[I] == BB)
      removeIncoming(I);
}

//===----------------------------------------------------------------------===//
// BasicBlock
//===----------------------------------------------------------------------===//

void BasicBlock::linkEdges(Instruction *Term, BasicBlock *From) {
  for (unsigned I = 0; I != Term->numSuccessors(); ++I)
    Term->successor(I)->Preds.push_back(From);
}

void BasicBlock::unlinkEdges(Instruction *Term, BasicBlock *From) {
  for (unsigned I = 0; I != Term->numSuccessors(); ++I) {
    auto &Preds = Term->successor(I)->Preds;
    auto It = std::find(Preds.begin(), Preds.end(), From);
    assert(It != Preds.end() && "stale predecessor list");
    Preds.erase(It);
  }
}

Instruction *BasicBlock::push_back(std::unique_ptr<Instruction> I) {
  assert(!terminator() && "appending past a terminator");
  Instruction *Raw = I.get();
  Raw->Parent = this;
  Insts.push_back(std::move(I));
  if (Raw->isTerminator())
    linkEdges(Raw, this);
  return Raw;
}

Instruction *BasicBlock::insertBefore(size_t Pos,
                                      std::unique_ptr<Instruction> I) {
  assert(Pos <= Insts.size() && "insert position out of range");
  assert(!I->isTerminator() && "use push_back for terminators");
  Instruction *Raw = I.get();
  Raw->Parent = this;
  Insts.insert(Insts.begin() + static_cast<ptrdiff_t>(Pos), std::move(I));
  return Raw;
}

void BasicBlock::erase(size_t Pos) {
  assert(Pos < Insts.size() && "erase position out of range");
  Instruction *I = Insts[Pos].get();
  assert(!I->hasUses() && "erasing an instruction that still has users");
  if (I->isTerminator())
    unlinkEdges(I, this);
  Insts.erase(Insts.begin() + static_cast<ptrdiff_t>(Pos));
}

void BasicBlock::erase(Instruction *I) { erase(indexOf(I)); }

std::unique_ptr<Instruction> BasicBlock::take(size_t Pos) {
  assert(Pos < Insts.size() && "take position out of range");
  Instruction *I = Insts[Pos].get();
  if (I->isTerminator())
    unlinkEdges(I, this);
  std::unique_ptr<Instruction> Owned = std::move(Insts[Pos]);
  Owned->Parent = nullptr;
  Insts.erase(Insts.begin() + static_cast<ptrdiff_t>(Pos));
  return Owned;
}

size_t BasicBlock::indexOf(const Instruction *I) const {
  for (size_t Pos = 0; Pos != Insts.size(); ++Pos)
    if (Insts[Pos].get() == I)
      return Pos;
  assert(false && "instruction not in this block");
  return ~size_t(0);
}

size_t BasicBlock::numDistinctPredecessors() const {
  std::vector<BasicBlock *> Sorted = Preds;
  std::sort(Sorted.begin(), Sorted.end());
  return static_cast<size_t>(
      std::unique(Sorted.begin(), Sorted.end()) - Sorted.begin());
}

std::vector<BasicBlock *> BasicBlock::successors() const {
  std::vector<BasicBlock *> Succs;
  if (Instruction *Term = terminator())
    for (unsigned I = 0; I != Term->numSuccessors(); ++I)
      Succs.push_back(Term->successor(I));
  return Succs;
}

std::vector<PhiInst *> BasicBlock::phis() const {
  std::vector<PhiInst *> Result;
  for (const auto &I : Insts) {
    auto *Phi = dyn_cast<PhiInst>(I.get());
    if (!Phi)
      break;
    Result.push_back(Phi);
  }
  return Result;
}

void BasicBlock::replaceSuccessor(BasicBlock *OldSucc, BasicBlock *NewSucc) {
  Instruction *Term = terminator();
  assert(Term && "block has no terminator");
  for (unsigned I = 0; I != Term->numSuccessors(); ++I)
    if (Term->successor(I) == OldSucc)
      Term->setSuccessor(I, NewSucc);
}

//===----------------------------------------------------------------------===//
// Function
//===----------------------------------------------------------------------===//

Function::Function(std::string Name, IRType RetTy,
                   const std::vector<std::pair<std::string, IRType>> &Params)
    : Name(std::move(Name)), RetTy(RetTy) {
  for (size_t I = 0; I != Params.size(); ++I)
    Args.push_back(std::make_unique<Argument>(
        Params[I].second, Params[I].first, static_cast<unsigned>(I)));
}

Function::~Function() {
  for (const auto &BB : Blocks)
    for (size_t I = 0; I != BB->size(); ++I)
      BB->inst(I)->dropAllOperands();
}

BasicBlock *Function::createBlock(std::string BlockName) {
  auto BB = std::make_unique<BasicBlock>(std::move(BlockName));
  BB->Parent = this;
  Blocks.push_back(std::move(BB));
  return Blocks.back().get();
}

void Function::eraseBlock(BasicBlock *BB) {
  // Erase instructions bottom-up so intra-block uses disappear before
  // their definitions; drop operands first to release cross-references.
  for (size_t I = BB->size(); I-- > 0;) {
    Instruction *Inst = BB->inst(I);
    if (Inst->isTerminator())
      BasicBlock::unlinkEdges(Inst, BB);
    Inst->dropAllOperands();
  }
  for (size_t I = BB->size(); I-- > 0;) {
    assert(!BB->inst(I)->hasUses() &&
           "erasing a block whose instructions still have users");
    BB->Insts.pop_back();
  }
  size_t Index = indexOfBlock(BB);
  Blocks.erase(Blocks.begin() + static_cast<ptrdiff_t>(Index));
}

size_t Function::indexOfBlock(const BasicBlock *BB) const {
  for (size_t I = 0; I != Blocks.size(); ++I)
    if (Blocks[I].get() == BB)
      return I;
  assert(false && "block not in this function");
  return ~size_t(0);
}

void Function::moveBlock(size_t From, size_t To) {
  assert(From < Blocks.size() && To < Blocks.size() && "index out of range");
  if (From == To)
    return;
  auto Owned = std::move(Blocks[From]);
  Blocks.erase(Blocks.begin() + static_cast<ptrdiff_t>(From));
  Blocks.insert(Blocks.begin() + static_cast<ptrdiff_t>(To), std::move(Owned));
}

size_t Function::instructionCount() const {
  size_t N = 0;
  for (const auto &BB : Blocks)
    N += BB->size();
  return N;
}

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

ConstantInt *Module::getConstant(IRType Ty, int64_t V) {
  // Locked: function passes running concurrently materialize constants.
  // Uniquing makes the resulting pointer independent of call order, so
  // parallel creation cannot perturb output. The key picks the shard,
  // so the same constant always uniques in the same shard and distinct
  // hot constants spread across independent mutexes.
  auto Key = std::make_pair(static_cast<uint8_t>(Ty), V);
  uint64_t H = (static_cast<uint64_t>(V) ^ (static_cast<uint64_t>(Ty) << 56)) *
               0x9E3779B97F4A7C15ull;
  ConstantShard &Shard = ConstantShards[(H >> 32) % NumConstantShards];
  std::lock_guard<std::mutex> Lock(Shard.Mu);
  auto It = Shard.Index.find(Key);
  if (It != Shard.Index.end())
    return It->second;
  Shard.Pool.push_back(std::make_unique<ConstantInt>(Ty, V));
  Shard.Index[Key] = Shard.Pool.back().get();
  return Shard.Pool.back().get();
}

GlobalVariable *Module::createGlobal(std::string GName, uint64_t Size,
                                     int64_t Init) {
  assert(!getGlobal(GName) && "duplicate global");
  Globals.push_back(
      std::make_unique<GlobalVariable>(std::move(GName), Size, Init));
  return Globals.back().get();
}

void Module::eraseGlobal(GlobalVariable *G) {
  assert(!G->hasUses() && "erasing a global that still has uses");
  for (size_t I = 0; I != Globals.size(); ++I)
    if (Globals[I].get() == G) {
      Globals.erase(Globals.begin() + static_cast<ptrdiff_t>(I));
      return;
    }
  assert(false && "global not in this module");
}

GlobalVariable *Module::getGlobal(const std::string &GName) const {
  for (const auto &G : Globals)
    if (G->name() == GName)
      return G.get();
  return nullptr;
}

Function *Module::createFunction(
    std::string FName, IRType RetTy,
    const std::vector<std::pair<std::string, IRType>> &Params) {
  assert(!getFunction(FName) && "duplicate function");
  Functions.push_back(
      std::make_unique<Function>(std::move(FName), RetTy, Params));
  Functions.back()->Parent = this;
  return Functions.back().get();
}

Function *Module::getFunction(const std::string &FName) const {
  for (const auto &F : Functions)
    if (F->name() == FName)
      return F.get();
  return nullptr;
}
