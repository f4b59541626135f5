// The portable execution engine: fetch/decode/switch with a budget re-check
// before every instruction. This loop is the reference semantics -- the
// threaded engine (interp.cc) must be observation-equivalent to it, exit
// for exit, cycle for cycle (tests/interp_dispatch_test.cc holds the two
// together).
//
// Kept in its own translation unit so it is compiled at the project's
// default flags: interp.cc carries codegen options tuned for computed-goto
// dispatch (-fno-gcse and friends) that have no business shaping -- in
// either direction -- the engine used as the correctness and performance
// baseline.

#include <cstring>

#include "src/uvm/interp.h"
#include "src/uvm/minitlb.h"
#include "src/uvm/predecode.h"  // kAcctInstr / kAcctCycleMask packing

namespace fluke {
namespace interp_internal {

// It keeps the code pointer, PC and cycle counter in locals (hoisted out of
// the per-instruction Program::At/RunResult accesses) and writes them back
// at every exit. The Core form is resumable: the JIT deopts into it with a
// warm MiniTlb and the packed account it accumulated in compiled code, and
// the loop finishes the burst exactly as if it had run from the start.
RunResult RunUserSwitchCore(const Program& program, UserRegisters* regs,
                            MemoryBus* bus, uint64_t budget_cycles,
                            MiniTlb& tlb, uint64_t acct_in,
                            uint64_t* instr_counter) {
  RunResult result;
  uint32_t* r = regs->gpr;
  const Instr* code = program.code();
  const uint32_t code_size = program.size();
  uint32_t pc = regs->pc;
  // Packed account (predecode.h layout): cycles in the low word, retired
  // instructions in the high word. Retired means everything that executed,
  // including Halt; not the trap ops (syscall/break) or a faulting access,
  // whose PC stays put and which re-execute on resume. One accumulator
  // instead of two keeps the per-instruction bookkeeping at a single add --
  // each case charges kAcctInstr plus its cycle cost in one constant. The
  // halves cannot interact: the kernel caps a burst at 2^31 cycles and every
  // per-instruction cost is far below 2^31, so the cycle half stays under
  // 2^32.
  uint64_t acct = acct_in;

  // Every exit funnels through done: so the pc/account locals are committed
  // on all paths. The PC is NOT advanced past a faulting load/store, a
  // syscall, a halt or a breakpoint -- the kernel decides how to resume.
  while ((acct & kAcctCycleMask) < budget_cycles) {
    if (pc >= code_size) {
      result.event = UserEvent::kBadPc;
      goto done;
    }
    {
      const Instr* in = &code[pc];
      switch (in->op) {
        case Op::kHalt:
          acct += kAcctInstr + kCostAlu;
          result.event = UserEvent::kHalt;
          goto done;
        case Op::kNop:
          acct += kAcctInstr + kCostAlu;
          break;
        case Op::kMovImm:
          r[in->a] = in->imm;
          acct += kAcctInstr + kCostAlu;
          break;
        case Op::kMov:
          r[in->a] = r[in->b];
          acct += kAcctInstr + kCostAlu;
          break;
        case Op::kAdd:
          r[in->a] = r[in->b] + r[in->c];
          acct += kAcctInstr + kCostAlu;
          break;
        case Op::kSub:
          r[in->a] = r[in->b] - r[in->c];
          acct += kAcctInstr + kCostAlu;
          break;
        case Op::kMul:
          r[in->a] = r[in->b] * r[in->c];
          acct += kAcctInstr + kCostAlu * 3;
          break;
        case Op::kAnd:
          r[in->a] = r[in->b] & r[in->c];
          acct += kAcctInstr + kCostAlu;
          break;
        case Op::kOr:
          r[in->a] = r[in->b] | r[in->c];
          acct += kAcctInstr + kCostAlu;
          break;
        case Op::kXor:
          r[in->a] = r[in->b] ^ r[in->c];
          acct += kAcctInstr + kCostAlu;
          break;
        case Op::kShl:
          r[in->a] = r[in->b] << (r[in->c] & 31);
          acct += kAcctInstr + kCostAlu;
          break;
        case Op::kShr:
          r[in->a] = r[in->b] >> (r[in->c] & 31);
          acct += kAcctInstr + kCostAlu;
          break;
        case Op::kAddImm:
          r[in->a] = r[in->b] + in->imm;
          acct += kAcctInstr + kCostAlu;
          break;
        case Op::kLoadB: {
          const uint32_t addr = r[in->b] + in->imm;
          uint8_t* base = tlb.ReadBase(addr >> kPageShift);
          if (base != nullptr) {
            r[in->a] = base[addr & kPageMask];
            acct += kAcctInstr + kCostMem;
            break;
          }
          uint8_t v = 0;
          if (!bus->ReadByte(addr, &v, &result.fault_addr)) {
            result.event = UserEvent::kFault;
            result.fault_is_write = false;
            goto done;  // PC stays on the faulting instruction
          }
          r[in->a] = v;
          acct += kAcctInstr + kCostMem;
          break;
        }
        case Op::kStoreB: {
          const uint32_t addr = r[in->b] + in->imm;
          uint8_t* base = tlb.WriteBase(addr >> kPageShift);
          if (base != nullptr) {
            base[addr & kPageMask] = static_cast<uint8_t>(r[in->a]);
            acct += kAcctInstr + kCostMem;
            break;
          }
          if (!bus->WriteByte(addr, static_cast<uint8_t>(r[in->a]), &result.fault_addr)) {
            result.event = UserEvent::kFault;
            result.fault_is_write = true;
            goto done;
          }
          acct += kAcctInstr + kCostMem;
          break;
        }
        case Op::kLoadW: {
          uint32_t v = 0;
          const uint32_t addr = r[in->b] + in->imm;
          const uint32_t off = addr & kPageMask;
          if (off + 4 <= kPageSize) {  // page-straddling words take the bus
            const uint8_t* base = tlb.ReadBase(addr >> kPageShift);
            if (base != nullptr) {
              std::memcpy(&v, base + off, 4);
              r[in->a] = v;
              acct += kAcctInstr + kCostMem;
              break;
            }
          }
          if (!bus->ReadWord(addr, &v, &result.fault_addr)) {
            result.event = UserEvent::kFault;
            result.fault_is_write = false;
            goto done;
          }
          r[in->a] = v;
          acct += kAcctInstr + kCostMem;
          break;
        }
        case Op::kStoreW: {
          const uint32_t addr = r[in->b] + in->imm;
          const uint32_t off = addr & kPageMask;
          if (off + 4 <= kPageSize) {
            uint8_t* base = tlb.WriteBase(addr >> kPageShift);
            if (base != nullptr) {
              std::memcpy(base + off, &r[in->a], 4);
              acct += kAcctInstr + kCostMem;
              break;
            }
          }
          if (!bus->WriteWord(addr, r[in->a], &result.fault_addr)) {
            result.event = UserEvent::kFault;
            result.fault_is_write = true;
            goto done;
          }
          acct += kAcctInstr + kCostMem;
          break;
        }
        case Op::kJmp:
          pc = in->imm;
          acct += kAcctInstr + kCostBranch;
          continue;  // pc already set
        case Op::kBeq:
          acct += kAcctInstr + kCostBranch;
          if (r[in->a] == r[in->b]) {
            pc = in->imm;
            continue;
          }
          break;
        case Op::kBne:
          acct += kAcctInstr + kCostBranch;
          if (r[in->a] != r[in->b]) {
            pc = in->imm;
            continue;
          }
          break;
        case Op::kBlt:
          acct += kAcctInstr + kCostBranch;
          if (r[in->a] < r[in->b]) {
            pc = in->imm;
            continue;
          }
          break;
        case Op::kBge:
          acct += kAcctInstr + kCostBranch;
          if (r[in->a] >= r[in->b]) {
            pc = in->imm;
            continue;
          }
          break;
        case Op::kSyscall:
          // PC stays on the syscall instruction; the kernel advances it on
          // completion or rewrites register A to name a restart entrypoint.
          result.event = UserEvent::kSyscall;
          goto done;
        case Op::kCompute:
          acct += kAcctInstr + in->imm;
          break;
        case Op::kBreak:
          result.event = UserEvent::kBreak;
          goto done;
      }
    }
    ++pc;  // every fall-through case above charged its own retire
  }
  result.event = UserEvent::kBudget;

done:
  regs->pc = pc;
  result.cycles = acct & kAcctCycleMask;
  if (instr_counter != nullptr) {
    *instr_counter += acct >> 32;
  }
  return result;
}

}  // namespace interp_internal
}  // namespace fluke
