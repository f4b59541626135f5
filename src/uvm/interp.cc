#include "src/uvm/interp.h"

#include <cstdio>
#include <cstring>

#include "src/uvm/jit.h"
#include "src/uvm/minitlb.h"
#include "src/uvm/predecode.h"

// The threaded engine needs GNU computed goto (`&&label`). The CMake option
// FLUKE_INTERP_COMPUTED_GOTO (default ON) gates it so the portable switch
// loop can be forced for odd toolchains; the runtime InterpOptions.engine
// field then selects between the compiled-in engines.
#if defined(FLUKE_INTERP_COMPUTED_GOTO) && (defined(__GNUC__) || defined(__clang__))
#define FLUKE_HAVE_THREADED_DISPATCH 1
#else
#define FLUKE_HAVE_THREADED_DISPATCH 0
#endif

namespace fluke {

namespace {

using interp_internal::MiniTlb;

#if FLUKE_HAVE_THREADED_DISPATCH

// The threaded engine: computed-goto dispatch over the predecoded
// side-table, with batched cycle accounting. Two handler tables:
//
//   kBulk -- the whole straight-line block's cycle cost was charged at the
//            block head (strictly under the budget), so handlers do no
//            budget or bounds checks; control is a single `++d; goto *...`,
//            and fused pair handlers retire two instructions per dispatch.
//   kStep -- per-instruction budget check and charge, token-for-token the
//            switch loop (interp_switch.cc); taken whenever the remaining
//            budget might not cover the block, so budget exhaustion lands on
//            exactly the same instruction and cycle count as the switch
//            loop. Fused ops map to their FIRST op's step handler -- entry
//            i+1 keeps its own op, so stepping retires the pair one
//            instruction at a time with all the reference checks.
//
// The mode is re-chosen at every block boundary (NEXT_BLOCK). A mid-block
// fault in bulk mode un-charges `d->block_acct` -- the faulting
// instruction plus the unexecuted tail, cycles and retires both -- leaving
// exactly the switch loop's counts. The sentinel entry and decode-time target validation replace
// the per-instruction PC bounds check.
RunResult RunUserThreaded(DecodedProgram& prog, UserRegisters* regs,
                          MemoryBus* bus, uint64_t budget_cycles, MiniTlb& tlb,
                          uint64_t* block_charge_counter,
                          uint64_t* instr_counter) {
  RunResult result;
  // __restrict: the register file is only ever accessed through `r` in this
  // function -- no decoded entry, TLB tag or user-memory frame overlaps it.
  // Without the promise every r[] store (same-typed as DecodedInstr::imm and
  // the TLB tags under TBAA) forces the compiler to reload entry fields and
  // tags it already had in registers.
  uint32_t* const __restrict r = regs->gpr;
  const DecodedInstr* const code = prog.code();
  const uint32_t code_size = prog.size();
  uint32_t pc = regs->pc;
  uint64_t block_charges = 0;
  // Packed running account (predecode.h layout): cycles in the low word,
  // retired instructions in the high word, kept in the same batched
  // discipline as the old cycle counter -- bulk mode adds the block's packed
  // charge up front and subtracts the unexecuted remainder on a mid-block
  // fault; step mode charges per retire. One accumulator instead of two
  // keeps bulk block entry at a single 64-bit add, the cost the engine was
  // tuned at before the retire count existed. Componentwise arithmetic is
  // exact: the caller bounds the burst far below 2^32 cycles, and a
  // mid-block un-charge subtracts a suffix of what block entry just added,
  // so neither half can carry or borrow across bit 32.
  uint64_t acct = 0;

  // Entry checks in the switch loop's order: budget first, then PC bounds.
  // pc == code_size enters at the sentinel, which reports kBadPc itself.
  if (budget_cycles == 0) {
    result.event = UserEvent::kBudget;
    goto commit;
  }
  if (pc > code_size) {
    result.event = UserEvent::kBadPc;
    goto commit;
  }

  {
    const DecodedInstr* d;

    // Handler tables, indexed by DecOp (order must match the enum). Static:
    // label addresses are link-time constants under GCC/Clang, so the tables
    // live in .rodata and cost nothing per call -- RunUser is re-entered for
    // every kernel crossing, and a null-syscall loop would otherwise spend
    // more time rebuilding the tables than running user code.
    static const void* const kBulk[kNumDecOps] = {
        &&b_halt,    &&b_nop,    &&b_movimm, &&b_mov,    &&b_add,
        &&b_sub,     &&b_mul,    &&b_and_,   &&b_or_,    &&b_xor_,
        &&b_shl,     &&b_shr,    &&b_addimm, &&b_loadb,  &&b_storeb,
        &&b_loadw,   &&b_storew, &&b_jmp,    &&b_beq,    &&b_bne,
        &&b_blt,     &&b_bge,    &&b_syscall, &&b_compute, &&b_brk,
        &&b_end,     &&b_jmpout, &&b_beqout, &&b_bneout, &&b_bltout,
        &&b_bgeout,
#define FLUKE_BULK_FUSED(n2, o2, n1, o1) &&bf_##n1##_##n2,
        FLUKE_FUSE_FOREACH_PAIR(FLUKE_BULK_FUSED, FLUKE_BULK_FUSED)
#undef FLUKE_BULK_FUSED
        &&bf_loadw_addimm, &&bf_storew_addimm,
#define FLUKE_BULK_TRIPLE(n3, o3, n1) &&bt_##n1##_addimm_##n3,
        FLUKE_FUSE_BR_OPS(FLUKE_BULK_TRIPLE, loadw)
        FLUKE_FUSE_BR_OPS(FLUKE_BULK_TRIPLE, storew)
#undef FLUKE_BULK_TRIPLE
    };
    static const void* const kStep[kNumDecOps] = {
        &&s_halt,    &&s_nop,    &&s_movimm, &&s_mov,    &&s_add,
        &&s_sub,     &&s_mul,    &&s_and_,   &&s_or_,    &&s_xor_,
        &&s_shl,     &&s_shr,    &&s_addimm, &&s_loadb,  &&s_storeb,
        &&s_loadw,   &&s_storew, &&s_jmp,    &&s_beq,    &&s_bne,
        &&s_blt,     &&s_bge,    &&s_syscall, &&s_compute, &&s_brk,
        &&s_end,     &&s_jmpout, &&s_beqout, &&s_bneout, &&s_bltout,
        &&s_bgeout,
#define FLUKE_STEP_FUSED(n2, o2, n1, o1) &&s_##n1,
        FLUKE_FUSE_FOREACH_PAIR(FLUKE_STEP_FUSED, FLUKE_STEP_FUSED)
#undef FLUKE_STEP_FUSED
        &&s_loadw, &&s_storew,
#define FLUKE_STEP_TRIPLE(n3, o3, n1) &&s_##n1,
        FLUKE_FUSE_BR_OPS(FLUKE_STEP_TRIPLE, loadw)
        FLUKE_FUSE_BR_OPS(FLUKE_STEP_TRIPLE, storew)
#undef FLUKE_STEP_TRIPLE
    };

    // Direct-threading linkage: resolve each entry's bulk handler address
    // once per program (the labels above are local to this function, so the
    // decoder could not). After this, bulk dispatch is `goto *d->handler` --
    // one dependent load shorter than indexing kBulk by the op byte, and
    // that load chain is the critical path of every dispatch.
    if (!prog.linked()) {
      prog.Link(kBulk);
    }

// Enters the block headed at index `target`. If the remaining budget
// STRICTLY covers the whole block, charge it up front and run bulk;
// otherwise step. Strict `<`: a block whose cost lands exactly on the
// budget must step, so a trailing zero-cost syscall/break/sentinel is NOT
// reached when the budget runs out at its door -- just as the switch loop's
// `while` refuses to fetch it.
#define NEXT_BLOCK(target)                                        \
  do {                                                            \
    d = code + (target);                                          \
    const uint64_t na = acct + d->block_acct;                     \
    if (FLUKE_LIKELY((na & kAcctCycleMask) < budget_cycles)) {    \
      acct = na;                                                  \
      ++block_charges;                                            \
      goto* d->handler;                                           \
    }                                                             \
    goto* kStep[static_cast<int>(d->op)];                         \
  } while (0)

// Bulk-mode taken edge through the branch entry's own taken-edge cache
// (Link copied the target block's handler and charge into `d`): everything
// the redirect needs reads off `d` directly, keeping the loop-carried
// dependency of a hot loop to one load. `d` itself is retargeted via the
// imm field in parallel -- the next handler needs it, but the jump doesn't.
#define NEXT_BLOCK_TGT(target)                                  \
  do {                                                          \
    const uint64_t na = acct + d->tgt_acct;                     \
    if (FLUKE_LIKELY((na & kAcctCycleMask) < budget_cycles)) {  \
      acct = na;                                                \
      ++block_charges;                                          \
      const void* h = d->tgt_handler;                           \
      d = code + (target);                                      \
      goto* h;                                                  \
    }                                                           \
    d = code + (target);                                        \
    goto* kStep[static_cast<int>(d->op)];                       \
  } while (0)

#define BULK_NEXT() \
  do {              \
    ++d;            \
    goto* d->handler; \
  } while (0)

// After a fused pair retires both of its instructions.
#define BULK_NEXT2()  \
  do {                \
    d += 2;           \
    goto* d->handler; \
  } while (0)

#define STEP_NEXT()                       \
  do {                                    \
    ++d;                                  \
    goto* kStep[static_cast<int>(d->op)]; \
  } while (0)

// The switch loop's `while (cycles < budget_cycles)`, at step-handler entry.
#define STEP_GUARD()                     \
  do {                                   \
    if ((acct & kAcctCycleMask) >= budget_cycles) { \
      result.event = UserEvent::kBudget; \
      goto exit_at_d;                    \
    }                                    \
  } while (0)

#define FALLTHROUGH_IDX (static_cast<uint32_t>(d - code) + 1)

// A non-control, non-memory instruction: in bulk mode its cost is already
// charged; in step mode it guards and charges like the switch loop.
#define ALU_PAIR(name, cost, ...) \
  b_##name:                       \
  __VA_ARGS__;                    \
  BULK_NEXT();                    \
  s_##name:                       \
  STEP_GUARD();                   \
  __VA_ARGS__;                    \
  acct += kAcctInstr + (cost);    \
  STEP_NEXT()

// Conditional branch with an in-range (or sentinel) taken-target. Both arms
// end the block, so both re-enter through NEXT_BLOCK.
#define BRANCH_PAIR(name, cond) \
  b_##name:                     \
  if (cond) {                   \
    NEXT_BLOCK_TGT(d->imm);     \
  }                             \
  NEXT_BLOCK(FALLTHROUGH_IDX);  \
  s_##name:                     \
  STEP_GUARD();                 \
  acct += kAcctInstr + kCostBranch; \
  if (cond) {                   \
    NEXT_BLOCK(d->imm);         \
  }                             \
  NEXT_BLOCK(FALLTHROUGH_IDX)

// Conditional branch whose taken-target is beyond the sentinel: taken means
// the switch loop's next iteration reports kBadPc with the bad target in pc
// -- unless that iteration's budget check fires first (step mode only; bulk
// pre-charge guarantees cycles < budget at block end).
#define BRANCH_OUT_PAIR(name, cond)                                        \
  b_##name:                                                                \
  if (cond) {                                                              \
    pc = d->imm;                                                           \
    result.event = UserEvent::kBadPc;                                      \
    goto commit;                                                           \
  }                                                                        \
  NEXT_BLOCK(FALLTHROUGH_IDX);                                             \
  s_##name:                                                                \
  STEP_GUARD();                                                            \
  acct += kAcctInstr + kCostBranch;                                        \
  if (cond) {                                                              \
    pc = d->imm;                                                           \
    result.event = (acct & kAcctCycleMask) < budget_cycles                 \
                       ? UserEvent::kBadPc                                 \
                       : UserEvent::kBudget;                               \
    goto commit;                                                           \
  }                                                                        \
  NEXT_BLOCK(FALLTHROUGH_IDX)

// Execution expressions for the fusable ops, parameterized on the decoded
// entry so fused handlers can apply them to `d` and `d + 1`. Must mirror the
// switch loop's semantics exactly.
#define EXPR_add(p) r[(p)->a] = r[(p)->b] + r[(p)->c]
#define EXPR_sub(p) r[(p)->a] = r[(p)->b] - r[(p)->c]
#define EXPR_and_(p) r[(p)->a] = r[(p)->b] & r[(p)->c]
#define EXPR_or_(p) r[(p)->a] = r[(p)->b] | r[(p)->c]
#define EXPR_xor_(p) r[(p)->a] = r[(p)->b] ^ r[(p)->c]
#define EXPR_shl(p) r[(p)->a] = r[(p)->b] << (r[(p)->c] & 31)
#define EXPR_shr(p) r[(p)->a] = r[(p)->b] >> (r[(p)->c] & 31)
#define EXPR_addimm(p) r[(p)->a] = r[(p)->b] + (p)->imm
#define COND_beq(p) (r[(p)->a] == r[(p)->b])
#define COND_bne(p) (r[(p)->a] != r[(p)->b])
#define COND_blt(p) (r[(p)->a] < r[(p)->b])
#define COND_bge(p) (r[(p)->a] >= r[(p)->b])

// Fused ALU+ALU pair: both costs were pre-charged with the block; one
// dispatch retires two instructions. Sequential order is preserved -- the
// second expression reads register state the first already updated.
#define FUSE_AA_HANDLER(n2, o2, n1, o1) \
  bf_##n1##_##n2:                       \
  EXPR_##n1(d);                         \
  EXPR_##n2(d + 1);                     \
  BULK_NEXT2();

// Fused ALU + in-range conditional branch: the branch ends the block, so
// both arms re-enter through NEXT_BLOCK (decode never fuses a branch whose
// taken-target was rewritten to an *Out op).
#define FUSE_AB_HANDLER(n2, o2, n1, o1)            \
  bf_##n1##_##n2:                                  \
  EXPR_##n1(d);                                    \
  if (COND_##n2(d + 1)) {                          \
    NEXT_BLOCK_TGT((d + 1)->imm);                  \
  }                                                \
  NEXT_BLOCK(static_cast<uint32_t>(d - code) + 2);

// Fused triple: word access + AddImm + conditional branch, one dispatch for
// the whole streaming-loop step. The memory half is b_loadw/b_storew's body
// (fault un-charges the remaining block and exits at the access); the branch
// ends the block, so both arms re-enter through NEXT_BLOCK. Program order is
// preserved: the address and (for stores) the value are read before the
// AddImm executes, and the branch condition after it.
#define FUSE_LOAD_TRIPLE_HANDLER(n3, o3, unused)              \
  bt_loadw_addimm_##n3: {                                     \
    uint32_t v = 0;                                           \
    const uint32_t addr = r[d->b] + d->imm;                   \
    const uint32_t off = addr & kPageMask;                    \
    if (FLUKE_LIKELY(off + 4 <= kPageSize)) {                 \
      const uint8_t* base = tlb.ReadBase(addr >> kPageShift); \
      if (FLUKE_LIKELY(base != nullptr)) {                    \
        std::memcpy(&v, base + off, 4);                       \
        goto lt_##n3##_retire;                                \
      }                                                       \
    }                                                         \
    if (!bus->ReadWord(addr, &v, &result.fault_addr)) {       \
      acct -= d->block_acct;                                  \
      result.event = UserEvent::kFault;                       \
      result.fault_is_write = false;                          \
      goto exit_at_d;                                         \
    }                                                         \
  lt_##n3##_retire:                                           \
    r[d->a] = v;                                              \
    EXPR_addimm(d + 1);                                       \
    if (COND_##n3(d + 2)) {                                   \
      NEXT_BLOCK_TGT((d + 2)->imm);                           \
    }                                                         \
    NEXT_BLOCK(static_cast<uint32_t>(d - code) + 3);          \
  }

#define FUSE_STORE_TRIPLE_HANDLER(n3, o3, unused)             \
  bt_storew_addimm_##n3: {                                    \
    const uint32_t addr = r[d->b] + d->imm;                   \
    const uint32_t off = addr & kPageMask;                    \
    if (FLUKE_LIKELY(off + 4 <= kPageSize)) {                 \
      uint8_t* base = tlb.WriteBase(addr >> kPageShift);      \
      if (FLUKE_LIKELY(base != nullptr)) {                    \
        std::memcpy(base + off, &r[d->a], 4);                 \
        goto st_##n3##_retire;                                \
      }                                                       \
    }                                                         \
    if (!bus->WriteWord(addr, r[d->a], &result.fault_addr)) { \
      acct -= d->block_acct;                                  \
      result.event = UserEvent::kFault;                       \
      result.fault_is_write = true;                           \
      goto exit_at_d;                                         \
    }                                                         \
  st_##n3##_retire:                                           \
    EXPR_addimm(d + 1);                                       \
    if (COND_##n3(d + 2)) {                                   \
      NEXT_BLOCK_TGT((d + 2)->imm);                           \
    }                                                         \
    NEXT_BLOCK(static_cast<uint32_t>(d - code) + 3);          \
  }

    NEXT_BLOCK(pc);

    ALU_PAIR(nop, kCostAlu, (void)0);
    ALU_PAIR(movimm, kCostAlu, r[d->a] = d->imm);
    ALU_PAIR(mov, kCostAlu, r[d->a] = r[d->b]);
    ALU_PAIR(add, kCostAlu, EXPR_add(d));
    ALU_PAIR(sub, kCostAlu, EXPR_sub(d));
    ALU_PAIR(mul, kCostAlu * 3, r[d->a] = r[d->b] * r[d->c]);
    ALU_PAIR(and_, kCostAlu, EXPR_and_(d));
    ALU_PAIR(or_, kCostAlu, EXPR_or_(d));
    ALU_PAIR(xor_, kCostAlu, EXPR_xor_(d));
    ALU_PAIR(shl, kCostAlu, EXPR_shl(d));
    ALU_PAIR(shr, kCostAlu, EXPR_shr(d));
    ALU_PAIR(addimm, kCostAlu, EXPR_addimm(d));
    ALU_PAIR(compute, d->imm, (void)0);

    FLUKE_FUSE_FOREACH_PAIR(FUSE_AA_HANDLER, FUSE_AB_HANDLER)
    FLUKE_FUSE_BR_OPS(FUSE_LOAD_TRIPLE_HANDLER, 0)
    FLUKE_FUSE_BR_OPS(FUSE_STORE_TRIPLE_HANDLER, 0)

  bf_loadw_addimm: {
    uint32_t v = 0;
    const uint32_t addr = r[d->b] + d->imm;
    const uint32_t off = addr & kPageMask;
    if (FLUKE_LIKELY(off + 4 <= kPageSize)) {
      const uint8_t* base = tlb.ReadBase(addr >> kPageShift);
      if (FLUKE_LIKELY(base != nullptr)) {
        std::memcpy(&v, base + off, 4);
        r[d->a] = v;
        EXPR_addimm(d + 1);
        BULK_NEXT2();
      }
    }
    if (!bus->ReadWord(addr, &v, &result.fault_addr)) {
      acct -= d->block_acct;
      result.event = UserEvent::kFault;
      result.fault_is_write = false;
      goto exit_at_d;
    }
    r[d->a] = v;
    EXPR_addimm(d + 1);
    BULK_NEXT2();
  }
  bf_storew_addimm: {
    const uint32_t addr = r[d->b] + d->imm;
    const uint32_t off = addr & kPageMask;
    if (FLUKE_LIKELY(off + 4 <= kPageSize)) {
      uint8_t* base = tlb.WriteBase(addr >> kPageShift);
      if (FLUKE_LIKELY(base != nullptr)) {
        std::memcpy(base + off, &r[d->a], 4);
        EXPR_addimm(d + 1);
        BULK_NEXT2();
      }
    }
    if (!bus->WriteWord(addr, r[d->a], &result.fault_addr)) {
      acct -= d->block_acct;
      result.event = UserEvent::kFault;
      result.fault_is_write = true;
      goto exit_at_d;
    }
    EXPR_addimm(d + 1);
    BULK_NEXT2();
  }

  b_loadb: {
    const uint32_t addr = r[d->b] + d->imm;
    uint8_t* base = tlb.ReadBase(addr >> kPageShift);
    if (FLUKE_LIKELY(base != nullptr)) {
      r[d->a] = base[addr & kPageMask];
      BULK_NEXT();
    }
    uint8_t v = 0;
    if (!bus->ReadByte(addr, &v, &result.fault_addr)) {
      // Un-charge the faulting instruction plus the unexecuted block tail;
      // what remains is exactly the switch loop's cycle count at the fault.
      acct -= d->block_acct;
      result.event = UserEvent::kFault;
      result.fault_is_write = false;
      goto exit_at_d;
    }
    r[d->a] = v;
    BULK_NEXT();
  }
  s_loadb: {
    STEP_GUARD();
    const uint32_t addr = r[d->b] + d->imm;
    uint8_t* base = tlb.ReadBase(addr >> kPageShift);
    if (base != nullptr) {
      r[d->a] = base[addr & kPageMask];
      acct += kAcctInstr + kCostMem;
      STEP_NEXT();
    }
    uint8_t v = 0;
    if (!bus->ReadByte(addr, &v, &result.fault_addr)) {
      result.event = UserEvent::kFault;
      result.fault_is_write = false;
      goto exit_at_d;
    }
    r[d->a] = v;
    acct += kAcctInstr + kCostMem;
    STEP_NEXT();
  }
  b_storeb: {
    const uint32_t addr = r[d->b] + d->imm;
    uint8_t* base = tlb.WriteBase(addr >> kPageShift);
    if (FLUKE_LIKELY(base != nullptr)) {
      base[addr & kPageMask] = static_cast<uint8_t>(r[d->a]);
      BULK_NEXT();
    }
    if (!bus->WriteByte(addr, static_cast<uint8_t>(r[d->a]), &result.fault_addr)) {
      acct -= d->block_acct;
      result.event = UserEvent::kFault;
      result.fault_is_write = true;
      goto exit_at_d;
    }
    BULK_NEXT();
  }
  s_storeb: {
    STEP_GUARD();
    const uint32_t addr = r[d->b] + d->imm;
    uint8_t* base = tlb.WriteBase(addr >> kPageShift);
    if (base != nullptr) {
      base[addr & kPageMask] = static_cast<uint8_t>(r[d->a]);
      acct += kAcctInstr + kCostMem;
      STEP_NEXT();
    }
    if (!bus->WriteByte(addr, static_cast<uint8_t>(r[d->a]), &result.fault_addr)) {
      result.event = UserEvent::kFault;
      result.fault_is_write = true;
      goto exit_at_d;
    }
    acct += kAcctInstr + kCostMem;
    STEP_NEXT();
  }
  b_loadw: {
    uint32_t v = 0;
    const uint32_t addr = r[d->b] + d->imm;
    const uint32_t off = addr & kPageMask;
    if (FLUKE_LIKELY(off + 4 <= kPageSize)) {  // page-straddling words take the bus
      const uint8_t* base = tlb.ReadBase(addr >> kPageShift);
      if (FLUKE_LIKELY(base != nullptr)) {
        std::memcpy(&v, base + off, 4);
        r[d->a] = v;
        BULK_NEXT();
      }
    }
    if (!bus->ReadWord(addr, &v, &result.fault_addr)) {
      acct -= d->block_acct;
      result.event = UserEvent::kFault;
      result.fault_is_write = false;
      goto exit_at_d;
    }
    r[d->a] = v;
    BULK_NEXT();
  }
  s_loadw: {
    STEP_GUARD();
    uint32_t v = 0;
    const uint32_t addr = r[d->b] + d->imm;
    const uint32_t off = addr & kPageMask;
    if (off + 4 <= kPageSize) {
      const uint8_t* base = tlb.ReadBase(addr >> kPageShift);
      if (base != nullptr) {
        std::memcpy(&v, base + off, 4);
        r[d->a] = v;
        acct += kAcctInstr + kCostMem;
        STEP_NEXT();
      }
    }
    if (!bus->ReadWord(addr, &v, &result.fault_addr)) {
      result.event = UserEvent::kFault;
      result.fault_is_write = false;
      goto exit_at_d;
    }
    r[d->a] = v;
    acct += kAcctInstr + kCostMem;
    STEP_NEXT();
  }
  b_storew: {
    const uint32_t addr = r[d->b] + d->imm;
    const uint32_t off = addr & kPageMask;
    if (FLUKE_LIKELY(off + 4 <= kPageSize)) {
      uint8_t* base = tlb.WriteBase(addr >> kPageShift);
      if (FLUKE_LIKELY(base != nullptr)) {
        std::memcpy(base + off, &r[d->a], 4);
        BULK_NEXT();
      }
    }
    if (!bus->WriteWord(addr, r[d->a], &result.fault_addr)) {
      acct -= d->block_acct;
      result.event = UserEvent::kFault;
      result.fault_is_write = true;
      goto exit_at_d;
    }
    BULK_NEXT();
  }
  s_storew: {
    STEP_GUARD();
    const uint32_t addr = r[d->b] + d->imm;
    const uint32_t off = addr & kPageMask;
    if (off + 4 <= kPageSize) {
      uint8_t* base = tlb.WriteBase(addr >> kPageShift);
      if (base != nullptr) {
        std::memcpy(base + off, &r[d->a], 4);
        acct += kAcctInstr + kCostMem;
        STEP_NEXT();
      }
    }
    if (!bus->WriteWord(addr, r[d->a], &result.fault_addr)) {
      result.event = UserEvent::kFault;
      result.fault_is_write = true;
      goto exit_at_d;
    }
    acct += kAcctInstr + kCostMem;
    STEP_NEXT();
  }

  b_jmp:
    NEXT_BLOCK_TGT(d->imm);  // kCostBranch pre-charged with the block
  s_jmp:
    STEP_GUARD();
    acct += kAcctInstr + kCostBranch;
    NEXT_BLOCK(d->imm);

    BRANCH_PAIR(beq, COND_beq(d));
    BRANCH_PAIR(bne, COND_bne(d));
    BRANCH_PAIR(blt, COND_blt(d));
    BRANCH_PAIR(bge, COND_bge(d));

  b_jmpout:
    // Pre-charge guarantees cycles < budget here, so the switch loop's next
    // iteration would report kBadPc with the bad target committed in pc.
    pc = d->imm;
    result.event = UserEvent::kBadPc;
    goto commit;
  s_jmpout:
    STEP_GUARD();
    acct += kAcctInstr + kCostBranch;
    pc = d->imm;
    result.event = (acct & kAcctCycleMask) < budget_cycles ? UserEvent::kBadPc
                                                           : UserEvent::kBudget;
    goto commit;

    BRANCH_OUT_PAIR(beqout, COND_beq(d));
    BRANCH_OUT_PAIR(bneout, COND_bne(d));
    BRANCH_OUT_PAIR(bltout, COND_blt(d));
    BRANCH_OUT_PAIR(bgeout, COND_bge(d));

  b_halt:  // kCostAlu pre-charged
    result.event = UserEvent::kHalt;
    goto exit_at_d;
  s_halt:
    STEP_GUARD();
    acct += kAcctInstr + kCostAlu;
    result.event = UserEvent::kHalt;
    goto exit_at_d;

  b_syscall:  // traps charge nothing; PC stays on the instruction
    result.event = UserEvent::kSyscall;
    goto exit_at_d;
  s_syscall:
    STEP_GUARD();
    result.event = UserEvent::kSyscall;
    goto exit_at_d;

  b_brk:
    result.event = UserEvent::kBreak;
    goto exit_at_d;
  s_brk:
    STEP_GUARD();
    result.event = UserEvent::kBreak;
    goto exit_at_d;

  b_end:  // fell (or branched) onto the sentinel: pc == code_size
    result.event = UserEvent::kBadPc;
    goto exit_at_d;
  s_end:
    STEP_GUARD();
    result.event = UserEvent::kBadPc;
    goto exit_at_d;

#undef NEXT_BLOCK
#undef NEXT_BLOCK_TGT
#undef BULK_NEXT
#undef BULK_NEXT2
#undef STEP_NEXT
#undef STEP_GUARD
#undef FALLTHROUGH_IDX
#undef ALU_PAIR
#undef BRANCH_PAIR
#undef BRANCH_OUT_PAIR
#undef FUSE_AA_HANDLER
#undef FUSE_AB_HANDLER
#undef FUSE_LOAD_TRIPLE_HANDLER
#undef FUSE_STORE_TRIPLE_HANDLER
#undef EXPR_add
#undef EXPR_sub
#undef EXPR_and_
#undef EXPR_or_
#undef EXPR_xor_
#undef EXPR_shl
#undef EXPR_shr
#undef EXPR_addimm
#undef COND_beq
#undef COND_bne
#undef COND_blt
#undef COND_bge

  exit_at_d:
    pc = static_cast<uint32_t>(d - code);
  }

commit:
  regs->pc = pc;
  result.cycles = acct & kAcctCycleMask;
  if (block_charge_counter != nullptr) {
    *block_charge_counter += block_charges;
  }
  if (instr_counter != nullptr) {
    *instr_counter += acct >> 32;
  }
  return result;
}

#endif  // FLUKE_HAVE_THREADED_DISPATCH

}  // namespace

bool ThreadedDispatchCompiledIn() { return FLUKE_HAVE_THREADED_DISPATCH != 0; }

namespace {

// One warning per process, not per burst: the fallback is a performance
// note, and the degraded engine is bit-identical anyway. Silent when the JIT
// was only the default (opts.warn_jit_fallback clear).
void WarnJitFallbackOnce(const InterpOptions& opts, const char* why) {
  static bool warned = false;
  if (opts.warn_jit_fallback && !warned) {
    warned = true;
    std::fprintf(stderr,
                 "fluke: jit engine unavailable (%s); falling back to the "
                 "threaded interpreter\n",
                 why);
  }
}

}  // namespace

RunResult RunUser(const Program& program, UserRegisters* regs, MemoryBus* bus,
                  uint64_t budget_cycles, const InterpOptions& opts,
                  MiniTlb* tlb) {
  if (tlb == nullptr) {
    MiniTlb cold(bus);
    return RunUser(program, regs, bus, budget_cycles, opts, &cold);
  }
  InterpEngine engine = opts.engine;
  if (engine == InterpEngine::kJit) {
    if (!JitCompiledIn()) {
      WarnJitFallbackOnce(opts, "not compiled in on this target");
      engine = InterpEngine::kThreaded;
    } else if (!JitAvailable()) {
      WarnJitFallbackOnce(opts, "host refused executable pages");
      engine = InterpEngine::kThreaded;
    } else {
      JitProgram& jp = program.JitState();
      if (!jp.ready() && !jp.failed() && jp.NoteEntry(regs->pc)) {
        jp.Compile(program, opts);
      }
      if (jp.ready()) {
        return jit_internal::RunUserJit(program, jp, regs, bus, budget_cycles,
                                        opts, *tlb);
      }
      if (jp.failed()) {
        WarnJitFallbackOnce(opts, "host refused executable pages");
      }
      // Cold (or failed) program: the threaded engine is bit-identical, so
      // warm-up bursts cost nothing but the hotness count.
      engine = InterpEngine::kThreaded;
    }
  }
#if FLUKE_HAVE_THREADED_DISPATCH
  if (engine == InterpEngine::kThreaded) {
    bool fresh = false;
    DecodedProgram& decoded = program.Decoded(&fresh);
    if (fresh && opts.predecodes != nullptr) {
      ++*opts.predecodes;
    }
    return RunUserThreaded(decoded, regs, bus, budget_cycles, *tlb,
                           opts.block_charges, opts.instructions);
  }
#endif
  return interp_internal::RunUserSwitchCore(program, regs, bus, budget_cycles,
                                            *tlb, /*acct_in=*/0,
                                            opts.instructions);
}

}  // namespace fluke
