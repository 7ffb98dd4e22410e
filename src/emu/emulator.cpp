#include "emu/emulator.hh"

#include "common/logging.hh"

namespace mg {

namespace emu {

void
badOp(const char *what, Op op)
{
    panic("%s: %s", what, opName(op));
}

} // namespace emu

namespace {

int
memBytes(Op op)
{
    switch (op) {
      case Op::LDBU: case Op::STB: return 1;
      case Op::LDWU: case Op::STW: return 2;
      case Op::LDL: case Op::STL: return 4;
      case Op::LDQ: case Op::STQ: case Op::LDT: case Op::STT: return 8;
      default: panic("not a memory op: %s", opName(op));
    }
}

bool
regInRange(RegId r, int numRegs)
{
    return r == regNone || isZeroReg(r) || (r >= 0 && r < numRegs);
}

/**
 * The first register @p in accesses that the emulator cannot hold, in
 * access order, or regNone. @p handleOut: a handle writes its output
 * register (its template has an output).
 */
RegId
firstBadReg(const Instruction &in, bool handleOut, int numRegs)
{
    RegId order[3] = {regNone, regNone, regNone};
    switch (in.cls()) {
      case InsnClass::IntAlu:
      case InsnClass::IntMult:
      case InsnClass::FpAlu:
      case InsnClass::FpDiv:
        order[0] = in.ra;
        order[1] = in.useImm ? regNone : in.rb;
        order[2] = in.rc;
        break;
      case InsnClass::Load:
      case InsnClass::Store:
      case InsnClass::IndirectJump:
        order[0] = in.rb;
        order[1] = in.ra;
        break;
      case InsnClass::CondBranch:
      case InsnClass::UncondBranch:
        order[0] = in.ra;
        break;
      case InsnClass::Handle:
        order[0] = in.ra;
        order[1] = in.rb;
        order[2] = handleOut ? in.rc : regNone;
        break;
      case InsnClass::Nop:
      case InsnClass::Halt:
        break;
    }
    for (RegId r : order) {
        if (!regInRange(r, numRegs))
            return r;
    }
    return regNone;
}

/** Fused opcode of every operate, branch and memory op. */
template <typename Xop>
Xop
fusedOp(Op op)
{
    switch (op) {
#define MG_EMU_MAP(o) case Op::o: return Xop::o;
      MG_EMU_ALU_OPS(MG_EMU_MAP)
      MG_EMU_BRANCH_OPS(MG_EMU_MAP)
#undef MG_EMU_MAP
      case Op::CMOVEQ: return Xop::CMOVEQ;
      case Op::CMOVNE: return Xop::CMOVNE;
      case Op::LDBU: return Xop::LD1;
      case Op::LDWU: return Xop::LD2;
      case Op::LDL: return Xop::LD4S;
      case Op::LDQ: case Op::LDT: return Xop::LD8;
      case Op::STB: return Xop::ST1;
      case Op::STW: return Xop::ST2;
      case Op::STL: return Xop::ST4;
      case Op::STQ: case Op::STT: return Xop::ST8;
      case Op::BR: case Op::BSR: return Xop::BR;
      case Op::JMP: case Op::JSR: case Op::RET: return Xop::JMP;
      case Op::MG: return Xop::HANDLE;
      case Op::NOP: return Xop::NOP;
      case Op::HALT: return Xop::HALT;
      case Op::NUM_OPS: break;
    }
    panic("bad opcode %d", static_cast<int>(op));
}

} // namespace

Emulator::Emulator(const Program &p, const MgTable *t) : prog(p), mgt(t)
{
    decodeTemplates();
    decode();
    reset();
}

void
Emulator::decodeTemplates()
{
    if (!mgt)
        return;
    handles.resize(mgt->size());
    for (std::size_t id = 0; id < mgt->size(); ++id) {
        const MgTemplate &t = mgt->at(static_cast<MgId>(id));
        if (t.insns.size() > static_cast<std::size_t>(mgMaxSize))
            panic("template %zu larger than mgMaxSize", id);
        HandleCode &h = handles[id];
        h.first = static_cast<std::uint32_t>(handleOps.size());
        h.count = static_cast<std::uint32_t>(t.insns.size());
        if (t.outIdx >= 0 && t.outIdx < t.size())
            h.out = static_cast<std::uint8_t>(valInterior + t.outIdx);
        // The immediate kind reads the op's immediate in an operate and
        // zero elsewhere, as the template's B0/B1 directives define.
        auto slot = [&](const OpndRef &r, bool immIsValue) -> std::uint8_t {
            switch (r.kind) {
              case OpndKind::E0: return valE0;
              case OpndKind::E1: return valE1;
              case OpndKind::Imm: return immIsValue ? valImm : valZero;
              case OpndKind::None: return valZero;
              case OpndKind::M:
                if (r.m < 0 || r.m >= mgMaxSize)
                    panic("template %zu operand M%d out of range", id, r.m);
                return static_cast<std::uint8_t>(valInterior + r.m);
            }
            return valZero;
        };
        for (const TemplateInsn &ti : t.insns) {
            HandleOp op{};
            op.imm = ti.imm;
            op.op = ti.op;
            if (isLoadOp(ti.op)) {
                op.kind = HKind::Load;
                op.a = slot(ti.a, false);
                op.bytes = static_cast<std::uint8_t>(memBytes(ti.op));
                op.sext = ti.op == Op::LDL;
            } else if (isStoreOp(ti.op)) {
                op.kind = HKind::Store;
                op.a = slot(ti.a, false);
                op.b = slot(ti.b, false);
                op.bytes = static_cast<std::uint8_t>(memBytes(ti.op));
            } else if (isCondBranchOp(ti.op)) {
                op.kind = HKind::CondBranch;
                op.a = slot(ti.a, false);
            } else {
                op.kind = HKind::Alu;
                op.a = slot(ti.a, true);
                op.b = ti.useImm ? valImm : slot(ti.b, true);
            }
            handleOps.push_back(op);
        }
    }
}

void
Emulator::decode()
{
    // Block leaders mirror Cfg's rule so profiles line up with CFG
    // blocks.
    const auto n = static_cast<InsnIdx>(prog.text.size());
    slots.assign(n, Slot{});
    if (n == 0)
        return;
    // Registers the emulator cannot hold map to the constant slots
    // too: their slot decodes as faulting (below) and never runs.
    auto held = [](RegId r) {
        return r >= 0 && r < numEmuRegs && !isZeroReg(r);
    };
    auto readSlot = [&](RegId r) -> std::uint8_t {
        return held(r) ? static_cast<std::uint8_t>(r) : zeroSlot;
    };
    auto writeSlot = [&](RegId r) -> std::uint8_t {
        return held(r) ? static_cast<std::uint8_t>(r) : sinkSlot;
    };
    for (InsnIdx i = 0; i < n; ++i) {
        const Instruction &in = prog.text[i];
        Slot &s = slots[i];
        s.imm = in.imm;
        s.cls = in.cls();
        s.op = fusedOp<Xop>(in.op);
        s.s0 = s.s1 = zeroSlot;
        s.d = sinkSlot;
        if (in.isNop())
            s.flags |= slotPad;
        if (in.useImm)
            s.flags |= slotUseImm;
        bool handleOut = false;
        switch (s.cls) {
          case InsnClass::IntAlu:
          case InsnClass::IntMult:
          case InsnClass::FpAlu:
          case InsnClass::FpDiv:
            if (in.isNop())
                s.op = Xop::PAD;
            s.s0 = readSlot(in.ra);
            s.s1 = in.useImm ? zeroSlot : readSlot(in.rb);
            s.d = writeSlot(in.rc);
            break;
          case InsnClass::Load:
            s.s0 = readSlot(in.rb);
            s.d = writeSlot(in.ra);
            break;
          case InsnClass::Store:
            s.s0 = readSlot(in.rb);
            s.s1 = readSlot(in.ra);
            break;
          case InsnClass::CondBranch:
            s.s0 = readSlot(in.ra);
            break;
          case InsnClass::UncondBranch:
            s.d = writeSlot(in.ra);
            break;
          case InsnClass::IndirectJump:
            s.s0 = readSlot(in.rb);
            s.d = writeSlot(in.ra);
            break;
          case InsnClass::Handle: {
              auto id = static_cast<MgId>(in.imm);
              if (!mgt || !mgt->contains(id)) {
                  s.op = Xop::FAULT;
                  break;
              }
              handleOut = handles[static_cast<std::size_t>(id)].out != valZero;
              s.s0 = readSlot(in.ra);
              s.s1 = readSlot(in.rb);
              s.d = handleOut ? writeSlot(in.rc) : sinkSlot;
              break;
          }
          case InsnClass::Nop:
          case InsnClass::Halt:
            break;
        }
        if (firstBadReg(in, handleOut, numEmuRegs) != regNone)
            s.op = Xop::FAULT;
    }
    slots[0].flags |= slotBlockStart;
    if (prog.validPc(prog.entry))
        slots[prog.indexOf(prog.entry)].flags |= slotBlockStart;
    for (InsnIdx i = 0; i < n; ++i) {
        const Instruction &in = prog.text[i];
        if (in.isControl()) {
            if (slots[i].cls == InsnClass::CondBranch ||
                slots[i].cls == InsnClass::UncondBranch) {
                Addr tgt = static_cast<Addr>(in.imm);
                if (prog.validPc(tgt))
                    slots[prog.indexOf(tgt)].flags |= slotBlockStart;
            }
            if (i + 1 < n)
                slots[i + 1].flags |= slotBlockStart;
        } else if ((in.op == Op::HALT || in.isHandle()) && i + 1 < n) {
            slots[i + 1].flags |= slotBlockStart;
        }
    }
}

void
Emulator::reset()
{
    regs.fill(0);
    regs[regSp] = stackTop;
    mem.clear();
    if (!prog.data.empty())
        mem.writeBlock(dataBase, prog.data.data(), prog.data.size());
    pc_ = prog.entry;
    halted_ = false;
    count_ = 0;
    work_ = 0;
    prof = BlockProfile();
}

void
Emulator::badReg(RegId r) const
{
    panic("register id %d out of range", r);
}

void
Emulator::leftText() const
{
    fatal("PC 0x%llx left the text section",
          static_cast<unsigned long long>(pc_));
}

void
Emulator::fault(InsnIdx idx) const
{
    // The checks a slot decoded as faulting failed, re-run in the
    // order execution would meet them.
    const Instruction &in = prog.text[idx];
    bool handleOut = false;
    if (in.isHandle()) {
        if (!mgt)
            fatal("program contains handles but no MGT was supplied");
        mgt->at(static_cast<MgId>(in.imm));   // panics on an unknown id
        handleOut =
            handles[static_cast<std::size_t>(in.imm)].out != valZero;
    }
    RegId r = firstBadReg(in, handleOut, numEmuRegs);
    if (r != regNone)
        badReg(r);
    panic("slot %u decoded as faulting", static_cast<unsigned>(idx));
}

void
Emulator::execHandle(const Slot &s, ExecRecord *rec)
{
    const HandleCode &h = handles[static_cast<std::size_t>(s.imm)];
    // Atomic read of the interface inputs; interior values live in
    // the handle-local value array, never in registers.
    std::uint64_t v[handleValues] = {};
    v[valE0] = regs[s.s0];
    v[valE1] = regs[s.s1];
    Addr next = pc_ + insnBytes;
    const HandleOp *op = handleOps.data() + h.first;
    for (std::uint32_t i = 0; i < h.count; ++i, ++op) {
        v[valImm] = static_cast<std::uint64_t>(op->imm);
        switch (op->kind) {
          case HKind::Alu:
            v[valInterior + i] = emu::aluValue(op->op, v[op->a], v[op->b]);
            break;
          case HKind::Load: {
              Addr a = v[op->a] + static_cast<Addr>(op->imm);
              std::uint64_t x = mem.read(a, op->bytes);
              if (op->sext)
                  x = emu::sextl(x);
              v[valInterior + i] = x;
              if (rec) {
                  rec->isMem = true;
                  rec->memIsStore = false;
                  rec->memAddr = a;
                  rec->memBytes = op->bytes;
                  rec->memData = x;
              }
              break;
          }
          case HKind::Store: {
              Addr a = v[op->a] + static_cast<Addr>(op->imm);
              std::uint64_t x = v[op->b];
              mem.write(a, x, op->bytes);
              if (rec) {
                  rec->isMem = true;
                  rec->memIsStore = true;
                  rec->memAddr = a;
                  rec->memBytes = op->bytes;
                  rec->memData = x;
              }
              break;
          }
          case HKind::CondBranch:
            if (emu::branchTaken(op->op, v[op->a])) {
                next = pc_ + static_cast<Addr>(op->imm);
                if (rec)
                    rec->taken = true;
            }
            break;
        }
    }
    regs[s.d] = v[h.out];
    work_ += h.count;
    pc_ = next;
    if (rec)
        rec->nextPc = next;
}

EmuResult
Emulator::run(std::uint64_t maxInsns)
{
    EmuResult r;
    while (!halted_ && count_ < maxInsns) {
        if (!exec<false>(nullptr))
            break;
    }
    r.stop = halted_ ? StopReason::Halted : StopReason::InsnLimit;
    r.dynInsns = count_;
    r.dynWork = work_;
    r.profile = prof;
    return r;
}

} // namespace mg
