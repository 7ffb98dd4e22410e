#include "emu/emulator.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "mg/minigraph.hh"

namespace mg {

namespace {

/** Sign-extend the low 32 bits (Alpha longword semantics). */
std::uint64_t
sextl(std::uint64_t v)
{
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(v)));
}

double
asDouble(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

std::uint64_t
asBits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

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
branchTaken(Op op, std::uint64_t v)
{
    auto sv = static_cast<std::int64_t>(v);
    switch (op) {
      case Op::BEQ: return v == 0;
      case Op::BNE: return v != 0;
      case Op::BLT: return sv < 0;
      case Op::BLE: return sv <= 0;
      case Op::BGT: return sv > 0;
      case Op::BGE: return sv >= 0;
      case Op::BLBC: return (v & 1) == 0;
      case Op::BLBS: return (v & 1) == 1;
      case Op::FBEQ: return asDouble(v) == 0.0;
      case Op::FBNE: return asDouble(v) != 0.0;
      default: panic("not a conditional branch: %s", opName(op));
    }
}

} // namespace

Emulator::Emulator(const Program &p, const MgTable *t) : prog(p), mgt(t)
{
    predecode();
    reset();
}

void
Emulator::predecode()
{
    // One pass over the text: classify every slot once instead of
    // re-deriving class and access width on each dynamic execution.
    // Block leaders mirror Cfg's rule so profiles line up with CFG
    // blocks.
    const auto n = static_cast<InsnIdx>(prog.text.size());
    dec.assign(n, Predecoded{InsnClass::Nop, 0, false, false});
    if (n == 0)
        return;
    for (InsnIdx i = 0; i < n; ++i) {
        const Instruction &in = prog.text[i];
        dec[i].cls = in.cls();
        dec[i].padNop = in.isNop();
        if (in.isMem())
            dec[i].memBytes = static_cast<std::uint8_t>(memBytes(in.op));
    }
    dec[0].blockStart = true;
    if (prog.validPc(prog.entry))
        dec[prog.indexOf(prog.entry)].blockStart = true;
    for (InsnIdx i = 0; i < n; ++i) {
        const Instruction &in = prog.text[i];
        if (in.isControl()) {
            if (dec[i].cls == InsnClass::CondBranch ||
                dec[i].cls == InsnClass::UncondBranch) {
                Addr tgt = static_cast<Addr>(in.imm);
                if (prog.validPc(tgt))
                    dec[prog.indexOf(tgt)].blockStart = true;
            }
            if (i + 1 < n)
                dec[i + 1].blockStart = true;
        } else if ((in.op == Op::HALT || in.isHandle()) && i + 1 < n) {
            dec[i + 1].blockStart = true;
        }
    }
    if (mgt) {
        tmplKinds.resize(mgt->size());
        for (std::size_t id = 0; id < mgt->size(); ++id) {
            const MgTemplate &t = mgt->at(static_cast<MgId>(id));
            auto &kinds = tmplKinds[id];
            kinds.reserve(t.insns.size());
            for (const TemplateInsn &ti : t.insns) {
                kinds.push_back(isLoadOp(ti.op) ? TmplKind::Load
                                : isStoreOp(ti.op) ? TmplKind::Store
                                : isCondBranchOp(ti.op)
                                    ? TmplKind::CondBranch
                                    : TmplKind::Alu);
            }
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

std::uint64_t
Emulator::aluOp(Op op, std::uint64_t a, std::uint64_t b) const
{
    auto sa = static_cast<std::int64_t>(a);
    auto sb = static_cast<std::int64_t>(b);
    switch (op) {
      case Op::ADDL: return sextl(a + b);
      case Op::ADDQ: return a + b;
      case Op::SUBL: return sextl(a - b);
      case Op::SUBQ: return a - b;
      case Op::MULL: return sextl(a * b);
      case Op::MULQ: return a * b;
      case Op::S4ADDL: return sextl(a * 4 + b);
      case Op::S8ADDL: return sextl(a * 8 + b);
      case Op::S4ADDQ: return a * 4 + b;
      case Op::S8ADDQ: return a * 8 + b;
      case Op::AND: return a & b;
      case Op::BIS: return a | b;
      case Op::XOR: return a ^ b;
      case Op::BIC: return a & ~b;
      case Op::ORNOT: return a | ~b;
      case Op::EQV: return a ^ ~b;
      case Op::SLL: return a << (b & 63);
      case Op::SRL: return a >> (b & 63);
      case Op::SRA: return static_cast<std::uint64_t>(sa >> (b & 63));
      case Op::CMPEQ: return a == b ? 1 : 0;
      case Op::CMPLT: return sa < sb ? 1 : 0;
      case Op::CMPLE: return sa <= sb ? 1 : 0;
      case Op::CMPULT: return a < b ? 1 : 0;
      case Op::CMPULE: return a <= b ? 1 : 0;
      case Op::LDA: return a + b;
      case Op::LDAH: return a + b * 65536;
      case Op::SEXTB: return static_cast<std::uint64_t>(
          static_cast<std::int64_t>(static_cast<std::int8_t>(a)));
      case Op::SEXTW: return static_cast<std::uint64_t>(
          static_cast<std::int64_t>(static_cast<std::int16_t>(a)));
      case Op::CTPOP: return static_cast<std::uint64_t>(std::popcount(a));
      case Op::CTLZ: return static_cast<std::uint64_t>(std::countl_zero(a));
      case Op::CTTZ: return static_cast<std::uint64_t>(std::countr_zero(a));
      case Op::ZAPNOT: {
          std::uint64_t r = 0;
          for (int i = 0; i < 8; ++i) {
              if (b & (1ull << i))
                  r |= a & (0xffull << (8 * i));
          }
          return r;
      }
      case Op::ADDT: return asBits(asDouble(a) + asDouble(b));
      case Op::SUBT: return asBits(asDouble(a) - asDouble(b));
      case Op::MULT: return asBits(asDouble(a) * asDouble(b));
      case Op::DIVT: return asBits(asDouble(a) / asDouble(b));
      case Op::CMPTEQ: return asDouble(a) == asDouble(b) ? asBits(2.0) : 0;
      case Op::CMPTLT: return asDouble(a) < asDouble(b) ? asBits(2.0) : 0;
      case Op::CMPTLE: return asDouble(a) <= asDouble(b) ? asBits(2.0) : 0;
      case Op::CVTQT: return asBits(static_cast<double>(sa));
      case Op::CVTTQ: return static_cast<std::uint64_t>(
          static_cast<std::int64_t>(asDouble(a)));
      case Op::CPYS: {
          std::uint64_t sign = a & 0x8000000000000000ull;
          return sign | (b & 0x7fffffffffffffffull);
      }
      default: panic("not an ALU op: %s", opName(op));
    }
}

void
Emulator::execHandle(const Instruction &in, ExecRecord *rec)
{
    if (!mgt)
        fatal("program contains handles but no MGT was supplied");
    const MgTemplate &t = mgt->at(static_cast<MgId>(in.imm));

    // Atomic read of the interface inputs. Interior values live on
    // the stack (a template holds at most mgMaxSize instructions).
    std::uint64_t e0 = reg(in.ra);
    std::uint64_t e1 = reg(in.rb);
    if (t.insns.size() > static_cast<std::size_t>(mgMaxSize))
        panic("template larger than mgMaxSize");
    std::uint64_t m[mgMaxSize] = {};
    Addr next = pc_ + insnBytes;
    std::uint64_t outVal = 0;
    bool haveOut = false;

    auto value = [&](const OpndRef &r, std::int64_t imm) -> std::uint64_t {
        switch (r.kind) {
          case OpndKind::E0: return e0;
          case OpndKind::E1: return e1;
          case OpndKind::M: return m[static_cast<size_t>(r.m)];
          case OpndKind::Imm: return static_cast<std::uint64_t>(imm);
          case OpndKind::None: return 0;
        }
        return 0;
    };

    const std::vector<TmplKind> &kinds =
        tmplKinds[static_cast<std::size_t>(in.imm)];
    for (size_t i = 0; i < t.insns.size(); ++i) {
        const TemplateInsn &ti = t.insns[i];
        if (kinds[i] == TmplKind::Load) {
            Addr a = value(ti.a, 0) + static_cast<Addr>(ti.imm);
            int bytes = memBytes(ti.op);
            std::uint64_t v = mem.read(a, bytes);
            if (ti.op == Op::LDL)
                v = sextl(v);
            m[i] = v;
            if (rec) {
                rec->isMem = true;
                rec->memIsStore = false;
                rec->memAddr = a;
                rec->memBytes = bytes;
                rec->memData = v;
            }
        } else if (kinds[i] == TmplKind::Store) {
            Addr a = value(ti.a, 0) + static_cast<Addr>(ti.imm);
            int bytes = memBytes(ti.op);
            std::uint64_t v = value(ti.b, 0);
            mem.write(a, v, bytes);
            if (rec) {
                rec->isMem = true;
                rec->memIsStore = true;
                rec->memAddr = a;
                rec->memBytes = bytes;
                rec->memData = v;
            }
        } else if (kinds[i] == TmplKind::CondBranch) {
            std::uint64_t v = value(ti.a, 0);
            if (branchTaken(ti.op, v)) {
                next = pc_ + static_cast<Addr>(ti.imm);
                if (rec)
                    rec->taken = true;
            }
        } else {
            std::uint64_t a = value(ti.a, ti.imm);
            std::uint64_t b = ti.useImm
                ? static_cast<std::uint64_t>(ti.imm)
                : value(ti.b, ti.imm);
            // Unary ops encode useImm with imm 0; LDA-style ops fold the
            // immediate through operand b as on the singleton path.
            m[i] = aluOp(ti.op, a, b);
        }
        if (static_cast<int>(i) == t.outIdx) {
            outVal = m[i];
            haveOut = true;
        }
    }

    if (haveOut)
        setReg(in.rc, outVal);
    work_ += static_cast<std::uint64_t>(t.size());
    pc_ = next;
    if (rec)
        rec->nextPc = next;
}

bool
Emulator::step(ExecRecord *rec)
{
    if (halted_) {
        if (rec)
            rec->insn = nullptr;   // contract: no instruction executed
        return false;
    }
    if (!prog.validPc(pc_))
        fatal("PC 0x%llx left the text section",
              static_cast<unsigned long long>(pc_));
    auto idx = static_cast<InsnIdx>((pc_ - textBase) / insnBytes);
    const Predecoded &pd = dec[idx];
    if (pd.blockStart)
        prof.record(idx);
    const Instruction &in = prog.text[idx];
    ++count_;

    if (rec) {
        // Field-wise init instead of a whole-struct clear: the memory
        // operand fields are only meaningful (and only read) when
        // isMem is set below.
        rec->pc = pc_;
        rec->insn = &in;
        rec->cls = pd.cls;
        rec->taken = false;
        rec->padNop = pd.padNop;
        rec->isMem = false;
        rec->memIsStore = false;
        rec->nextPc = pc_ + insnBytes;
    }

    switch (pd.cls) {
      case InsnClass::IntAlu:
      case InsnClass::IntMult:
      case InsnClass::FpAlu:
      case InsnClass::FpDiv: {
          if (in.op == Op::CMOVEQ || in.op == Op::CMOVNE) {
              std::uint64_t test = reg(in.ra);
              bool move = (in.op == Op::CMOVEQ) ? test == 0 : test != 0;
              if (move) {
                  std::uint64_t v = in.useImm
                      ? static_cast<std::uint64_t>(in.imm)
                      : reg(in.rb);
                  setReg(in.rc, v);
              }
              ++work_;
              break;
          }
          std::uint64_t a = reg(in.ra);
          std::uint64_t b = in.useImm
              ? static_cast<std::uint64_t>(in.imm)
              : reg(in.rb);
          setReg(in.rc, aluOp(in.op, a, b));
          ++work_;
          break;
      }
      case InsnClass::Load: {
          Addr a = reg(in.rb) + static_cast<Addr>(in.imm);
          int bytes = pd.memBytes;
          std::uint64_t v = mem.read(a, bytes);
          if (in.op == Op::LDL)
              v = sextl(v);
          setReg(in.ra, v);
          if (rec) {
              rec->isMem = true;
              rec->memAddr = a;
              rec->memBytes = bytes;
              rec->memData = v;
          }
          ++work_;
          break;
      }
      case InsnClass::Store: {
          Addr a = reg(in.rb) + static_cast<Addr>(in.imm);
          int bytes = pd.memBytes;
          std::uint64_t v = reg(in.ra);
          mem.write(a, v, bytes);
          if (rec) {
              rec->isMem = true;
              rec->memIsStore = true;
              rec->memAddr = a;
              rec->memBytes = bytes;
              rec->memData = v;
          }
          ++work_;
          break;
      }
      case InsnClass::CondBranch: {
          if (branchTaken(in.op, reg(in.ra))) {
              pc_ = static_cast<Addr>(in.imm);
              if (rec) {
                  rec->taken = true;
                  rec->nextPc = pc_;
              }
              ++work_;
              return true;
          }
          ++work_;
          break;
      }
      case InsnClass::UncondBranch: {
          setReg(in.ra, pc_ + insnBytes);
          pc_ = static_cast<Addr>(in.imm);
          if (rec) {
              rec->taken = true;
              rec->nextPc = pc_;
          }
          ++work_;
          return true;
      }
      case InsnClass::IndirectJump: {
          Addr target = reg(in.rb);
          setReg(in.ra, pc_ + insnBytes);
          pc_ = target;
          if (rec) {
              rec->taken = true;
              rec->nextPc = pc_;
          }
          ++work_;
          return true;
      }
      case InsnClass::Handle:
          execHandle(in, rec);
          return true;
      case InsnClass::Nop:
          break;   // pad nops carry no work
      case InsnClass::Halt:
          halted_ = true;
          ++work_;
          return false;
    }
    pc_ += insnBytes;
    return true;
}

EmuResult
Emulator::run(std::uint64_t maxInsns)
{
    EmuResult r;
    while (!halted_ && count_ < maxInsns) {
        if (!step())
            break;
    }
    r.stop = halted_ ? StopReason::Halted : StopReason::InsnLimit;
    r.dynInsns = count_;
    r.dynWork = work_;
    r.profile = prof;
    return r;
}

} // namespace mg
