/**
 * @file
 * Functional MG-Alpha emulator.
 *
 * Executes a Program to completion (halt) or an instruction budget,
 * collecting a basic-block frequency profile on the way. Handles (mg
 * quasi-instructions) execute by expanding their MGT template: the two
 * interface inputs are read once, interior values stay in emulator
 * temporaries (never in architectural registers), and only the
 * interface output register is written — exactly the atomic semantics
 * the microarchitecture guarantees.
 *
 * The emulator doubles as the oracle for the timing simulator: its
 * committed dynamic stream is what the timing core must retire.
 *
 * Every text slot is decoded once, at construction, into a compact
 * record: a fused opcode (operation, access width and sign extension
 * folded together), register-file slots with r31/f31 reads mapped to
 * a constant-zero slot and writes to a sink, the immediate, and the
 * block-start and pad flags. A slot naming an out-of-range register
 * decodes to a faulting opcode, so the error is still reported only
 * when (and if) that slot executes. step() is then one switch, inline
 * in the functional loops that call it; handles run from per-template
 * op lists decoded the same way.
 */

#ifndef MG_EMU_EMULATOR_HH
#define MG_EMU_EMULATOR_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "cfg/profile.hh"
#include "common/types.hh"
#include "isa/instruction.hh"
#include "memsys/memory.hh"
#include "mg/minigraph.hh"
#include "mg/mgt.hh"

namespace mg {

/** Why a run stopped. */
enum class StopReason
{
    Halted,        ///< executed HALT
    InsnLimit,     ///< hit the instruction budget
};

/** Architectural effects of one dynamic instruction (or handle). */
struct ExecRecord
{
    Addr pc = 0;
    Addr nextPc = 0;
    const Instruction *insn = nullptr;
    InsnClass cls = InsnClass::Nop; ///< predecoded class (no table walk)
    bool taken = false;         ///< control op taken
    bool padNop = false;        ///< architectural no-op (predecoded)
    bool isMem = false;
    bool memIsStore = false;
    Addr memAddr = 0;
    int memBytes = 0;
    std::uint64_t memData = 0;  ///< value loaded or stored
};

/** Result of a complete run. */
struct EmuResult
{
    StopReason stop = StopReason::Halted;
    std::uint64_t dynInsns = 0;     ///< dynamic slots executed
    std::uint64_t dynWork = 0;      ///< constituent instructions
                                    ///< (handles expand, nops excluded)
    BlockProfile profile;
};

/** Operates that compute one value from two operands; each gets its
 *  own case in the emulator's dispatch. */
#define MG_EMU_ALU_OPS(X)                                              \
    X(ADDL) X(ADDQ) X(SUBL) X(SUBQ) X(MULL) X(MULQ)                    \
    X(S4ADDL) X(S8ADDL) X(S4ADDQ) X(S8ADDQ)                            \
    X(AND) X(BIS) X(XOR) X(BIC) X(ORNOT) X(EQV)                        \
    X(SLL) X(SRL) X(SRA)                                               \
    X(CMPEQ) X(CMPLT) X(CMPLE) X(CMPULT) X(CMPULE)                     \
    X(LDA) X(LDAH) X(SEXTB) X(SEXTW) X(CTPOP) X(CTLZ) X(CTTZ)          \
    X(ZAPNOT)                                                          \
    X(ADDT) X(SUBT) X(MULT) X(DIVT) X(CMPTEQ) X(CMPTLT) X(CMPTLE)      \
    X(CVTQT) X(CVTTQ) X(CPYS)

/** Conditional branches, likewise one case each. */
#define MG_EMU_BRANCH_OPS(X)                                           \
    X(BEQ) X(BNE) X(BLT) X(BLE) X(BGT) X(BGE) X(BLBC) X(BLBS)          \
    X(FBEQ) X(FBNE)

namespace emu {

/** Sign-extend the low 32 bits (Alpha longword semantics). */
inline std::uint64_t
sextl(std::uint64_t v)
{
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(v)));
}

inline double
asDouble(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

inline std::uint64_t
asBits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

[[noreturn]] void badOp(const char *what, Op op);

/** Result of operate @p op on @p a and @p b. (Inline: constant @p op
 *  folds it to the one operation.) */
[[gnu::always_inline]] inline std::uint64_t
aluValue(Op op, std::uint64_t a, std::uint64_t b)
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
      default: badOp("not an ALU op", op);
    }
}

/** Whether conditional branch @p op on tested value @p v is taken. */
[[gnu::always_inline]] inline bool
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
      default: badOp("not a conditional branch", op);
    }
}

} // namespace emu

/** The functional core. */
class Emulator
{
  public:
    /**
     * @param prog program to run
     * @param mgt  MGT for handle expansion (may be null when the
     *             program contains no handles)
     */
    explicit Emulator(const Program &prog, const MgTable *mgt = nullptr);

    /** Reset architectural state and load the data image. */
    void reset();

    /**
     * Execute one dynamic instruction at the current PC.
     * @param rec optional out-param describing the effects
     * @return false when the instruction was HALT
     * (Always inline: a caller passing a record it owns gets the
     * one recording copy of the dispatch in its own loop.)
     */
    [[gnu::always_inline]] bool
    step(ExecRecord *rec = nullptr)
    {
        return rec ? exec<true>(rec) : exec<false>(nullptr);
    }

    /** Run until halt or @p maxInsns dynamic slots. */
    EmuResult run(std::uint64_t maxInsns = ~0ull);

    Addr pc() const { return pc_; }
    bool halted() const { return halted_; }

    /** Architectural register value (fp regs hold raw bits). */
    std::uint64_t
    reg(RegId r) const
    {
        if (r == regNone || isZeroReg(r))
            return 0;
        if (r < 0 || r >= numEmuRegs)
            badReg(r);
        return regs[static_cast<size_t>(r)];
    }

    void
    setReg(RegId r, std::uint64_t v)
    {
        if (r == regNone || isZeroReg(r))
            return;
        if (r < 0 || r >= numEmuRegs)
            badReg(r);
        regs[static_cast<size_t>(r)] = v;
    }

    Memory &memory() { return mem; }
    const Memory &memory() const { return mem; }
    const Program &program() const { return prog; }

    /** Dynamic slots executed so far. */
    std::uint64_t dynInsns() const { return count_; }

    /** Constituent work (handle bodies counted, pad nops excluded). */
    std::uint64_t dynWork() const { return work_; }

    /** Per-block profile accumulated so far. */
    const BlockProfile &profile() const { return prof; }

  private:
    /** Architectural registers plus DISE's four dedicated registers
     *  (ids numArchRegs..numArchRegs+3), so DISE-expanded sequences
     *  execute directly. */
    static constexpr int numEmuRegs = numArchRegs + 4;
    /** Register-file slot every r31/f31 (and absent-operand) read
     *  names; nothing ever writes it. */
    static constexpr std::uint8_t zeroSlot = numEmuRegs;
    /** Register-file slot every r31/f31 write names; never read. */
    static constexpr std::uint8_t sinkSlot = numEmuRegs + 1;

    /** Fused opcode of a decoded slot. */
    enum class Xop : std::uint8_t
    {
#define MG_EMU_ENUM(o) o,
        MG_EMU_ALU_OPS(MG_EMU_ENUM)
        MG_EMU_BRANCH_OPS(MG_EMU_ENUM)
#undef MG_EMU_ENUM
        CMOVEQ, CMOVNE,
        LD1, LD2, LD4S, LD8,    ///< ldbu, ldwu, ldl (sign-extends),
                                ///< ldq/ldt
        ST1, ST2, ST4, ST8,     ///< stb, stw, stl, stq/stt
        BR,                     ///< br, bsr
        JMP,                    ///< jmp, jsr, ret
        HANDLE,
        NOP,                    ///< nop: no work
        PAD,                    ///< integer operate into r31: a no-op
                                ///< that still counts one work unit
        HALT,
        FAULT,                  ///< out-of-range register, or a
                                ///< handle with no template: the
                                ///< slot's error, raised on execution
    };

    /** Slot flags. */
    static constexpr std::uint8_t slotBlockStart = 1;
    static constexpr std::uint8_t slotPad = 2;
    static constexpr std::uint8_t slotUseImm = 4;

    /**
     * One decoded text slot. Register roles by opcode (s0, s1 read;
     * d written): operates s0=ra, s1=rb, d=rc; loads s0=base, d=ra;
     * stores s0=base, s1=data; conditional branches s0=ra; br d=link;
     * jumps s0=target, d=link; handles s0=E0, s1=E1, d=output (the
     * sink when the template has none).
     */
    struct Slot
    {
        std::int64_t imm;   ///< literal, displacement, target or MGID
        Xop op;
        std::uint8_t s0, s1, d;
        InsnClass cls;
        std::uint8_t flags;
    };

    /** Template-op kinds of a decoded handle body. */
    enum class HKind : std::uint8_t { Alu, Load, Store, CondBranch };

    /** Slots of the handle-local value array template operands name:
     *  the two interface inputs, a constant zero, the current op's
     *  immediate, then one interior value per template instruction. */
    static constexpr std::uint8_t valE0 = 0;
    static constexpr std::uint8_t valE1 = 1;
    static constexpr std::uint8_t valZero = 2;
    static constexpr std::uint8_t valImm = 3;
    static constexpr std::uint8_t valInterior = 4;
    static constexpr int handleValues = valInterior + mgMaxSize;

    /** One decoded template instruction; a and b are value slots. */
    struct HandleOp
    {
        std::int64_t imm;
        Op op;
        HKind kind;
        std::uint8_t a, b;
        std::uint8_t bytes;     ///< memory ops only
        bool sext;              ///< ldl
    };

    /** A decoded template: its op range and output value slot. */
    struct HandleCode
    {
        std::uint32_t first = 0;
        std::uint32_t count = 0;
        std::uint8_t out = valZero;     ///< valZero when it has none
    };

    const Program &prog;
    const MgTable *mgt;
    Memory mem;
    std::array<std::uint64_t, numEmuRegs + 2> regs{};
    Addr pc_ = 0;
    bool halted_ = false;
    std::uint64_t count_ = 0;
    std::uint64_t work_ = 0;
    BlockProfile prof;
    std::vector<Slot> slots;            ///< decoded text
    std::vector<HandleCode> handles;    ///< by MgId
    std::vector<HandleOp> handleOps;    ///< all template bodies

    void decode();
    void decodeTemplates();
    [[noreturn]] void badReg(RegId r) const;
    [[noreturn]] void leftText() const;
    [[noreturn]] void fault(InsnIdx idx) const;
    void execHandle(const Slot &s, ExecRecord *rec);

    template <bool Rec>
    [[gnu::always_inline]] inline bool exec(ExecRecord *rec);

    template <int Bytes, bool Sext>
    [[gnu::always_inline]] inline void load(const Slot &s,
                                            ExecRecord *rec);

    template <int Bytes>
    [[gnu::always_inline]] inline void store(const Slot &s,
                                             ExecRecord *rec);
};

template <int Bytes, bool Sext>
inline void
Emulator::load(const Slot &s, ExecRecord *rec)
{
    Addr a = regs[s.s0] + static_cast<Addr>(s.imm);
    std::uint64_t v = mem.read(a, Bytes);
    if constexpr (Sext)
        v = emu::sextl(v);
    regs[s.d] = v;
    if (rec) {
        rec->isMem = true;
        rec->memAddr = a;
        rec->memBytes = Bytes;
        rec->memData = v;
    }
}

template <int Bytes>
inline void
Emulator::store(const Slot &s, ExecRecord *rec)
{
    Addr a = regs[s.s0] + static_cast<Addr>(s.imm);
    std::uint64_t v = regs[s.s1];
    mem.write(a, v, Bytes);
    if (rec) {
        rec->isMem = true;
        rec->memIsStore = true;
        rec->memAddr = a;
        rec->memBytes = Bytes;
        rec->memData = v;
    }
}

template <bool Rec>
inline bool
Emulator::exec(ExecRecord *rec)
{
    if (halted_) {
        if constexpr (Rec)
            rec->insn = nullptr;   // contract: no instruction executed
        return false;
    }
    Addr off = pc_ - textBase;
    auto idx = static_cast<InsnIdx>(off / insnBytes);
    if (off % insnBytes || off / insnBytes >= slots.size())
        leftText();
    const Slot &s = slots[idx];
    if (s.flags & slotBlockStart)
        prof.record(idx);
    ++count_;
    ExecRecord *r = nullptr;
    if constexpr (Rec) {
        // Field-wise init instead of a whole-struct clear: the memory
        // operand fields are only meaningful (and only read) when
        // isMem is set below.
        r = rec;
        r->pc = pc_;
        r->insn = &prog.text[idx];
        r->cls = s.cls;
        r->taken = false;
        r->padNop = (s.flags & slotPad) != 0;
        r->isMem = false;
        r->memIsStore = false;
        r->nextPc = pc_ + insnBytes;
    }
    auto operandB = [&] {
        return (s.flags & slotUseImm) ? static_cast<std::uint64_t>(s.imm)
                                      : regs[s.s1];
    };
    auto jump = [&](Addr target) {
        pc_ = target;
        if constexpr (Rec) {
            r->taken = true;
            r->nextPc = target;
        }
        ++work_;
        return true;
    };

    switch (s.op) {
#define MG_EMU_ALU_CASE(o)                                             \
      case Xop::o:                                                     \
        regs[s.d] = emu::aluValue(Op::o, regs[s.s0], operandB());      \
        ++work_;                                                       \
        break;
      MG_EMU_ALU_OPS(MG_EMU_ALU_CASE)
#undef MG_EMU_ALU_CASE
      case Xop::CMOVEQ:
        if (regs[s.s0] == 0)
            regs[s.d] = operandB();
        ++work_;
        break;
      case Xop::CMOVNE:
        if (regs[s.s0] != 0)
            regs[s.d] = operandB();
        ++work_;
        break;
      case Xop::LD1: load<1, false>(s, r); ++work_; break;
      case Xop::LD2: load<2, false>(s, r); ++work_; break;
      case Xop::LD4S: load<4, true>(s, r); ++work_; break;
      case Xop::LD8: load<8, false>(s, r); ++work_; break;
      case Xop::ST1: store<1>(s, r); ++work_; break;
      case Xop::ST2: store<2>(s, r); ++work_; break;
      case Xop::ST4: store<4>(s, r); ++work_; break;
      case Xop::ST8: store<8>(s, r); ++work_; break;
#define MG_EMU_BRANCH_CASE(o)                                          \
      case Xop::o:                                                     \
        if (emu::branchTaken(Op::o, regs[s.s0]))                       \
            return jump(static_cast<Addr>(s.imm));                     \
        ++work_;                                                       \
        break;
      MG_EMU_BRANCH_OPS(MG_EMU_BRANCH_CASE)
#undef MG_EMU_BRANCH_CASE
      case Xop::BR:
        regs[s.d] = pc_ + insnBytes;
        return jump(static_cast<Addr>(s.imm));
      case Xop::JMP: {
          Addr target = regs[s.s0];
          regs[s.d] = pc_ + insnBytes;
          return jump(target);
      }
      case Xop::HANDLE:
        execHandle(s, r);
        return true;
      case Xop::NOP:
        break;   // pad nops carry no work
      case Xop::PAD:
        ++work_;
        break;
      case Xop::HALT:
        halted_ = true;
        ++work_;
        return false;
      case Xop::FAULT:
        fault(idx);
    }
    pc_ += insnBytes;
    return true;
}

} // namespace mg

#endif // MG_EMU_EMULATOR_HH
