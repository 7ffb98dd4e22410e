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
 */

#ifndef MG_EMU_EMULATOR_HH
#define MG_EMU_EMULATOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "cfg/profile.hh"
#include "common/types.hh"
#include "isa/instruction.hh"
#include "memsys/memory.hh"
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
     */
    bool step(ExecRecord *rec = nullptr);

    /** Run until halt or @p maxInsns dynamic slots. */
    EmuResult run(std::uint64_t maxInsns = ~0ull);

    Addr pc() const { return pc_; }
    bool halted() const { return halted_; }

    /** Architectural register value (fp regs hold raw bits).
     *  (Inline: three accesses per dynamic instruction.) */
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

    /**
     * Per-text-slot predecode, computed once at construction: the
     * dispatch class, memory width, and block-leader flag that step()
     * would otherwise re-derive from the opcode on every dynamic
     * execution of the slot.
     */
    struct Predecoded
    {
        InsnClass cls;
        std::uint8_t memBytes;     ///< loads/stores only
        bool blockStart;           ///< text idx starts a basic block
        bool padNop;               ///< Instruction::isNop()
    };

    const Program &prog;
    const MgTable *mgt;
    Memory mem;
    std::array<std::uint64_t, numEmuRegs> regs{};
    Addr pc_ = 0;
    bool halted_ = false;
    std::uint64_t count_ = 0;
    std::uint64_t work_ = 0;
    BlockProfile prof;
    std::vector<Predecoded> dec;    ///< flat predecoded text

    /** Per-template-instruction kind, precomputed per MGT entry. */
    enum class TmplKind : std::uint8_t { Alu, Load, Store, CondBranch };
    std::vector<std::vector<TmplKind>> tmplKinds;   ///< by MgId

    void predecode();
    [[noreturn]] void badReg(RegId r) const;
    std::uint64_t aluOp(Op op, std::uint64_t a, std::uint64_t b) const;
    void execHandle(const Instruction &in, ExecRecord *rec);
};

} // namespace mg

#endif // MG_EMU_EMULATOR_HH
