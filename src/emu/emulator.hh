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
#include "common/serial.hh"
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

/**
 * Snapshot of the complete functional state: architectural registers,
 * PC, the memory image, the dynamic counters, and the block profile
 * accumulated so far. Because functional execution is independent of
 * any timing model, a checkpoint captured at dynamic position N is
 * valid for *every* machine configuration that runs the same program
 * and inputs — which is what lets the experiment engine share
 * checkpoints across sweep columns (see docs/ARCHITECTURE.md).
 */
struct EmuCheckpoint
{
    std::vector<std::uint64_t> regs;
    Addr pc = 0;
    bool halted = false;
    std::uint64_t slots = 0;    ///< dynamic slots executed
    std::uint64_t work = 0;     ///< constituent work executed
    BlockProfile profile;
    Memory mem;
};

/** Append @p c to @p w (the warm-checkpoint store's wire format). */
void serializeCheckpoint(const EmuCheckpoint &c, SerialWriter &w);

/**
 * Parse a checkpoint written by serializeCheckpoint (or by
 * Emulator::serializeState, which shares the format). On malformed
 * input returns false with @p c unspecified; callers check before
 * restoring it into an emulator.
 */
bool deserializeCheckpoint(SerialReader &r, EmuCheckpoint &c);

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

    /** Capture the complete functional state. */
    EmuCheckpoint checkpoint() const;

    /** Restore state captured by checkpoint() (same program), adopting
     *  the checkpoint's memory image without a deep copy. */
    void restore(EmuCheckpoint &&c);

    /** Append the live functional state to @p w — byte-identical to
     *  serializing checkpoint(), minus the deep copies. */
    void serializeState(SerialWriter &w) const;

    /** True when @p c can be restored into this emulator (restore()
     *  treats an incompatible checkpoint as fatal; deserialized ones
     *  are validated through this first). */
    bool
    checkpointCompatible(const EmuCheckpoint &c) const
    {
        return c.regs.size() == regs.size();
    }

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
