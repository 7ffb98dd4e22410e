/**
 * @file
 * The mini-graph table (MGT): the on-chip structure that maps handle
 * MGIDs to mini-graph definitions (paper Section 4.1, Figure 2).
 *
 * Logically the MGT is split in two:
 *  - MGHT (header table), read at dispatch: functional unit of the
 *    first instruction (FU0), a reservation bitmap for the units the
 *    later instructions need (FUBMP), and the latency at which the
 *    interface output register is produced (LAT).
 *  - MGST (sequencing table), read during execution: one bank per
 *    execution cycle holding per-instruction control (FU, OP, IM, and
 *    the two operand-select directives B0/B1).
 *
 * Templates are machine-independent; headers and bank schedules are
 * derived for a concrete machine by finalize() (load latency, ALU
 * pipelines, pair-wise collapsing).
 */

#ifndef MG_MG_MGT_HH
#define MG_MG_MGT_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace mg {

/** Where a template-instruction operand comes from. */
enum class OpndKind : std::uint8_t
{
    None,   ///< no operand in this slot
    E0,     ///< first interface input register (handle ra)
    E1,     ///< second interface input register (handle rb)
    M,      ///< interior value produced by template instruction #m
    Imm,    ///< the instruction's immediate
};

/** One operand-select directive (a B0/B1 field of the MGST). */
struct OpndRef
{
    OpndKind kind = OpndKind::None;
    std::int8_t m = -1;   ///< producer index when kind == M

    bool operator==(const OpndRef &) const = default;

    /** MGST mnemonic: E0, E1, M2, IM, or -. */
    std::string str() const;
};

/** One instruction of a mini-graph template. */
struct TemplateInsn
{
    Op op = Op::NOP;
    OpndRef a;            ///< first source slot (base reg for memory ops)
    OpndRef b;            ///< second source slot (store data register)
    std::int64_t imm = 0; ///< literal / displacement (branch displacement
                          ///< is relative to the handle PC)
    bool useImm = false;

    bool operator==(const TemplateInsn &) const = default;
};

/** Functional-unit classes a template instruction can reserve. */
enum class FuKind : std::uint8_t
{
    None,
    IntAlu,
    IntMult,
    FpAlu,
    LoadPort,
    StorePort,
    AluPipe,   ///< entry stage of an ALU pipeline
};

/** @return short mnemonic for @p fu (AP, ALU, LD, ...). */
const char *fuKindName(FuKind fu);

/** Reservation lanes tracked per cycle (every FuKind but None). */
inline constexpr int fuLaneCount = 6;

/** Lane of @p fu (IntAlu=0 ... AluPipe=5); None has no lane. */
inline int
fuLaneIndex(FuKind fu)
{
    return static_cast<int>(fu) - 1;
}

/**
 * A FUBMP packed into per-lane cycle masks: bit (o-1) of @c lane[L]
 * set means the template reserves one unit of lane L in cycle o after
 * issue. Built once at finalize(); the sliding-window scheduler turns
 * a conflict check into one rotate-and-AND per populated lane instead
 * of a per-entry vector scan.
 */
struct PackedFubmp
{
    std::array<std::uint64_t, fuLaneCount> lane{};
    std::uint8_t laneSet = 0;   ///< bit L set = lane[L] is non-empty
    int maxOffset = 0;          ///< largest reserved cycle (0 = none);
                                ///< bits exist only for offsets <= 64
};

/** Pack @p fubmp (index 0 = cycle 1, FuKind::None = no reservation). */
PackedFubmp packFubmp(const std::vector<FuKind> &fubmp);

/** Machine parameters the MGT schedule depends on. */
struct MgtMachine
{
    int loadLat = 2;            ///< load-to-use hit latency
    bool collapsing = false;    ///< pair-wise collapsing ALU pipelines
    int aluPipeDepth = 4;       ///< stages per ALU pipeline
};

/** Derived MGHT entry. */
struct MgHeader
{
    int lat = 1;              ///< issue-to-output-ready latency
    int totalLat = 1;         ///< issue-to-completion latency
    FuKind fu0 = FuKind::IntAlu;
    /** Units needed in cycles 1..totalLat-1 after issue (index 0 is
     *  cycle 1); FuKind::None means no new reservation that cycle. */
    std::vector<FuKind> fubmp;
    PackedFubmp packed;       ///< fubmp as per-lane cycle masks
    bool hasLoad = false;
    bool hasStore = false;
    bool endsInBranch = false;

    /** Append the paper-style rendering ("-:ALU:ALU") to @p out. */
    void fubmpStr(std::string &out) const;

    /** Paper-style rendering, e.g. "-:ALU:ALU". */
    std::string
    fubmpStr() const
    {
        std::string out;
        fubmpStr(out);
        return out;
    }
};

/** A complete mini-graph template plus its derived schedule. */
struct MgTemplate
{
    std::vector<TemplateInsn> insns;   ///< dataflow (program) order
    int outIdx = -1;                   ///< insn producing the interface
                                       ///< output; -1 when none
    bool outIsFp = false;              ///< output is an fp register

    // Derived by finalize():
    std::vector<int> startCycle;       ///< per-insn issue-relative cycle
    MgHeader hdr;

    int size() const { return static_cast<int>(insns.size()); }

    /** Position of the mem op or -1. Cached by finalize(); templates
     *  queried before finalize fall back to the scan.
     *  (Inline: the LSQ and issue paths read it per dynamic handle.) */
    int
    memIdx() const
    {
        return memIdx_ != memIdxUnset ? memIdx_ : scanMemIdx();
    }

    /**
     * Compute the bank schedule and header for machine @p m.
     * Instructions run one per cycle in order; each starts when its
     * predecessor's result is available (loads leave their successor
     * banks empty, Figure 2). With collapsing, consecutive single-
     * cycle ALU pairs share a cycle.
     */
    void finalize(const MgtMachine &m);

    /** Canonical identity string used for template coalescing. */
    std::string key() const;

    /** Paper-style MGST row rendering (Figure 2). */
    std::string mgstStr() const;

  private:
    static constexpr int memIdxUnset = -2;
    int memIdx_ = memIdxUnset;         ///< cached by finalize()
    int scanMemIdx() const;
};

/** The MGT proper: MGID -> template. */
class MgTable
{
  public:
    /** Add @p t (must already be finalized); @return its MGID. */
    MgId add(MgTemplate t);

    /** Template for @p id (inline: one lookup per dynamic handle). */
    const MgTemplate &
    at(MgId id) const
    {
        if (!contains(id))
            badId(id);
        return entries[static_cast<size_t>(id)];
    }
    std::size_t size() const { return entries.size(); }
    bool contains(MgId id) const
    {
        return id >= 0 && static_cast<std::size_t>(id) < entries.size();
    }

    /** Render both MGHT and MGST contents (examples / debugging). */
    std::string str() const;

  private:
    [[noreturn]] void badId(MgId id) const;
    std::vector<MgTemplate> entries;
};

} // namespace mg

#endif // MG_MG_MGT_HH
