/**
 * @file
 * Dynamic instruction state shared by every back-end structure. One
 * DynInst represents one pipeline *slot*: a singleton instruction or a
 * complete mini-graph handle (whose `work` is its template size).
 *
 * DynInsts live in a DynInstSlab: a fixed-capacity arena with an
 * explicit freelist. The core allocates one slot per fetched
 * instruction and recycles it the moment the instruction retires or is
 * squashed (squashed slots are reset in place and re-fed to fetch
 * through the replay queue), so the live population is bounded by
 * ROB + fetch-queue capacity — no per-instruction heap traffic and no
 * lazily-reclaimed arena tail.
 *
 * Everything that never varies between a slot's dynamic instances
 * lives in a StaticInst, decoded once per text slot when the core is
 * built; a DynInst points at its slot's record instead of copying the
 * class, register roles, FU kind, latency, template and kind flags at
 * every fetch. Field order is deliberate: the scheduling state the
 * wakeup/select/commit loops touch every cycle leads the struct
 * (first cache lines); the oracle record and waiter list, mostly read
 * once, trail it.
 */

#ifndef MG_UARCH_DYNINST_HH
#define MG_UARCH_DYNINST_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "emu/emulator.hh"
#include "mg/mgt.hh"

namespace mg {

/** Scheduler-residency state of an issue-queue entry (see
 *  uarch/issue_queue.hh for the wakeup machinery that drives it). */
enum class IqState : std::uint8_t
{
    None,      ///< not in the issue queue (or already issued)
    Waiting,   ///< waiting on unissued producers / a predicted store
    Wake,      ///< all inputs known; parked until iqWakeAt
    Ready,     ///< in the ready set, competing for issue slots
};

/** How fetch predicts, and fast-forward trains, a control slot. */
enum class BranchKind : std::uint8_t
{
    None,   ///< not a control transfer
    Cond,   ///< conditional branch, or a handle ending in one
    Br,
    Bsr,
    Ret,
    Jsr,
    Jmp,
};

/**
 * Static identity of one text slot, decoded once when the core is
 * built (paper Sections 4-5: a handle's MGID fixes its template,
 * interface registers and latency for every instance).
 */
struct StaticInst
{
    const MgTemplate *tmpl = nullptr;   ///< handles: the MGT entry
    RegId src[2] = {regNone, regNone};  ///< Instruction::src(0/1)
    RegId dst = regNone;                ///< renamed destination, or
                                        ///< regNone (handles: only
                                        ///< with a template output)
    std::int16_t selLat = 1;            ///< singleton effective latency
    int work = 1;                       ///< constituent instructions
    InsnClass cls = InsnClass::Nop;
    /** Singleton issue slot kind (IntMult ops compete for the grouped
     *  integer slots, so they carry IntAlu). */
    FuKind selFu = FuKind::IntAlu;
    BranchKind branch = BranchKind::None;
    bool isLoad = false;                ///< handles: template has a load
    bool isStore = false;
    /** A register field names one of DISE's dedicated registers,
     *  which never reach renaming (expansion is a decode-stage
     *  mechanism). */
    bool namesDiseReg = false;

    bool isHandle() const { return cls == InsnClass::Handle; }
    bool isCtrl() const { return branch != BranchKind::None; }
    bool isMem() const { return isLoad || isStore; }
};

/** One in-flight pipeline slot. */
struct DynInst
{
    // --- hot scheduling state (touched every cycle) ---
    const StaticInst *si = nullptr; ///< this slot's static record
    std::uint64_t seq = 0;          ///< global age (1-based)
    PhysReg srcPhys[2] = {physNone, physNone};
    PhysReg dstPhys = physNone;
    PhysReg prevPhys = physNone;
    RegId archDst = regNone;
    bool memDone = false;           ///< address resolved (stores: +data)
    bool mispredicted = false;      ///< blocks fetch until resolve
    bool dispatched = false;
    bool issued = false;
    bool inWindow = false;          ///< dispatched and not yet
                                    ///< retired/squashed
    IqState iqState = IqState::None;
    int iqWaits = 0;                ///< outstanding wakeup events
    Cycle iqWakeAt = 0;             ///< park target while Wake
    DynInst *iqPrev = nullptr;      ///< age-list links
    DynInst *iqNext = nullptr;
    DynInst *rdyPrev = nullptr;     ///< ready-set links (age-sorted)
    DynInst *rdyNext = nullptr;

    Cycle memExecAt = 0;
    Cycle resolveAt = 0;
    Cycle completeAt = 0;
    Cycle dispatchReadyAt = 0;
    Cycle issueAt = 0;
    Cycle fetchAt = 0;
    std::uint64_t depStoreSeq = 0;  ///< store-sets predicted dependence
    Addr memAddr = 0;               ///< hot copy of rec.memAddr
    std::int32_t memBytes = 0;      ///< hot copy of rec.memBytes
    int handleReplays = 0;          ///< interior-load miss replays
    Addr pc = 0;

    // --- trace capture (observational; see uarch/trace.hh) ---
    Cycle dispatchedAt = 0;         ///< cycle the slot left rename

    // --- cold oracle payload (written once per fetch) ---
    ExecRecord rec;                 ///< oracle-observed effects
    /** Loads/stores predicted to depend on this store, woken when its
     *  access resolves. (ptr, seq) pairs; stale seqs are skipped. */
    std::vector<std::pair<DynInst *, std::uint64_t>> depWaiters;

    bool isHandle() const { return si->isHandle(); }

    /**
     * Clear every piece of pipeline state. The slot's identity (pc,
     * si, oracle record and its memAddr/memBytes copies) is kept: a
     * squashed slot re-fetches with it, and fetch assigns it to a
     * fresh slot before any use.
     */
    void
    reset()
    {
        seq = 0;
        srcPhys[0] = srcPhys[1] = physNone;
        dstPhys = prevPhys = physNone;
        archDst = regNone;
        depStoreSeq = 0;
        memDone = false;
        memExecAt = 0;
        mispredicted = false;
        resolveAt = 0;
        fetchAt = dispatchReadyAt = issueAt = completeAt = 0;
        dispatchedAt = 0;
        dispatched = issued = inWindow = false;
        handleReplays = 0;
        iqPrev = iqNext = nullptr;
        rdyPrev = rdyNext = nullptr;
        iqState = IqState::None;
        iqWaits = 0;
        iqWakeAt = 0;
        depWaiters.clear();          // keeps capacity: allocation-free
    }
};

/**
 * Fixed-capacity DynInst arena with a freelist. Capacity is sized by
 * the machine (ROB + fetch queue bound the live population); the slab
 * still grows by whole blocks if that bound is ever exceeded, so a
 * sizing bug degrades to extra memory rather than a crash. Pointers
 * are stable for the slab's lifetime.
 */
class DynInstSlab
{
  public:
    explicit DynInstSlab(std::size_t capacity)
        : blockSize(capacity ? capacity : 1)
    {
        grow();
    }

    /** Take a fully-reset slot. */
    DynInst *
    alloc()
    {
        if (freeList.empty())
            grow();
        DynInst *d = freeList.back();
        freeList.pop_back();
        d->reset();
        ++live_;
        if (live_ > peakLive_)
            peakLive_ = live_;
        return d;
    }

    /** Return a slot (any queued references must already be stale). */
    void
    release(DynInst *d)
    {
        d->seq = 0;
        d->inWindow = false;
        freeList.push_back(d);
        --live_;
    }

    std::size_t live() const { return live_; }
    std::size_t peakLive() const { return peakLive_; }
    std::size_t capacity() const { return blockSize * blocks.size(); }

  private:
    void
    grow()
    {
        blocks.push_back(std::make_unique<DynInst[]>(blockSize));
        DynInst *base = blocks.back().get();
        for (std::size_t i = blockSize; i-- > 0;)
            freeList.push_back(base + i);
    }

    std::size_t blockSize;
    std::vector<std::unique_ptr<DynInst[]>> blocks;
    std::vector<DynInst *> freeList;
    std::size_t live_ = 0;
    std::size_t peakLive_ = 0;
};

} // namespace mg

#endif // MG_UARCH_DYNINST_HH
