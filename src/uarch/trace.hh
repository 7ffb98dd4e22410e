/**
 * @file
 * Compact retired-event trace: one 48-byte record per retired pipeline
 * slot, carrying the stage timestamps and dependence links the
 * critical-path analyzer (analysis/critpath.hh) walks in place.
 *
 * Capture is strictly observational: the core samples timestamps the
 * timing model already computed, so attaching a trace never perturbs a
 * run (stats stay bit-identical with tracing on or off). Dependence
 * links are resolved as slots retire, in the style of an incremental
 * dependence-graph builder: each producer is a backward distance in
 * events, found in O(1) through a seq -> event table the ring keeps
 * beside its records. Events go into a caller-owned ring whose memory
 * is touched only as events arrive and is kept across clear(), so a
 * reused ring stops faulting in memory once it has held its largest
 * trace. Once the ring wraps, the oldest events are overwritten and
 * the analyzer sees the most recent window.
 *
 * Timestamps are stored as the absolute fetch cycle plus 32-bit deltas
 * for the later stages. A slot that sits in the machine for more than
 * 2^32 cycles is not representable — no realistic configuration comes
 * within orders of magnitude of that — and the deltas saturate rather
 * than wrap so a pathological run degrades to clamped attribution, not
 * garbage.
 */

#ifndef MG_UARCH_TRACE_HH
#define MG_UARCH_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace mg {

/** One retired pipeline slot (singleton instruction or handle). */
struct TraceEvent
{
    Cycle fetchAt = 0;            ///< absolute fetch cycle

    // Stage deltas relative to fetchAt (saturating).
    std::uint32_t dispatchD = 0;  ///< rename/dispatch
    std::uint32_t issueD = 0;     ///< select/issue
    std::uint32_t completeD = 0;  ///< execution complete (writeback)
    std::uint32_t commitD = 0;    ///< retirement
    std::uint32_t memExecD = 0;   ///< memory access issue (0 = none)

    // Dependence links as backward distances in events (0 = none):
    // the producer of the event at window index k is at k - dist when
    // dist <= k, and fell off the ring otherwise. One link per renamed
    // source operand, plus the predicted store dependence the
    // scheduler ordered this slot behind.
    std::uint32_t srcDist[2] = {0, 0};
    std::uint32_t depStoreDist = 0;

    std::uint16_t work = 1;       ///< constituent instructions
    std::uint16_t handleReplays = 0;
    std::uint8_t flags = 0;

    static constexpr std::uint8_t FlagLoad = 1 << 0;
    static constexpr std::uint8_t FlagStore = 1 << 1;
    static constexpr std::uint8_t FlagCtrl = 1 << 2;
    static constexpr std::uint8_t FlagHandle = 1 << 3;
    static constexpr std::uint8_t FlagMispredicted = 1 << 4;
    static constexpr std::uint8_t FlagTaken = 1 << 5;

    bool isLoad() const { return flags & FlagLoad; }
    bool isStore() const { return flags & FlagStore; }
    bool isCtrl() const { return flags & FlagCtrl; }
    bool isHandle() const { return flags & FlagHandle; }
    bool mispredicted() const { return flags & FlagMispredicted; }
    bool taken() const { return flags & FlagTaken; }

    Cycle dispatchAt() const { return fetchAt + dispatchD; }
    Cycle issueAt() const { return fetchAt + issueD; }
    Cycle completeAt() const { return fetchAt + completeD; }
    Cycle commitAt() const { return fetchAt + commitD; }
    /** Absolute memory-access cycle; 0 when the slot has none. */
    Cycle memExecAt() const { return memExecD ? fetchAt + memExecD : 0; }
};

static_assert(sizeof(TraceEvent) == 48, "trace records stay compact");

/**
 * Ring of retired events. The ring keeps the @e newest `capacity()`
 * events and counts everything ever pushed, so consumers can tell a
 * complete trace (totalPushed() == size()) from a wrapped window.
 */
class TraceBuffer
{
  public:
    /** Default ring capacity: ~256k events (~12 MB when full) keeps
     *  every ref- and long-tier kernel complete while bounding
     *  huge-tier runs. */
    static constexpr std::size_t defaultCapacity = 1u << 18;

    explicit TraceBuffer(std::size_t capacity = defaultCapacity)
    {
        clear(capacity);
    }

    /** Append a record for the slot retired as @p seq and return it,
     *  default-initialized, for the caller to fill in place.
     *  Retirement is in program order, so seqs must strictly
     *  increase. */
    TraceEvent &
    push(std::uint64_t seq)
    {
        // Claim every seq since the last push: skipped ones were
        // squashed and read as absent (0), not as whatever an earlier
        // seq left in their slot. Entries at or above keepFrom belong
        // to events still held after this push; evicting one would
        // lose its links, so the table grows first.
        std::uint64_t keepFrom =
            stamp0 + 1 + (head + 1 > cap ? head + 1 - cap : 0);
        for (std::uint64_t s = head ? lastSeq + 1 : seq; s < seq; ++s)
            claimSeq(s, 0, keepFrom);
        claimSeq(seq, stamp0 + head + 1, keepFrom);
        lastSeq = seq;
        ++head;
        if (buf.size() < cap)
            return buf.emplace_back();
        TraceEvent *e = &buf[oldest];
        if (++oldest == cap)
            oldest = 0;
        // Built in place, not copied from a temporary: that copy
        // stalls on store forwarding.
        return *std::construct_at(e);
    }

    /**
     * Distance from the newest event back to the held event retired
     * as @p seq: the value for the newest event's links. 0 when
     * @p seq is 0, never retired (squashed), or is no longer held.
     */
    std::uint32_t
    distanceTo(std::uint64_t seq) const
    {
        // Branch-free: whether an operand has a producer at all varies
        // slot by slot. A masked read is always in bounds, and the
        // answer only counts when 0 < seq <= lastSeq lies inside the
        // table's span, its entry was written by this trace and not
        // for a squashed seq (st > stamp0), and it is held
        // (dist < cap).
        std::uint64_t st = stampOfSeq[seq & seqMask];
        std::uint64_t dist = stamp0 + head - st;
        bool held = (seq != 0) & (lastSeq - seq < stampOfSeq.size()) &
            (st > stamp0) & (dist < cap);
        return static_cast<std::uint32_t>(dist) &
            (0u - static_cast<std::uint32_t>(held));
    }

    /** Events currently held (<= capacity). */
    std::size_t size() const { return buf.size(); }

    /** Total events ever pushed (retired slots observed). */
    std::uint64_t totalPushed() const { return head; }

    bool wrapped() const { return head > cap; }

    std::size_t capacity() const { return cap; }

    /** Oldest-first random access to the held events, small enough
     *  for a walk to keep in registers. Valid until the next push or
     *  clear. */
    class View
    {
      public:
        const TraceEvent &
        operator[](std::size_t i) const
        {
            std::size_t p = oldest + i;
            return events[p < cap ? p : p - cap];
        }

        /** The held events as a plain oldest-first array, or null
         *  when the window wraps around the end of the storage. */
        const TraceEvent *
        contiguous() const
        {
            return oldest == 0 ? events : nullptr;
        }

      private:
        friend class TraceBuffer;
        View(const TraceEvent *e, std::size_t o, std::size_t c)
            : events(e), oldest(o), cap(c)
        {
        }
        const TraceEvent *events;
        std::size_t oldest;
        std::size_t cap;
    };

    View view() const { return View(buf.data(), oldest, cap); }

    /** i-th held event, oldest first. */
    const TraceEvent &at(std::size_t i) const { return view()[i]; }

    /** Forget every event, keeping the capacity and the storage. */
    void clear() { clear(cap); }

    /** Forget every event and hold at most @p capacity from now on.
     *  Storage is kept for reuse. */
    void
    clear(std::size_t capacity)
    {
        // Distances are 32-bit, so the window is too.
        cap = capacity == 0 ? 1
            : capacity > 0xffffffffu ? std::size_t{0xffffffffu}
                                     : capacity;
        buf.clear();
        // Address space for the whole ring, so pushes never move it;
        // pages are only touched, and counted, as events arrive.
        buf.reserve(cap);
        oldest = 0;
        stamp0 += head;
        head = 0;
        if (stampOfSeq.empty()) {
            stampOfSeq.assign(4096, 0);
            seqMask = stampOfSeq.size() - 1;
        }
    }

  private:
    std::vector<TraceEvent> buf;   ///< fills to cap, then wraps
    std::size_t cap = 1;
    std::size_t oldest = 0;        ///< oldest event's slot once full
    std::uint64_t head = 0;        ///< events pushed since clear()

    // Seq -> event table: the slot of seq s holds 1 + the stamp of the
    // event retired as s, or 0 when s was squashed. Stamps count
    // pushes across clear()s, so entries at or below stamp0 belong to
    // an earlier trace and read as absent without refilling the table.
    // The table always covers every seq from the oldest held event's
    // to lastSeq, doubling when a claim would evict a held event, so
    // lookups stay exact however the ring wraps.
    std::vector<std::uint64_t> stampOfSeq;
    std::uint64_t seqMask = 0;
    std::uint64_t lastSeq = 0;     ///< newest seq claimed
    std::uint64_t stamp0 = 0;      ///< pushes before this trace

    void
    claimSeq(std::uint64_t s, std::uint64_t v, std::uint64_t keepFrom)
    {
        if (stampOfSeq[s & seqMask] >= keepFrom)
            growSeqTable(s - 1);
        stampOfSeq[s & seqMask] = v;
    }

    /** Double the seq table, keeping the entries of the seqs up to
     *  @p newest it covers. Out of line: it runs a few times per
     *  ring, and inlined it slows every push. */
    [[gnu::noinline, gnu::cold]] void
    growSeqTable(std::uint64_t newest)
    {
        std::vector<std::uint64_t> grown(stampOfSeq.size() * 2, 0);
        std::uint64_t mask = grown.size() - 1;
        for (std::uint64_t i = 0; i < stampOfSeq.size() && i < newest;
             ++i) {
            std::uint64_t s = newest - i;
            grown[s & mask] = stampOfSeq[s & seqMask];
        }
        stampOfSeq.swap(grown);
        seqMask = mask;
    }
};

} // namespace mg

#endif // MG_UARCH_TRACE_HH
