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
 * events from its push stamp. The core keeps each physical register's
 * last retired writer's stamp; store-set producers, named by seq, are
 * found in a small seq-ordered ring of the retired stores the trace
 * still holds. Events go into a caller-owned ring whose memory is
 * touched only as events arrive and is kept across clear(), so a
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
#include "uarch/ring.hh"

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
 * Events are stamped 1, 2, ... in push order since the last clear():
 * an event's stamp is totalPushed() just after its push.
 */
class TraceBuffer
{
  public:
    /** Default ring capacity: 2^18 events (12 MB when full). Most
     *  ref-tier kernels fit whole, but twolf and reed baseline fill it
     *  and wrap, and so does every long-tier cell; those are analyzed
     *  over their newest 2^18 events. Huge-tier runs stay bounded. */
    static constexpr std::size_t defaultCapacity = 1u << 18;

    explicit TraceBuffer(std::size_t capacity = defaultCapacity)
    {
        clear(capacity);
    }

    /** Append a record for the next retired slot and return it,
     *  default-initialized, for the caller to fill in place. */
    TraceEvent &
    push()
    {
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
     * Distance from the newest event back to the event stamped
     * @p stamp: the value for the newest event's links. 0 when
     * @p stamp is 0 (no producer) or that event is no longer held.
     */
    std::uint32_t
    linkBack(std::uint64_t stamp) const
    {
        // Branch-free: whether an operand has a producer at all varies
        // slot by slot.
        std::uint64_t dist = head - stamp;
        bool held = (stamp != 0) & (dist < cap);
        return static_cast<std::uint32_t>(dist) &
            (0u - static_cast<std::uint32_t>(held));
    }

    /** Record that the newest event retired the store @p seq. Stores
     *  retire in program order, so seqs must strictly increase. */
    void
    noteStore(std::uint64_t seq)
    {
        // Stores whose events fell off the ring can never be linked.
        while (!stores.empty() && head - stores.front().stamp >= cap)
            stores.pop_front();
        stores.push_back({seq, head});
    }

    /**
     * Distance from the newest event back to the held store retired
     * as @p seq (see noteStore). 0 when @p seq is 0, never retired as
     * a store (squashed), or is no longer held.
     */
    std::uint32_t
    storeLink(std::uint64_t seq) const
    {
        // Most slots have no store-set link; the rest binary-search the
        // seq-ordered ring, rare enough to cost nothing measurable.
        if (seq == 0)
            return 0;
        std::size_t lo = 0, hi = stores.size();
        while (lo < hi) {
            std::size_t mid = lo + (hi - lo) / 2;
            if (stores.at(mid).seq < seq)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo == stores.size())
            return 0;
        StoreRec r = stores.at(lo);
        return r.seq == seq ? linkBack(r.stamp) : 0;
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
        head = 0;
        stores.clear();
    }

  private:
    std::vector<TraceEvent> buf;   ///< fills to cap, then wraps
    std::size_t cap = 1;
    std::size_t oldest = 0;        ///< oldest event's slot once full
    std::uint64_t head = 0;        ///< events pushed since clear()

    /** A retired store: its seq and its event's stamp. */
    struct StoreRec
    {
        std::uint64_t seq, stamp;
    };
    /** The retired stores whose events may still be held, oldest
     *  first. */
    RingDeque<StoreRec> stores{256};
};

} // namespace mg

#endif // MG_UARCH_TRACE_HH
