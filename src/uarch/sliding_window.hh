/**
 * @file
 * Sliding-window scheduler reservation bitmap (paper Section 4.3).
 *
 * Logically a two-dimensional bitmap: one dimension is functional-unit
 * resources, the other is future cycles, extended far enough to cover
 * the longest mini-graph. An integer-memory handle issues only when
 * ANDing its FUBMP against the window comes up empty; on issue the
 * FUBMP is ORed in to make the reservations. The window slides by one
 * line per cycle.
 *
 * The implementation is literally that AND/OR: templates carry their
 * FUBMP as per-lane 64-bit cycle masks (PackedFubmp, built once at
 * MGT finalize), and the window keeps, per lane, a line-at-capacity
 * bitmask. A conflict check rotates each populated template lane into
 * line space and ANDs it against the at-capacity mask — one multiply-
 * free word op per lane instead of a per-entry vector scan. Unit
 * counts per line back the masks so capacities above one work and
 * available()/usedAt() stay exact.
 */

#ifndef MG_UARCH_SLIDING_WINDOW_HH
#define MG_UARCH_SLIDING_WINDOW_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mg/mgt.hh"
#include "uarch/fu_pool.hh"

namespace mg {

/** Integer-memory handles issued per cycle: the sliding-window
 *  scheduler checks and reserves one FUBMP per cycle (paper
 *  Section 4.3). */
inline constexpr int intMemHandlesPerCycle = 1;

/** The reservation window. */
class SlidingWindow
{
  public:
    /**
     * @param fu    per-cycle unit capacities (ALUs, ALU pipelines,
     *              load and store ports; one multiplier lane, no FP)
     * @param depth future cycles covered (>= max mini-graph latency;
     *              rounded up to a power of two, at most 64 lines)
     */
    explicit SlidingWindow(const FuPoolConfig &fu, int depth = 16);

    /**
     * Would reserving @p p starting at cycle offset 1 conflict with
     * existing reservations or capacity, as of cycle @p now?
     */
    bool
    conflicts(const PackedFubmp &p, Cycle now) const
    {
        slideToConst(now);
        if (p.maxOffset >= depth_)
            return true;   // cannot represent: always a conflict
        auto r = static_cast<unsigned>((now + 1) & mask);
        std::uint8_t lanes = p.laneSet;
        while (lanes) {
            int l = lowestBit(lanes);
            lanes &= static_cast<std::uint8_t>(lanes - 1);
            if (rotLines(p.lane[static_cast<size_t>(l)], r) &
                atCap[static_cast<size_t>(l)])
                return true;
        }
        return false;
    }

    /** Make the reservations (call only after a conflict check). */
    void reserve(const PackedFubmp &p, Cycle now);

    /** Convenience overloads packing an unpacked FUBMP (tests). */
    bool
    conflicts(const std::vector<FuKind> &fubmp, Cycle now) const
    {
        return conflicts(packFubmp(fubmp), now);
    }
    void
    reserve(const std::vector<FuKind> &fubmp, Cycle now)
    {
        reserve(packFubmp(fubmp), now);
    }

    /**
     * Singleton-path reservation: claim one unit of @p fu at offset
     * @p offset cycles ahead. @return false on conflict.
     */
    bool reserveOne(FuKind fu, int offset, Cycle now);

    /** Units of @p fu still available @p offset cycles after @p now. */
    int available(FuKind fu, int offset, Cycle now) const;

    /** Units of @p fu already reserved for cycle @p now itself. */
    int usedAt(FuKind fu, Cycle now) const;

    /**
     * All reservations firing at cycle @p now, in one pass:
     * @p out[0..3] = IntAlu, LoadPort, StorePort, AluPipe (the lanes
     * the issue stage pre-claims each cycle).
     */
    void usedNow(Cycle now, int out[4]) const;

    int depth() const { return depth_; }

  private:
    int depth_;          ///< rounded up to a power of two, <= 64
    Cycle mask = 0;      ///< depth_ - 1 (line index = cycle & mask)
    std::uint64_t lineBits = 0;   ///< low depth_ bits set

    std::array<int, fuLaneCount> cap{};
    /** Bit L set: line L is at capacity (one more unit conflicts).
     *  Capacity-0 lanes are permanently all-ones via atCapInit. */
    std::array<std::uint64_t, fuLaneCount> atCap{};
    std::array<std::uint64_t, fuLaneCount> atCapInit{};
    /** Bit L set: line L has at least one unit reserved (slide only
     *  clears counts under occupied & passed). */
    std::array<std::uint64_t, fuLaneCount> occupied{};
    /** cnt[lane][line] = units in use (exact available()/usedAt()). */
    std::uint8_t cnt[fuLaneCount][64] = {};

    Cycle lastSlide = 0;

    static int lowestBit(std::uint64_t v) { return std::countr_zero(v); }

    /** Rotate @p m left by @p r within the low depth_ bits: template
     *  offset bit (o-1) lands on line (now + o) & mask when
     *  r = (now + 1) & mask. */
    std::uint64_t
    rotLines(std::uint64_t m, unsigned r) const
    {
        if (r == 0)
            return m & lineBits;
        return ((m << r) |
                (m >> (static_cast<unsigned>(depth_) - r))) & lineBits;
    }

    /** Advance the window to @p now, clearing passed lines.
     *  (Inline early-out: every probe slides, but only the first one
     *  per cycle advances — the rest must not pay a call.) */
    void
    slideTo(Cycle now)
    {
        if (now > lastSlide)
            slideSlow(now);
    }
    void slideSlow(Cycle now);

    // slideTo mutates lazily; conflicts() is logically const.
    friend class SlidingWindowTestPeer;
    void slideToConst(Cycle now) const
    {
        const_cast<SlidingWindow *>(this)->slideTo(now);
    }
};

} // namespace mg

#endif // MG_UARCH_SLIDING_WINDOW_HH
