#include "uarch/sliding_window.hh"

#include <bit>

#include "mg/minigraph.hh"

#include "common/logging.hh"

namespace mg {

SlidingWindow::SlidingWindow(const FuPoolConfig &fu, int depth)
    : depth_(depth)
{
    if (depth < static_cast<int>(2 * mgMaxSize))
        depth_ = 2 * mgMaxSize;
    // Round the circular buffer up to a power of two so the per-lane
    // line math is a mask, not a division. Extra lines are cleared
    // like any others; reservations never reach beyond the FUBMP
    // depth, so the coverage semantics are unchanged.
    int capLines = 1;
    while (capLines < depth_)
        capLines <<= 1;
    depth_ = capLines;
    if (depth_ > 64)
        panic("sliding window depth %d exceeds the 64-line masks",
              depth_);
    mask = static_cast<Cycle>(capLines - 1);
    lineBits = depth_ == 64 ? ~std::uint64_t(0)
                            : (std::uint64_t(1) << depth_) - 1;

    cap = {fu.intAlus, 1 /* IntMult: one multiplier */,
           0 /* FpAlu: never windowed */, fu.loadPorts, fu.storePorts,
           fu.aluPipes};
    for (int l = 0; l < fuLaneCount; ++l) {
        atCapInit[static_cast<size_t>(l)] =
            cap[static_cast<size_t>(l)] <= 0 ? lineBits : 0;
        atCap[static_cast<size_t>(l)] = atCapInit[static_cast<size_t>(l)];
    }
}

void
SlidingWindow::slideSlow(Cycle now)
{
    Cycle steps = now - lastSlide;
    // Lines (lastSlide + s - 1) & mask for s = 1..steps: a contiguous
    // (wrapping) run of length steps starting at line lastSlide & mask.
    std::uint64_t passed;
    if (steps >= static_cast<Cycle>(depth_)) {
        passed = lineBits;
    } else {
        std::uint64_t run = (std::uint64_t(1) << steps) - 1;
        passed = rotLines(run, static_cast<unsigned>(lastSlide & mask));
    }
    for (int l = 0; l < fuLaneCount; ++l) {
        auto li = static_cast<size_t>(l);
        std::uint64_t clear = occupied[li] & passed;
        while (clear) {
            int line = lowestBit(clear);
            clear &= clear - 1;
            cnt[li][line] = 0;
        }
        occupied[li] &= ~passed;
        atCap[li] = (atCap[li] & ~passed) | (atCapInit[li] & passed);
    }
    lastSlide = now;
}

void
SlidingWindow::reserve(const PackedFubmp &p, Cycle now)
{
    slideTo(now);
    auto r = static_cast<unsigned>((now + 1) & mask);
    std::uint8_t lanes = p.laneSet;
    while (lanes) {
        int l = lowestBit(lanes);
        lanes &= static_cast<std::uint8_t>(lanes - 1);
        auto li = static_cast<size_t>(l);
        std::uint64_t bits = rotLines(p.lane[li], r);
        occupied[li] |= bits;
        while (bits) {
            int line = lowestBit(bits);
            bits &= bits - 1;
            if (++cnt[li][line] >= cap[li])
                atCap[li] |= std::uint64_t(1) << line;
        }
    }
}

bool
SlidingWindow::reserveOne(FuKind fu, int offset, Cycle now)
{
    slideTo(now);
    if (offset >= depth_)
        return false;
    auto line = static_cast<int>((now + static_cast<Cycle>(offset)) &
                                 mask);
    auto li = static_cast<size_t>(fuLaneIndex(fu));
    if (atCap[li] & (std::uint64_t(1) << line))
        return false;
    occupied[li] |= std::uint64_t(1) << line;
    if (++cnt[li][line] >= cap[li])
        atCap[li] |= std::uint64_t(1) << line;
    return true;
}

int
SlidingWindow::available(FuKind fu, int offset, Cycle now) const
{
    slideToConst(now);
    if (offset >= depth_)
        return 0;
    auto line = static_cast<int>((now + static_cast<Cycle>(offset)) &
                                 mask);
    auto li = static_cast<size_t>(fuLaneIndex(fu));
    return cap[li] - cnt[li][line];
}

int
SlidingWindow::usedAt(FuKind fu, Cycle now) const
{
    slideToConst(now);
    auto line = static_cast<int>(now & mask);
    return cnt[static_cast<size_t>(fuLaneIndex(fu))][line];
}

void
SlidingWindow::usedNow(Cycle now, int out[4]) const
{
    slideToConst(now);
    auto line = static_cast<int>(now & mask);
    out[0] = cnt[0][line];   // IntAlu
    out[1] = cnt[3][line];   // LoadPort
    out[2] = cnt[4][line];   // StorePort
    out[3] = cnt[5][line];   // AluPipe
}

} // namespace mg
