/**
 * @file
 * Differential battery for the packed-bitmask SlidingWindow: the
 * bitmask implementation must agree, observation for observation,
 * with the retained reference implementation (the per-entry vector
 * scan it replaced), over randomized reservation sequences and the
 * wrap/length edge cases the mask arithmetic has to get right.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mg/mgt.hh"
#include "uarch/sliding_window.hh"

namespace mg {
namespace {

/**
 * Reference model: the pre-bitmask SlidingWindow, kept verbatim
 * (per-lane std::vector<int> line counters, per-entry scans). Slow
 * and obviously correct; every public observation is compared
 * against it.
 */
class RefSlidingWindow
{
  public:
    RefSlidingWindow(const FuPoolConfig &r, int depth)
        : res(r), depth_(depth)
    {
        if (depth < 16)
            depth_ = 16;
        int cap = 1;
        while (cap < depth_)
            cap <<= 1;
        depth_ = cap;
        mask = static_cast<Cycle>(cap - 1);
        used.assign(6, std::vector<int>(static_cast<size_t>(depth_), 0));
    }

    bool
    conflicts(const std::vector<FuKind> &fubmp, Cycle now)
    {
        slideTo(now);
        for (size_t i = 0; i < fubmp.size(); ++i) {
            FuKind fu = fubmp[i];
            if (fu == FuKind::None)
                continue;
            int offset = static_cast<int>(i) + 1;
            if (offset >= depth_)
                return true;
            auto line = static_cast<size_t>(
                (now + static_cast<Cycle>(offset)) & mask);
            if (used[static_cast<size_t>(kindIdx(fu))][line] + 1 >
                capacity(fu))
                return true;
        }
        return false;
    }

    void
    reserve(const std::vector<FuKind> &fubmp, Cycle now)
    {
        slideTo(now);
        for (size_t i = 0; i < fubmp.size(); ++i) {
            FuKind fu = fubmp[i];
            if (fu == FuKind::None)
                continue;
            int offset = static_cast<int>(i) + 1;
            auto line = static_cast<size_t>(
                (now + static_cast<Cycle>(offset)) & mask);
            ++used[static_cast<size_t>(kindIdx(fu))][line];
        }
    }

    bool
    reserveOne(FuKind fu, int offset, Cycle now)
    {
        slideTo(now);
        if (offset >= depth_)
            return false;
        auto line = static_cast<size_t>(
            (now + static_cast<Cycle>(offset)) & mask);
        auto lane = static_cast<size_t>(kindIdx(fu));
        if (used[lane][line] + 1 > capacity(fu))
            return false;
        ++used[lane][line];
        return true;
    }

    int
    available(FuKind fu, int offset, Cycle now)
    {
        slideTo(now);
        if (offset >= depth_)
            return 0;
        auto line = static_cast<size_t>(
            (now + static_cast<Cycle>(offset)) & mask);
        return capacity(fu) - used[static_cast<size_t>(kindIdx(fu))][line];
    }

    int
    usedAt(FuKind fu, Cycle now)
    {
        slideTo(now);
        return used[static_cast<size_t>(kindIdx(fu))][now & mask];
    }

    void
    usedNow(Cycle now, int out[4])
    {
        slideTo(now);
        auto line = static_cast<size_t>(now & mask);
        out[0] = used[0][line];
        out[1] = used[3][line];
        out[2] = used[4][line];
        out[3] = used[5][line];
    }

    int depth() const { return depth_; }

  private:
    FuPoolConfig res;
    int depth_;
    Cycle mask = 0;
    std::vector<std::vector<int>> used;
    Cycle lastSlide = 0;

    static int
    kindIdx(FuKind fu)
    {
        return static_cast<int>(fu) - 1;
    }

    int
    capacity(FuKind fu) const
    {
        switch (fu) {
          case FuKind::IntAlu: return res.intAlus;
          case FuKind::IntMult: return 1;
          case FuKind::FpAlu: return 0;
          case FuKind::LoadPort: return res.loadPorts;
          case FuKind::StorePort: return res.storePorts;
          case FuKind::AluPipe: return res.aluPipes;
          default: return 0;
        }
    }

    void
    slideTo(Cycle now)
    {
        if (now <= lastSlide)
            return;
        Cycle steps = now - lastSlide;
        if (steps >= static_cast<Cycle>(depth_)) {
            for (auto &lane : used)
                std::fill(lane.begin(), lane.end(), 0);
        } else {
            for (Cycle s = 1; s <= steps; ++s) {
                auto line =
                    static_cast<size_t>((lastSlide + s - 1) & mask);
                for (auto &lane : used)
                    lane[line] = 0;
            }
        }
        lastSlide = now;
    }
};

/** Deterministic 64-bit LCG (the test must be reproducible). */
struct Rng
{
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed) {}
    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 33;
    }
    /** Uniform in [0, n). */
    int pick(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
};

const FuKind allKinds[6] = {FuKind::IntAlu,  FuKind::IntMult,
                            FuKind::FpAlu,   FuKind::LoadPort,
                            FuKind::StorePort, FuKind::AluPipe};

std::vector<FuKind>
randomFubmp(Rng &rng, int maxLen, bool allowFp)
{
    int len = 1 + rng.pick(maxLen);
    std::vector<FuKind> v(static_cast<size_t>(len), FuKind::None);
    for (auto &fu : v) {
        int k = rng.pick(8);    // bias towards None (sparse FUBMPs)
        if (k < 6 && (allowFp || allKinds[k] != FuKind::FpAlu))
            fu = allKinds[k];
    }
    return v;
}

/** Compare every observable of both windows at the current cycle. */
void
compareAll(SlidingWindow &w, RefSlidingWindow &ref, Cycle now)
{
    for (FuKind fu : allKinds) {
        ASSERT_EQ(w.usedAt(fu, now), ref.usedAt(fu, now))
            << "usedAt lane " << static_cast<int>(fu) << " @" << now;
        for (int off : {0, 1, 2, 7, w.depth() - 1, w.depth(),
                        w.depth() + 3}) {
            ASSERT_EQ(w.available(fu, off, now),
                      ref.available(fu, off, now))
                << "available lane " << static_cast<int>(fu) << " off "
                << off << " @" << now;
        }
    }
    int a[4], b[4];
    w.usedNow(now, a);
    ref.usedNow(now, b);
    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(a[i], b[i]) << "usedNow[" << i << "] @" << now;
}

/** An FU pool with the window-visible capacities given. */
FuPoolConfig
pool(int alus, int loadPorts, int storePorts, int aluPipes)
{
    FuPoolConfig fu;
    fu.intAlus = alus;
    fu.loadPorts = loadPorts;
    fu.storePorts = storePorts;
    fu.aluPipes = aluPipes;
    return fu;
}

/** The paper's mini-graph machine: two ALUs became ALU pipelines. */
FuPoolConfig
miniGraphPool()
{
    return pool(2, 2, 1, 2);
}

void
runDifferential(const FuPoolConfig &res, int depth,
                std::uint64_t seed, int iters, int maxLen)
{
    SlidingWindow w(res, depth);
    RefSlidingWindow ref(res, depth);
    ASSERT_EQ(w.depth(), ref.depth());

    Rng rng(seed);
    Cycle now = 0;
    for (int it = 0; it < iters; ++it) {
        switch (rng.pick(4)) {
          case 0: {
              // Template check-and-reserve under the issue contract:
              // reserve only what conflicts() cleared.
              std::vector<FuKind> fubmp =
                  randomFubmp(rng, maxLen, /*allowFp=*/true);
              bool c1 = w.conflicts(fubmp, now);
              bool c2 = ref.conflicts(fubmp, now);
              ASSERT_EQ(c1, c2) << "conflicts @" << now;
              if (!c1 && rng.pick(2) == 0) {
                  w.reserve(fubmp, now);
                  ref.reserve(fubmp, now);
              }
              break;
          }
          case 1: {
              // Singleton-path probe (includes out-of-range offsets).
              FuKind fu = allKinds[rng.pick(6)];
              int off = rng.pick(w.depth() + 8);
              ASSERT_EQ(w.reserveOne(fu, off, now),
                        ref.reserveOne(fu, off, now))
                  << "reserveOne lane " << static_cast<int>(fu)
                  << " off " << off << " @" << now;
              break;
          }
          case 2:
            compareAll(w, ref, now);
            break;
          default: {
              // Advance time: mostly small steps, occasionally a jump
              // past the whole window (the full-clear slide path).
              int jump = rng.pick(20);
              if (jump == 19)
                  now += static_cast<Cycle>(2 * w.depth() + rng.pick(9));
              else
                  now += static_cast<Cycle>(rng.pick(4));
              break;
          }
        }
    }
    compareAll(w, ref, now);
}

TEST(SlidingWindowDiff, RandomizedAgainstVectorScanReference)
{
    // ~10k randomized operations per (resources, depth) cell, over
    // the production configuration, tight capacities, zero-capacity
    // lanes, and every legal pow2 depth.
    FuPoolConfig prod = miniGraphPool();
    FuPoolConfig tight = pool(1, 1, 1, 1);
    FuPoolConfig noPipes = pool(4, 2, 1, 0);   // aluPipes == 0 lane
    FuPoolConfig wide = pool(6, 4, 2, 4);
    int cell = 0;
    for (const FuPoolConfig &res : {prod, tight, noPipes, wide}) {
        for (int depth : {16, 24, 32, 64}) {
            runDifferential(res, depth,
                            0x5eedull + static_cast<std::uint64_t>(cell),
                            10000, 12);
            ++cell;
        }
    }
}

TEST(SlidingWindowDiff, WindowWrapStress)
{
    // Drive now straight through several wraps of the line ring with
    // dense FUBMPs so reservations straddle the wrap point; one-cycle
    // steps keep every line live across the boundary.
    FuPoolConfig res = miniGraphPool();
    SlidingWindow w(res, 16);
    RefSlidingWindow ref(res, 16);
    Rng rng(0xabcdefull);
    for (Cycle now = 0; now < 400; ++now) {
        std::vector<FuKind> fubmp =
            randomFubmp(rng, w.depth() - 2, /*allowFp=*/false);
        bool c1 = w.conflicts(fubmp, now);
        ASSERT_EQ(c1, ref.conflicts(fubmp, now)) << "@" << now;
        if (!c1) {
            w.reserve(fubmp, now);
            ref.reserve(fubmp, now);
        }
        compareAll(w, ref, now);
    }
}

TEST(SlidingWindowDiff, MaxLengthFubmp)
{
    // FUBMPs whose last entry sits exactly at, one before, and past
    // the window depth: the representability cutoff must match the
    // reference's per-entry offset >= depth rejection.
    FuPoolConfig res = miniGraphPool();
    for (int depth : {16, 64}) {
        SlidingWindow w(res, depth);
        RefSlidingWindow ref(res, depth);
        int d = w.depth();
        for (int len : {d - 1, d, d + 1, d + 40}) {
            std::vector<FuKind> fubmp(static_cast<size_t>(len),
                                      FuKind::None);
            fubmp.back() = FuKind::IntAlu;   // offset == len
            ASSERT_EQ(w.conflicts(fubmp, 5), ref.conflicts(fubmp, 5))
                << "depth " << d << " len " << len;
            // A trailing None keeps the populated offset in range
            // even when the vector itself is longer than the window.
            if (len > 2) {
                fubmp.back() = FuKind::None;
                fubmp[1] = FuKind::LoadPort;
                ASSERT_EQ(w.conflicts(fubmp, 5),
                          ref.conflicts(fubmp, 5))
                    << "sparse depth " << d << " len " << len;
            }
        }
    }
}

TEST(SlidingWindowDiff, CapacityZeroLaneAlwaysConflicts)
{
    // FpAlu is never windowed (capacity 0): any FUBMP touching it
    // must conflict regardless of window state, and reserveOne must
    // refuse it — in both implementations.
    FuPoolConfig res = miniGraphPool();
    SlidingWindow w(res, 16);
    RefSlidingWindow ref(res, 16);
    std::vector<FuKind> fp{FuKind::FpAlu};
    EXPECT_TRUE(w.conflicts(fp, 0));
    EXPECT_TRUE(ref.conflicts(fp, 0));
    EXPECT_FALSE(w.reserveOne(FuKind::FpAlu, 1, 0));
    EXPECT_FALSE(ref.reserveOne(FuKind::FpAlu, 1, 0));
}

} // namespace
} // namespace mg
