/**
 * @file
 * Huge-workload tier (label: huge): the 10M+-unit scale. One kernel
 * per suite must reproduce its C++ reference checksum on both input
 * sets, retire at least ten million units of dynamic work, and match
 * golden stats-identity hashes for the paper's three machine shapes.
 * The tier exists to stress state the M-scale tier cannot: store-set
 * clear intervals (the sweep test below shows the functional
 * store-set shadow is measurably non-neutral once clears fire inside
 * a sampled run's detailed spans) and fast-forward scalability.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "engine/engine.hh"
#include "sim/simulator.hh"
#include "workloads/suites.hh"

#include "stats_hash.hh"

namespace {

using namespace mg;
using namespace mg::testhash;

class HugeKernel : public ::testing::TestWithParam<const char *>
{
};

TEST_P(HugeKernel, ValidatesAndRetiresAtLeastTenMillion)
{
    BoundKernel bk = bindKernel(findKernel(GetParam()), Scale::Huge);
    // checkKernel is fatal on a checksum mismatch or a hung kernel.
    std::uint64_t work = checkKernel(bk, 0);
    EXPECT_GE(work, 10000000u) << GetParam() << " too short for the "
                                               "huge tier";
}

TEST_P(HugeKernel, ValidatesOnAlternateInput)
{
    BoundKernel bk = bindKernel(findKernel(GetParam()), Scale::Huge);
    std::uint64_t work = checkKernel(bk, 1);
    EXPECT_GE(work, 10000000u) << GetParam();
}

/** Derived from the registry so a newly huge-capable kernel is
 *  validated here automatically (only the golden hash table below
 *  stays manual). */
std::vector<const char *>
hugeKernelNames()
{
    std::vector<const char *> names;
    for (const Kernel &k : allKernels()) {
        if (k.supports(Scale::Huge))
            names.push_back(k.name);
    }
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllHuge, HugeKernel,
                         ::testing::ValuesIn(hugeKernelNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n) {
                                 if (c == '.')
                                     c = '_';
                             }
                             return n;
                         });

TEST(HugeRegistry, CoversEverySuite)
{
    // At least one representative per suite, and every huge kernel
    // also supports the long tier (the scale axis is a ladder, not a
    // patchwork).
    for (const std::string &suite : suiteNames()) {
        bool any = false;
        for (const Kernel *k : suiteKernels(suite))
            any = any || k->supports(Scale::Huge);
        EXPECT_TRUE(any) << suite << " has no huge-scale kernel";
    }
    for (const Kernel &k : allKernels()) {
        if (k.supports(Scale::Huge)) {
            EXPECT_TRUE(k.supports(Scale::Long)) << k.name;
        }
    }
    // Huge workload ids are scale-suffixed for the artifact caches.
    for (const EngineWorkload &w : suiteWorkloads("all", 0, Scale::Huge))
        EXPECT_NE(w.id.find("@huge"), std::string::npos) << w.id;
}

// ------------------------------------------------------------------
// Golden stats-identity hashes, recorded from the engine this tier
// shipped with (PR 5). Regenerate only for a deliberate, documented
// timing-model change.
// ------------------------------------------------------------------

const Golden hugeGoldens[] = {
    {"mcf", "base", 0xbbd42d23ac8f0a46ull},
    {"mcf", "int", 0xafbb6af1bcbde955ull},
    {"mcf", "intmem", 0x546aabcc1e5125b4ull},
    {"jpeg.dct", "base", 0x208642615c3ea880ull},
    {"jpeg.dct", "int", 0x4ba8f690dadab65full},
    {"jpeg.dct", "intmem", 0xead8c3956285006aull},
    {"crc", "base", 0x8f49ad99a78c7e84ull},
    {"crc", "int", 0x53d476215356c7e4ull},
    {"crc", "intmem", 0xc016882b10caeee2ull},
    {"sha", "base", 0xa11607341c8612f8ull},
    {"sha", "int", 0x8dc596b4acdb2b24ull},
    {"sha", "intmem", 0x88ef3f0a98996a71ull},
};

TEST(HugePerfIdentity, GoldenStatsHashEveryHugeKernelTimesThreeConfigs)
{
    std::size_t hugeCount = 0;
    for (const Kernel &k : allKernels())
        hugeCount += k.supports(Scale::Huge);
    EXPECT_EQ(std::size(hugeGoldens), 3 * hugeCount);

    for (const Golden &g : hugeGoldens) {
        BoundKernel bk = bindKernel(findKernel(g.kernel), Scale::Huge);
        SimConfig cfg = configOf(g.config);
        CoreStats s;
        if (!cfg.useMiniGraphs) {
            s = runCell(*bk.program, nullptr, cfg, bk.setup);
        } else {
            BlockProfile prof = collectProfile(*bk.program, bk.setup,
                                               cfg.profileBudget);
            PreparedMg prep = prepareMiniGraphs(
                *bk.program, prof, cfg.policy, cfg.machine, cfg.compress);
            s = runCell(*bk.program, &prep, cfg, bk.setup);
        }
        EXPECT_EQ(statsHash(s), g.hash)
            << g.kernel << "@huge x " << g.config
            << ": cycles=" << s.cycles << " work=" << s.committedWork
            << " ipc=" << s.ipc();
    }
}

// ------------------------------------------------------------------
// Store-set clear-interval sweep: the huge tier is what finally makes
// the functional store-set shadow measurable.
// ------------------------------------------------------------------

TEST(HugeStoreSets, ClearIntervalSweepShowsShadowIsNoLongerNeutral)
{
    // sha re-violates its learned (load PC, store PC) pairs after
    // every store-set table clear. Under grid-aligned placement at
    // the production clear interval (262144 accesses) a sampled run's
    // detailed spans never cross a clear, so the shadow is neutral —
    // on- and off-shadow runs are bit-identical. Shrink the interval
    // until clears fire inside the detailed spans of a 10M-unit run
    // and the shadow becomes measurably non-neutral: it re-trains
    // violated pairs across fast-forward gaps, suppressing
    // re-discovery violations inside measurement intervals and
    // cutting the IPC error.
    BoundKernel bk = bindKernel(findKernel("sha"), Scale::Huge);
    EngineWorkload w = workload(bk);

    auto runAt = [&](std::uint64_t clearInterval, bool shadow,
                     CoreStats *fullOut) {
        ExperimentEngine eng(0);
        SimConfig cfg = SimConfig::intMemMg();
        cfg.core.ss.clearInterval = clearInterval;
        if (fullOut)
            *fullOut = eng.cell(w, cfg);
        SimConfig sc = cfg;
        sc.sampling.enabled = true;
        sc.sampling.ssShadow = shadow;
        return eng.cellSampled(w, sc);
    };

    // Production interval: neutral, bit for bit. Pinned under
    // explicit grid-aligned (salt-zero) placement through the sim
    // layer: the engine's phase-salted placement can legitimately
    // move a detailed span onto a clear boundary — exactly the
    // regime the shrunk-interval half below exercises on purpose —
    // so the controlled no-clears-in-span claim belongs to the grid.
    {
        SimConfig cfg = SimConfig::intMemMg();
        cfg.core.ss.clearInterval = 262144;
        BlockProfile prof = collectProfile(*bk.program, bk.setup,
                                           cfg.profileBudget);
        PreparedMg prep = prepareMiniGraphs(
            *bk.program, prof, cfg.policy, cfg.machine, cfg.compress);
        SimConfig sc = cfg;
        sc.sampling.enabled = true;
        SampleSummary sum = collectSampleSummary(
            prep.program, &prep.table, bk.setup, sc.sampling);
        sc.sampling.ssShadow = true;
        SampledStats defOn =
            runCellSampled(prep.program, &prep, sc, bk.setup, sum);
        sc.sampling.ssShadow = false;
        SampledStats defOff =
            runCellSampled(prep.program, &prep, sc, bk.setup, sum);
        EXPECT_EQ(defOn.est, defOff.est)
            << "shadow unexpectedly active at the production clear "
               "interval under grid placement";
    }

    // Clears inside the detailed spans: the shadow must change the
    // estimate (non-neutral), suppress violations, and not hurt the
    // IPC estimate.
    CoreStats full;
    SampledStats on = runAt(4096, true, &full);
    SampledStats off = runAt(4096, false, nullptr);
    EXPECT_GT(full.ordViolations, 1000u)
        << "huge sha no longer crosses clear intervals";
    EXPECT_NE(on.est, off.est) << "shadow neutral at huge scale";
    EXPECT_LT(on.est.ordViolations, off.est.ordViolations);
    // Both estimates stay accurate — the shadow changes *what the
    // fast-forward preserves*, it must not destabilize the estimator
    // either way.
    double errOn = std::abs(on.est.ipc() - full.ipc()) / full.ipc();
    double errOff = std::abs(off.est.ipc() - full.ipc()) / full.ipc();
    EXPECT_LE(errOn, 0.01);
    EXPECT_LE(errOff, 0.01);
}

// ------------------------------------------------------------------
// Sampling still holds its envelope at 10M scale.
// ------------------------------------------------------------------

TEST(HugeSampling, WarmThroughAccuracyAndFastForwardDominance)
{
    ExperimentEngine eng(0);
    for (const BoundKernel &bk : bindAll(Scale::Huge)) {
        EngineWorkload w = workload(bk);
        SimConfig cfg = SimConfig::baseline();
        double full = eng.cell(w, cfg).ipc();
        SimConfig sc = cfg;
        sc.sampling.enabled = true;
        SampledStats s = eng.cellSampled(w, sc);
        ASSERT_GT(full, 0.0);
        EXPECT_FALSE(s.exact) << w.id;
        double err = std::abs(s.est.ipc() - full) / full;
        // Historic worst case was 1.99% (jpeg.dct, whose 16k-work
        // block period aliases against a grid-aligned measurement
        // placement); 3% trips loudly on a regression of the tier.
        EXPECT_LE(err, 0.03)
            << w.id << " sampled " << s.est.ipc() << " vs full " << full;
        // The salted measurement phase (SamplingParams::phaseSalt,
        // derived per cell by the engine) de-aliases that bias:
        // jpeg.dct measured 0.93% salted. Pin the cell that motivated
        // the fix under 1% so a placement regression re-announces
        // itself here, not in a figure.
        if (w.id.find("jpeg.dct") != std::string::npos) {
            EXPECT_LT(err, 0.01)
                << w.id << " sampling alias is back: sampled "
                << s.est.ipc() << " vs full " << full;
        }
        // At 10M units the duty cap dominates: the overwhelming share
        // of the run is fast-forwarded, not simulated in detail.
        EXPECT_GT(s.ffWork, (8 * s.totalWork) / 10) << w.id;
    }
}

} // namespace
