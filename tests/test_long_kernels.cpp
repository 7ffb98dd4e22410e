/**
 * @file
 * Long-workload tier (label: long): every long-scale kernel must
 * reproduce its C++ reference checksum on both input sets, retire at
 * least one million units of dynamic work, and match golden
 * stats-identity hashes (test_perf_identity.cpp style) for the
 * paper's three machine shapes — so the M-scale tier is pinned
 * bit-for-bit exactly like the tier-1 kernels.
 */

#include <gtest/gtest.h>

#include <chrono>

#include "analysis/critpath.hh"
#include "sim/simulator.hh"
#include "workloads/suites.hh"

#include "stats_hash.hh"

namespace {

using namespace mg;
using namespace mg::testhash;

class LongKernel : public ::testing::TestWithParam<const char *>
{
};

TEST_P(LongKernel, ValidatesAndRetiresAtLeastOneMillion)
{
    BoundKernel bk = bindKernel(findKernel(GetParam()), Scale::Long);
    // checkKernel is fatal on a checksum mismatch or a hung kernel.
    std::uint64_t work = checkKernel(bk, 0);
    EXPECT_GE(work, 1000000u) << GetParam() << " too short for the "
                                              "long tier";
}

TEST_P(LongKernel, ValidatesOnAlternateInput)
{
    BoundKernel bk = bindKernel(findKernel(GetParam()), Scale::Long);
    std::uint64_t work = checkKernel(bk, 1);
    EXPECT_GE(work, 1000000u) << GetParam();
}

/** Derived from the registry so a newly long-capable kernel is
 *  validated here automatically (only the golden hash table below
 *  stays manual). */
std::vector<const char *>
longKernelNames()
{
    std::vector<const char *> names;
    for (const Kernel &k : allKernels()) {
        if (k.supports(Scale::Long))
            names.push_back(k.name);
    }
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllLong, LongKernel,
                         ::testing::ValuesIn(longKernelNames()),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n) {
                                 if (c == '.')
                                     c = '_';
                             }
                             return n;
                         });

TEST(LongRegistry, EveryKernelHasALongVariant)
{
    // The scale axis is complete: all 23 kernels support the long
    // tier, so `--scale long` sweeps the whole corpus.
    std::vector<EngineWorkload> ws = suiteWorkloads("all", 0, Scale::Long);
    EXPECT_EQ(ws.size(), allKernels().size());
    for (const Kernel &k : allKernels())
        EXPECT_TRUE(k.supports(Scale::Long)) << k.name;
    // Long workload ids are scale-suffixed so every engine artifact
    // cache keys them apart from the tier-1 runs.
    for (const EngineWorkload &w : ws)
        EXPECT_NE(w.id.find("@long"), std::string::npos) << w.id;
}

TEST(LongRegistry, SharedProgramKernelsReuseTheRefBinary)
{
    // Iteration-count-scaled kernels (null variant source) must
    // assemble to the same Program object; buffer-scaled kernels must
    // not.
    const Kernel &mcf = findKernel("mcf");
    EXPECT_EQ(&kernelProgram(mcf, Scale::Ref),
              &kernelProgram(mcf, Scale::Long));
    const Kernel &crc = findKernel("crc");
    EXPECT_NE(&kernelProgram(crc, Scale::Ref),
              &kernelProgram(crc, Scale::Long));
}

// ------------------------------------------------------------------
// Golden stats-identity hashes for every long kernel, recorded from
// the engine the full 23-kernel tier shipped with (PR 5); the nine
// PR 4 rows are unchanged. Regenerate only for a deliberate,
// documented timing-model change.
// ------------------------------------------------------------------

const Golden longGoldens[] = {
    {"gzip", "base", 0x76677af01995ab66ull},
    {"gzip", "int", 0x8d9f664122d2001cull},
    {"gzip", "intmem", 0xe679ca1d8e6eecc0ull},
    {"mcf", "base", 0x15d8a34e559528fdull},
    {"mcf", "int", 0x09cd98eff961b456ull},
    {"mcf", "intmem", 0x694ee090c192e105ull},
    {"parser", "base", 0x75e22b4c90907e1bull},
    {"parser", "int", 0x9ff4c329b0b7271cull},
    {"parser", "intmem", 0x35baadfe175d9f5aull},
    {"twolf", "base", 0x0e68575ab0352eb4ull},
    {"twolf", "int", 0x8147bdae1667b81aull},
    {"twolf", "intmem", 0xc2393b6222520556ull},
    {"gap", "base", 0x06179413ed5ae2f4ull},
    {"gap", "int", 0x83060db2ac56743aull},
    {"gap", "intmem", 0xe3ed0c86d2ade726ull},
    {"crafty", "base", 0xca7935e435cda176ull},
    {"crafty", "int", 0x6ad1d88898a5970full},
    {"crafty", "intmem", 0x4d41809c3991bef6ull},
    {"adpcm.enc", "base", 0x4dd5147d503c3b5eull},
    {"adpcm.enc", "int", 0xe1db00ef57e8e45bull},
    {"adpcm.enc", "intmem", 0x123150bbfa5ed498ull},
    {"adpcm.dec", "base", 0x5fd24e52e4f43850ull},
    {"adpcm.dec", "int", 0x9dd3df38036a35fdull},
    {"adpcm.dec", "intmem", 0x705467a1902c25f3ull},
    {"g721.enc", "base", 0x8e8b50ad46cc57d1ull},
    {"g721.enc", "int", 0xd8cdd66599a9832aull},
    {"g721.enc", "intmem", 0xd8cdd66599a9832aull},
    {"jpeg.dct", "base", 0x31844b2421bd2c7eull},
    {"jpeg.dct", "int", 0xf04bc5080d3af205ull},
    {"jpeg.dct", "intmem", 0xde2aecf5ae14cedcull},
    {"mpeg2.idct", "base", 0xa936ce7a081d2563ull},
    {"mpeg2.idct", "int", 0xfad3659f58d32f11ull},
    {"mpeg2.idct", "intmem", 0x0a2806dc49476bd0ull},
    {"gsm.lpc", "base", 0xdf883fe5dd59fe3cull},
    {"gsm.lpc", "int", 0xd96c0faff984dc95ull},
    {"gsm.lpc", "intmem", 0x0b1af7537c612157ull},
    {"crc", "base", 0xfaf0bab3acd34c76ull},
    {"crc", "int", 0x9a77047649184dd5ull},
    {"crc", "intmem", 0x01c61bc66bccaee5ull},
    {"drr", "base", 0x7a57cfbb2c45ebd2ull},
    {"drr", "int", 0x1cda78e0fb8e6c0aull},
    {"drr", "intmem", 0x08bba60ae2155528ull},
    {"frag", "base", 0xb464ddbf10bb83bfull},
    {"frag", "int", 0xfef5aee827a2ad43ull},
    {"frag", "intmem", 0xb23a6b6cae21d0e0ull},
    {"rtr", "base", 0xdf3a8dec72900d70ull},
    {"rtr", "int", 0xd473d3fcfc8d835full},
    {"rtr", "intmem", 0x65f236a83be3d0ecull},
    {"reed", "base", 0x86b7d0ae8e3b4dc6ull},
    {"reed", "int", 0x339abe70ba553e90ull},
    {"reed", "intmem", 0xaf37c9cbfd3a6625ull},
    {"bitcount", "base", 0x21a5b3679fb91bb2ull},
    {"bitcount", "int", 0x4a3d340a79b1eb02ull},
    {"bitcount", "intmem", 0x4a3d340a79b1eb02ull},
    {"sha", "base", 0x78dafe77b3454761ull},
    {"sha", "int", 0x0b5998e8d77a7749ull},
    {"sha", "intmem", 0x7689da5ecf0b6c9aull},
    {"dijkstra", "base", 0x98b2f7c36602a921ull},
    {"dijkstra", "int", 0xd6107545b9b58fdbull},
    {"dijkstra", "intmem", 0x02935e1bd071e8a0ull},
    {"stringsearch", "base", 0xe92bae915d5914d7ull},
    {"stringsearch", "int", 0xb44e1622355fb0a8ull},
    {"stringsearch", "intmem", 0x6598ae48171fbd90ull},
    {"blowfish", "base", 0xb0fab20ddd958aa2ull},
    {"blowfish", "int", 0x3f68d53df75753a5ull},
    {"blowfish", "intmem", 0x2dd7efe476ffd400ull},
    {"rgb2gray", "base", 0x75843324c7843a81ull},
    {"rgb2gray", "int", 0x15ae70c23aad2fceull},
    {"rgb2gray", "intmem", 0xbd45b6dce0b2d8d1ull},
};

TEST(LongPerfIdentity, GoldenTableCoversEveryLongKernel)
{
    // 23 kernels x 3 machine shapes: adding a long kernel without
    // recording its golden rows must fail loudly, not silently shrink
    // the pinned surface.
    std::size_t longCount = 0;
    for (const Kernel &k : allKernels())
        longCount += k.supports(Scale::Long);
    EXPECT_EQ(std::size(longGoldens), 3 * longCount);
}

TEST(LongPerfIdentity, GoldenStatsHashEveryLongKernelTimesThreeConfigs)
{
    for (const Golden &g : longGoldens) {
        BoundKernel bk = bindKernel(findKernel(g.kernel), Scale::Long);
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
            << g.kernel << "@long x " << g.config
            << ": cycles=" << s.cycles << " work=" << s.committedWork
            << " ipc=" << s.ipc();
    }
}

// ------------------------------------------------------------------
// What-if walk vs re-simulation: the analyzer's cost advantage.
// ------------------------------------------------------------------

TEST(LongCritPath, WhatIfWalkIsTenTimesCheaperThanResim)
{
    // The point of the --whatif backend: once a cell has been traced
    // and analyzed, a design-space question ("what does a 256-entry
    // ROB buy?") is a graph re-walk over the event window, not
    // another cycle-accurate simulation. The simulate/trace/analyze
    // cost is paid once per cell by --critpath; what this test pins
    // is the marginal cost of a question — CritPathAnalyzer::whatIf —
    // against the re-simulation it replaces, at least 10x cheaper on
    // an M-scale kernel (measured 25-45x; the slack absorbs noisy CI
    // machines). Every what-if walk recomputes its residuals in the
    // same pass, so the timed walk carries their full cost.
    BoundKernel bk = bindKernel(findKernel("gzip"), Scale::Long);
    SimConfig cfg = SimConfig::baseline();

    TraceBuffer trace;   // default ring: newest ~256k events
    Core core(*bk.program, nullptr, cfg.core);
    core.setTrace(&trace);
    bk.setup(core.oracle());   // long-scale inputs
    auto t0 = std::chrono::steady_clock::now();
    CoreStats st = core.run();
    double resimS = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    ASSERT_GT(st.committedWork, 1000000u);

    CritPathAnalyzer an(trace, cfg.core);
    ASSERT_TRUE(an.summary().present);

    std::string err;
    auto t1 = std::chrono::steady_clock::now();
    std::uint64_t widened = an.whatIf("robsize=256", &err);
    double walkS = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t1)
                       .count();
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_GT(widened, 0u);
    EXPECT_LE(widened, an.summary().actualCycles);   // widening
    EXPECT_GE(resimS, 10.0 * walkS)
        << "what-if walk " << walkS << "s vs re-sim " << resimS << "s";

    // The one-shot wrapper answers the same question with the same
    // number, so the cheap path and the bench path cannot drift.
    CritPathSummary one = analyzeCritPath(trace, cfg.core, "robsize=256");
    EXPECT_EQ(one.whatIfCycles, widened);
    EXPECT_TRUE(one.error.empty()) << one.error;
}

} // namespace
