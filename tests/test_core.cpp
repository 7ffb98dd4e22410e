/**
 * @file
 * Timing-core integration tests: the out-of-order core must retire
 * exactly the oracle's dynamic work for every kernel (baseline and
 * mini-graph configurations), produce architecturally correct outputs,
 * and report sane IPC. Also covers the bandwidth/capacity and
 * scheduler knobs used in the figure benches.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "workloads/suites.hh"

namespace mg {
namespace {

std::uint64_t
referenceWork(const BoundKernel &bk)
{
    Emulator emu(*bk.program);
    bk.setup(emu);
    return emu.run(100000000ull).dynWork;
}

class CoreBaseline : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CoreBaseline, RetiresOracleWork)
{
    BoundKernel bk = bindKernel(findKernel(GetParam()));
    std::uint64_t expect = referenceWork(bk);

    CoreConfig cfg;
    Core core(*bk.program, nullptr, cfg);
    bk.setup(core.oracle());
    CoreStats st = core.run();

    EXPECT_EQ(st.committedWork, expect) << GetParam();
    EXPECT_EQ(st.committedSlots, expect) << GetParam();
    EXPECT_TRUE(bk.kernel->validateAt(core.oracle(), 0, Scale::Ref))
        << GetParam();
    EXPECT_GT(st.ipc(), 0.05) << GetParam();
    EXPECT_LT(st.ipc(), 6.0) << GetParam();
}

TEST_P(CoreBaseline, MiniGraphConfigRetiresSameWork)
{
    BoundKernel bk = bindKernel(findKernel(GetParam()));
    std::uint64_t expect = referenceWork(bk);

    SimConfig sc = SimConfig::intMemMg();
    BlockProfile prof = collectProfile(*bk.program, bk.setup,
                                       sc.profileBudget);
    PreparedMg prep = prepareMiniGraphs(*bk.program, prof, sc.policy,
                                        sc.machine);

    Core core(prep.program, &prep.table, sc.core);
    bk.setup(core.oracle());
    CoreStats st = core.run();

    EXPECT_EQ(st.committedWork, expect) << GetParam();
    EXPECT_LE(st.committedSlots, expect) << GetParam();
    EXPECT_GT(st.committedHandles, 0u) << GetParam();
    EXPECT_TRUE(bk.kernel->validateAt(core.oracle(), 0, Scale::Ref))
        << GetParam();
    // Dynamic coverage consistency: slots + removed = work.
    EXPECT_NEAR(st.dynamicCoverage(),
                1.0 - static_cast<double>(st.committedSlots) /
                          static_cast<double>(st.committedWork),
                1e-12);
}

const char *const coreKernels[] = {
    "gzip", "mcf", "crafty", "adpcm.enc", "jpeg.dct", "gsm.lpc", "crc",
    "rtr", "reed", "bitcount", "sha", "blowfish", "rgb2gray", "drr",
};

INSTANTIATE_TEST_SUITE_P(Kernels, CoreBaseline,
                         ::testing::ValuesIn(coreKernels),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n) {
                                 if (c == '.')
                                     c = '_';
                             }
                             return n;
                         });

TEST(CoreKnobs, NarrowerMachineIsSlower)
{
    BoundKernel bk = bindKernel(findKernel("rgb2gray"));
    CoreConfig wide;
    CoreConfig narrow;
    narrow.fetchWidth = narrow.renameWidth = narrow.issueWidth =
        narrow.commitWidth = 2;

    CoreStats w = runCore(*bk.program, nullptr, wide, bk.setup);
    CoreStats n = runCore(*bk.program, nullptr, narrow, bk.setup);
    EXPECT_LT(n.ipc(), w.ipc());
}

TEST(CoreKnobs, SmallerRegisterFileIsNotFaster)
{
    // crc has no in-window store-to-load races, so register-file
    // scaling is monotone (sha is the counterexample, below).
    BoundKernel bk = bindKernel(findKernel("crc"));
    CoreConfig big;
    CoreConfig small;
    small.physRegs = 104;

    CoreStats b = runCore(*bk.program, nullptr, big, bk.setup);
    CoreStats s = runCore(*bk.program, nullptr, small, bk.setup);
    EXPECT_LE(s.ipc(), b.ipc() * 1.001);
    EXPECT_EQ(s.committedWork, b.committedWork);
}

TEST(CoreKnobs, StoreSetsSerializeShasInWindowRaces)
{
    // sha's message schedule stores w[i] and loads w[i-3] about 36
    // instructions later. A 100-entry speculative window exposes the
    // race: ordering violations occur, store sets learn the pairs,
    // and later loads serialize. The shallow 40-entry window never
    // speculates across the dependence.
    BoundKernel bk = bindKernel(findKernel("sha"));
    CoreConfig deep;
    CoreConfig shallow;
    shallow.physRegs = 104;

    CoreStats d = runCore(*bk.program, nullptr, deep, bk.setup);
    CoreStats s = runCore(*bk.program, nullptr, shallow, bk.setup);
    EXPECT_GT(d.ordViolations, 0u);
    EXPECT_EQ(s.ordViolations, 0u);
    EXPECT_EQ(d.committedWork, s.committedWork);
}

TEST(CoreKnobs, TwoCycleSchedulerIsSlowerOnSerialCode)
{
    // gsm.lpc is a serial dependence chain: pipelining the scheduler
    // must cost performance on the baseline machine.
    BoundKernel bk = bindKernel(findKernel("gsm.lpc"));
    CoreConfig fast;
    CoreConfig slow;
    slow.schedulerCycles = 2;

    CoreStats f = runCore(*bk.program, nullptr, fast, bk.setup);
    CoreStats s = runCore(*bk.program, nullptr, slow, bk.setup);
    EXPECT_LT(s.ipc(), f.ipc());
}

TEST(CoreKnobs, PerfectFrontEndBoundsIpcByIssueWidth)
{
    BoundKernel bk = bindKernel(findKernel("bitcount"));
    CoreConfig cfg;
    CoreStats st = runCore(*bk.program, nullptr, cfg, bk.setup);
    EXPECT_LE(st.ipc(), static_cast<double>(cfg.issueWidth));
}

TEST(CoreStatsTest, StallCountersAreConsistent)
{
    BoundKernel bk = bindKernel(findKernel("mcf"));
    CoreConfig cfg;
    cfg.robSize = 16;   // force ROB-full stalls
    CoreStats st = runCore(*bk.program, nullptr, cfg, bk.setup);
    EXPECT_GT(st.robFullStalls, 0u);
    EXPECT_GT(st.dcacheMisses, 0u);   // mcf is cache-hostile
}

TEST(CoreRename, DiseRegisterFailsOnlyWhenExecuted)
{
    // DISE's dedicated registers exist in the emulator only: expansion
    // is a decode-stage mechanism, so no slot naming one may reach
    // renaming. Like the emulator's bad-slot faults, the check fires
    // only for a slot that executes, never for one behind a halt.
    const Instruction halt{Op::HALT};
    for (int k = 0; k < 4; ++k) {
        const auto dise = static_cast<RegId>(numArchRegs + k);
        for (const Instruction &in : {Instruction{Op::ADDQ, 1, dise, 3},
                                      Instruction{Op::ADDQ, 1, 2, dise}}) {
            Program ahead;
            ahead.text = {in, halt};
            EXPECT_EXIT(Core(ahead, nullptr, CoreConfig()).run(),
                        ::testing::ExitedWithCode(1),
                        "DISE register reached rename")
                << in.disasm();

            Program behind;
            behind.text = {halt, in};
            Core core(behind, nullptr, CoreConfig());
            EXPECT_EQ(core.run().committedWork, 1u) << in.disasm();
        }
    }
}

} // namespace
} // namespace mg
