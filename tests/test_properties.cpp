/**
 * @file
 * Property-based / parameterized sweeps: across machine shapes and
 * policy settings, simulations must terminate, retire exactly the
 * oracle's work, validate outputs, never leak physical registers, and
 * respect structural invariants. Selection must be deterministic.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "workloads/suites.hh"

namespace mg {
namespace {

struct Shape
{
    const char *name;
    int width;
    int rob;
    int iq;
    int lsq;
    int regs;
    int sched;
};

const Shape shapes[] = {
    {"paper6wide", 6, 128, 50, 64, 164, 1},
    {"narrow2", 2, 32, 12, 16, 96, 1},
    {"wide8", 8, 256, 64, 64, 192, 1},
    {"tinyrob", 6, 8, 8, 8, 96, 1},
    {"slow_sched", 6, 128, 50, 64, 164, 2},
    {"minregs", 6, 128, 50, 64, 66, 1},
};

class ShapeSweep : public ::testing::TestWithParam<Shape>
{
};

TEST_P(ShapeSweep, BaselineTerminatesAndValidates)
{
    const Shape &s = GetParam();
    BoundKernel bk = bindKernel(findKernel("drr"));
    CoreConfig cfg;
    cfg.fetchWidth = cfg.renameWidth = cfg.issueWidth = cfg.commitWidth =
        s.width;
    cfg.robSize = s.rob;
    cfg.iqSize = s.iq;
    cfg.lsqSize = s.lsq;
    cfg.physRegs = s.regs;
    cfg.schedulerCycles = s.sched;

    Core core(*bk.program, nullptr, cfg);
    bk.setup(core.oracle());
    CoreStats st = core.run();
    EXPECT_TRUE(bk.kernel->validateAt(core.oracle(), 0, Scale::Ref))
        << s.name;
    EXPECT_GT(st.ipc(), 0.0) << s.name;

    Emulator ref(*bk.program);
    bk.setup(ref);
    EXPECT_EQ(st.committedWork, ref.run().dynWork) << s.name;
}

TEST_P(ShapeSweep, MiniGraphTerminatesAndValidates)
{
    const Shape &s = GetParam();
    BoundKernel bk = bindKernel(findKernel("frag"));
    SimConfig sc = SimConfig::intMemMg();
    sc.core.fetchWidth = sc.core.renameWidth = sc.core.issueWidth =
        sc.core.commitWidth = s.width;
    sc.core.robSize = s.rob;
    sc.core.iqSize = s.iq;
    sc.core.lsqSize = s.lsq;
    sc.core.physRegs = s.regs;
    sc.core.schedulerCycles = s.sched;

    BlockProfile prof = collectProfile(*bk.program, bk.setup,
                                       sc.profileBudget);
    PreparedMg prep = prepareMiniGraphs(*bk.program, prof, sc.policy,
                                        sc.machine);
    Core core(prep.program, &prep.table, sc.core);
    bk.setup(core.oracle());
    CoreStats st = core.run();
    EXPECT_TRUE(bk.kernel->validateAt(core.oracle(), 0, Scale::Ref))
        << s.name;
    EXPECT_GT(st.committedHandles, 0u) << s.name;
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeSweep, ::testing::ValuesIn(shapes),
                         [](const auto &info) {
                             return std::string(info.param.name);
                         });

class PolicySweep
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool, int>>
{
};

TEST_P(PolicySweep, SelectionRespectsPolicyEverywhere)
{
    auto [ext, inte, repl, size] = GetParam();
    SelectionPolicy policy;
    policy.allowExternallySerial = ext;
    policy.allowInternallySerial = inte;
    policy.allowInteriorLoads = repl;
    policy.maxSize = size;

    BoundKernel bk = bindKernel(findKernel("gzip"));
    BlockProfile prof = collectProfile(*bk.program, bk.setup, 200000);
    Cfg cfg(*bk.program);
    Liveness live(cfg);
    Selection sel = selectMiniGraphs(cfg, live, prof, policy,
                                     MgtMachine{});
    for (const auto &si : sel.instances) {
        EXPECT_LE(si.cand.size(), size);
        if (!ext) {
            EXPECT_FALSE(si.cand.externallySerial);
        }
        if (!inte) {
            EXPECT_FALSE(si.cand.internallySerial);
        }
        if (!repl) {
            EXPECT_FALSE(si.cand.interiorLoad);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicySweep,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Bool(), ::testing::Values(2, 4, 8)));

TEST(Determinism, SelectionIsStableAcrossRuns)
{
    BoundKernel bk = bindKernel(findKernel("reed"));
    BlockProfile prof = collectProfile(*bk.program, bk.setup, 300000);
    Cfg cfg(*bk.program);
    Liveness live(cfg);
    Selection a = selectMiniGraphs(cfg, live, prof, SelectionPolicy{},
                                   MgtMachine{});
    Selection b = selectMiniGraphs(cfg, live, prof, SelectionPolicy{},
                                   MgtMachine{});
    ASSERT_EQ(a.instances.size(), b.instances.size());
    ASSERT_EQ(a.table.size(), b.table.size());
    for (size_t i = 0; i < a.instances.size(); ++i) {
        EXPECT_EQ(a.instances[i].mgid, b.instances[i].mgid);
        EXPECT_EQ(a.instances[i].cand.members,
                  b.instances[i].cand.members);
    }
}

TEST(Determinism, TimingIsReproducible)
{
    BoundKernel bk = bindKernel(findKernel("crc"));
    CoreStats a = runCore(*bk.program, nullptr, CoreConfig{}, bk.setup);
    CoreStats b = runCore(*bk.program, nullptr, CoreConfig{}, bk.setup);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedWork, b.committedWork);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
}

TEST(CoverageProperty, MgtBudgetMonotonicity)
{
    // More MGT entries can never reduce estimated coverage.
    BoundKernel bk = bindKernel(findKernel("gzip"));
    BlockProfile prof = collectProfile(*bk.program, bk.setup, 300000);
    Cfg cfg(*bk.program);
    Liveness live(cfg);
    double prev = -1.0;
    for (int entries : {1, 2, 4, 8, 32, 128}) {
        SelectionPolicy policy;
        policy.maxTemplates = entries;
        Selection sel = selectMiniGraphs(cfg, live, prof, policy,
                                         MgtMachine{});
        double cov = sel.coverage(cfg, prof);
        EXPECT_GE(cov + 1e-12, prev) << entries;
        prev = cov;
    }
}

TEST(CoverageProperty, LargerMaxSizeMonotonicity)
{
    BoundKernel bk = bindKernel(findKernel("blowfish"));
    BlockProfile prof = collectProfile(*bk.program, bk.setup, 300000);
    Cfg cfg(*bk.program);
    Liveness live(cfg);
    double prev = -1.0;
    for (int size : {2, 3, 4, 8}) {
        SelectionPolicy policy;
        policy.maxSize = size;
        Selection sel = selectMiniGraphs(cfg, live, prof, policy,
                                         MgtMachine{});
        double cov = sel.coverage(cfg, prof);
        EXPECT_GE(cov + 1e-12, prev) << size;
        prev = cov;
    }
}

} // namespace
} // namespace mg
