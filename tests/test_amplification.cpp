/**
 * @file
 * Amplification invariants — the paper's central claims, checked as
 * testable properties of the timing core:
 *  - a handle consumes one slot of each front-end/retire stage;
 *  - interior values never allocate physical registers;
 *  - mini-graphs recover performance lost to reduced register files,
 *    reduced width, and pipelined schedulers (Figure 8 directions);
 *  - serialization policies behave as Section 6.2 describes.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "workloads/suites.hh"

namespace mg {
namespace {

CoreStats
runMg(const BoundKernel &bk, SimConfig sc)
{
    BlockProfile prof = collectProfile(*bk.program, bk.setup,
                                       sc.profileBudget);
    PreparedMg prep = prepareMiniGraphs(*bk.program, prof, sc.policy,
                                        sc.machine, sc.compress);
    return runCore(prep.program, &prep.table, sc.core, bk.setup);
}

TEST(Amplification, SlotsShrinkByCoverage)
{
    BoundKernel bk = bindKernel(findKernel("gsm.lpc"));
    CoreStats base = runCore(*bk.program, nullptr,
                             SimConfig::baseline().core, bk.setup);
    CoreStats mg = runMg(bk, SimConfig::intMemMg());

    EXPECT_EQ(base.committedWork, mg.committedWork);
    // A handle retires as one slot: slots = work - (covered work -
    // handles).
    EXPECT_LT(mg.committedSlots, base.committedSlots);
    EXPECT_GT(mg.dynamicCoverage(), 0.10);
    std::uint64_t insideHandles =
        mg.committedWork - (mg.committedSlots - mg.committedHandles);
    EXPECT_GT(insideHandles, mg.committedHandles);   // graphs >= 2 insns
}

TEST(Amplification, FewerRegistersWrittenWithMiniGraphs)
{
    // Interior values never allocate registers, so the mini-graph run
    // must get through the same work with a smaller register file
    // than the baseline needs (Figure 8 top, as a hard invariant:
    // IPC with 124 regs + mini-graphs >= baseline IPC with 124 regs).
    BoundKernel bk = bindKernel(findKernel("jpeg.dct"));
    SimConfig mgCfg = SimConfig::intMemMg();
    mgCfg.core.physRegs = 124;
    CoreConfig baseCfg;
    baseCfg.physRegs = 124;

    CoreStats base = runCore(*bk.program, nullptr, baseCfg, bk.setup);
    CoreStats mg = runMg(bk, mgCfg);
    EXPECT_GT(mg.ipc(), base.ipc());
}

TEST(Amplification, CompensatesForNarrowPipeline)
{
    // Figure 8 bottom: a 4-wide machine with mini-graphs recovers
    // bandwidth versus the 4-wide baseline.
    BoundKernel bk = bindKernel(findKernel("dijkstra"));
    auto narrow = [](CoreConfig &c) {
        c.fetchWidth = c.renameWidth = c.issueWidth = c.commitWidth = 4;
    };
    CoreConfig base4;
    narrow(base4);
    SimConfig mg4 = SimConfig::intMemMg();
    narrow(mg4.core);

    CoreStats b = runCore(*bk.program, nullptr, base4, bk.setup);
    CoreStats m = runMg(bk, mg4);
    EXPECT_GT(m.ipc(), b.ipc());
}

TEST(Amplification, HidesSchedulingLoopLatency)
{
    // Mini-graph execution is pre-scheduled, so a 2-cycle scheduler
    // hurts the mini-graph machine less than the baseline (the
    // macro-op scheduling comparison, Section 6.3).
    BoundKernel bk = bindKernel(findKernel("gsm.lpc"));
    CoreConfig base1, base2;
    base2.schedulerCycles = 2;
    SimConfig mg2 = SimConfig::intMemMg();
    mg2.core.schedulerCycles = 2;

    CoreStats b1 = runCore(*bk.program, nullptr, base1, bk.setup);
    CoreStats b2 = runCore(*bk.program, nullptr, base2, bk.setup);
    CoreStats m2 = runMg(bk, mg2);
    double baseLoss = b2.ipc() / b1.ipc();
    double mgVsSlow = m2.ipc() / b2.ipc();
    EXPECT_LT(baseLoss, 1.0);    // pipelined scheduler costs
    EXPECT_GT(mgVsSlow, 1.0);    // mini-graphs claw it back
}

TEST(Policies, DisallowingExternalSerializationReducesCoverage)
{
    BoundKernel bk = bindKernel(findKernel("adpcm.enc"));
    BlockProfile prof = collectProfile(*bk.program, bk.setup, 400000);
    MgtMachine machine;
    SelectionPolicy all;
    SelectionPolicy strict;
    strict.allowExternallySerial = false;

    Cfg cfg(*bk.program);
    Liveness live(cfg);
    Selection a = selectMiniGraphs(cfg, live, prof, all, machine);
    Selection s = selectMiniGraphs(cfg, live, prof, strict, machine);
    EXPECT_LT(s.coverage(cfg, prof) - 1e-12, a.coverage(cfg, prof));
    for (const auto &si : s.instances)
        EXPECT_FALSE(si.cand.externallySerial);
}

TEST(Policies, DisallowingInteriorLoadsEliminatesHandleReplays)
{
    BoundKernel bk = bindKernel(findKernel("mcf"));
    SimConfig unrestricted = SimConfig::intMemMg();
    SimConfig noReplay = SimConfig::intMemMg();
    noReplay.policy.allowInteriorLoads = false;

    CoreStats u = runMg(bk, unrestricted);
    CoreStats n = runMg(bk, noReplay);
    // mcf misses constantly: unrestricted mini-graphs replay.
    EXPECT_GT(u.handleReplays, 0u);
    EXPECT_EQ(n.handleReplays, 0u);
}

TEST(Collapsing, LatencyReductionHelpsSerialCode)
{
    // Pair-wise collapsing executes 2-insn graphs in one cycle; on a
    // dependence-chain workload it must beat plain pipelines.
    BoundKernel bk = bindKernel(findKernel("sha"));
    CoreStats plain = runMg(bk, SimConfig::intMg(false));
    CoreStats coll = runMg(bk, SimConfig::intMg(true));
    EXPECT_GE(coll.ipc(), plain.ipc());
}

TEST(Handles, HoldOneLsqEntryAtMost)
{
    // An integer-memory mini-graph with its single allowed memory op
    // retires through the LSQ as one entry; a run whose handles all
    // contain memory ops must commit at least as many LSQ ops as
    // handles and never deadlock on a tiny LSQ.
    BoundKernel bk = bindKernel(findKernel("rtr"));
    SimConfig sc = SimConfig::intMemMg();
    sc.core.lsqSize = 8;
    CoreStats st = runMg(bk, sc);
    EXPECT_GT(st.committedHandles, 0u);
    EXPECT_GT(st.ipc(), 0.0);
}

} // namespace
} // namespace mg
