/**
 * @file
 * Sampled simulation: the degenerate-parameter bit-identity contract,
 * the stated accuracy bound on the tier-1 kernel set, the speed proxy
 * (detailed-work fraction), the engine's cross-config summary sharing,
 * and the proof that lets a run skip a seeded pass.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "assembler/assembler.hh"
#include "engine/engine.hh"
#include "workloads/suites.hh"

using namespace mg;

namespace {

/** Default sampled configuration derived from @p cfg. */
SimConfig
sampled(SimConfig cfg)
{
    cfg.sampling.enabled = true;
    return cfg;
}

/** Phase-mixed synthetic kernel, ~617k work units: long enough to
 *  sample genuinely (the short-run degrade threshold at default
 *  parameters is ~400k) and heterogeneous enough — an ALU burst and a
 *  store-walk per outer iteration — that per-interval IPC carries
 *  real variance for the CI machinery to chew on. */
const Program &
syntheticLongProgram()
{
    static Program p = assemble(R"(
        .text
main:
        li r20, 900
outer:
        li r1, 120
alu:
        addq r2, 1, r2
        mulq r2, 3, r3
        subq r1, 1, r1
        bgt r1, alu
        lda r5, sbuf
        li r6, 40
memp:
        ldq r7, 0(r5)
        addq r7, 1, r7
        stq r7, 0(r5)
        addq r5, 64, r5
        subq r6, 1, r6
        bgt r6, memp
        subq r20, 1, r20
        bgt r20, outer
        halt
        .data
sbuf:   .space 2560
    )");
    return p;
}

const SetupFn noSetup = [](Emulator &) {};

} // namespace

TEST(Sampling, WholeProgramIntervalBitIdentical)
{
    // An interval covering the whole program leaves no room to
    // fast-forward: runSampled must degenerate to the plain detailed
    // run, bit for bit.
    for (const char *name : {"crc", "adpcm.enc"}) {
        BoundKernel bk = bindKernel(findKernel(name));
        for (SimConfig cfg :
             {SimConfig::baseline(), SimConfig::intMemMg()}) {
            ExperimentEngine eng(1);
            EngineWorkload w = workload(bk);
            CoreStats full = eng.cell(w, cfg);

            SimConfig sc = sampled(cfg);
            sc.sampling.interval = 1ull << 40;
            SampledStats ss = eng.cellSampled(w, sc);
            EXPECT_TRUE(ss.exact) << name;
            EXPECT_EQ(ss.est, full) << name << "/" << cfg.name;
        }
    }
}

TEST(Sampling, TierOneIpcWithinStatedBound)
{
    // Stated bound for the default sampled configuration on the
    // tier-1 kernels: every kernel's IPC within 2% of the full run.
    // Ref-scale kernels are short (50k-300k units), so most degrade
    // to exact full simulation (the fix for the old 3-8% ref-tier
    // tail on drr/bitcount/rgb2gray); the few above the degrade
    // threshold must still measure within the bound.
    ExperimentEngine eng(0);
    for (SimConfig cfg : {SimConfig::baseline(), SimConfig::intMemMg()}) {
        for (const BoundKernel &bk : bindAll()) {
            EngineWorkload w = workload(bk);
            double full = eng.cell(w, cfg).ipc();
            SampledStats ss = eng.cellSampled(w, sampled(cfg));
            ASSERT_GT(full, 0.0);
            double err = std::abs(ss.est.ipc() - full) / full;
            EXPECT_LE(err, 0.02)
                << bk.kernel->name << "/" << cfg.name
                << " sampled " << ss.est.ipc() << " vs full " << full;
            // At default parameters every ref kernel sits under the
            // short-run threshold, so the whole tier is bit-exact by
            // contract — sampling a 33-period run was measured to pay
            // 3-8% error (52% on reed/int-mem, whose store-set
            // serialization is never fully discovered) for under-2x
            // wall-clock. The genuinely sampled path is exercised on
            // the long/huge tiers.
            EXPECT_TRUE(ss.exact) << bk.kernel->name;
            EXPECT_EQ(err, 0.0) << bk.kernel->name;
        }
    }
}

TEST(Sampling, FastForwardThenRunCompletesTheProgram)
{
    // Warm-through fast-forward on a virtual clock, as runSampled
    // drives it: the skipped work never commits, the tail runs
    // normally, and the drained machine ends with a full free list.
    BoundKernel bk = bindKernel(findKernel("crc"));
    Emulator probe(*bk.program);
    bk.setup(probe);
    std::uint64_t total = probe.run().dynWork;

    Core core(*bk.program, nullptr, CoreConfig{});
    bk.setup(core.oracle());
    int freeAtReset = core.regFreeCount();
    core.fastForward(total / 2, /*ipcEst=*/2.0);
    std::uint64_t skipped = core.oracle().dynWork();
    EXPECT_GE(skipped, total / 2);
    CoreStats tail = core.run();
    EXPECT_EQ(skipped + tail.committedWork, total);
    EXPECT_EQ(core.regFreeCount(), freeAtReset);
}

TEST(Sampling, FastForwardSkipsMostWork)
{
    // Speed proxy on an M-scale kernel (ref bitcount now degrades to
    // exact under the short-run threshold): most of the run is never
    // simulated cycle-accurately, and several intervals were measured.
    BoundKernel bk = bindKernel(findKernel("bitcount"), Scale::Long);
    ExperimentEngine eng(1);
    EngineWorkload w = workload(bk);
    SampledStats ss = eng.cellSampled(w, sampled(SimConfig::baseline()));
    EXPECT_FALSE(ss.exact);
    EXPECT_GT(ss.ffWork, ss.totalWork / 3);
    EXPECT_LE(ss.detailedWork, (2 * ss.totalWork) / 3);
    EXPECT_GE(ss.intervals, 3u);
    EXPECT_EQ(ss.est.committedWork, ss.totalWork);
}

TEST(Sampling, SummarySharedAcrossConfigs)
{
    // The functional summary is keyed by the executed binary (the
    // workload plus a hash of the text and template bodies), not by
    // the machine: two core configurations running the same program
    // share one summary artifact.
    BoundKernel bk = bindKernel(findKernel("bitcount"));
    ExperimentEngine eng(1);
    EngineWorkload w = workload(bk);

    SimConfig a = sampled(SimConfig::baseline());
    SimConfig b = a;
    b.core.robSize = 64;
    eng.cellSampled(w, a);
    eng.cellSampled(w, b);

    EngineCounters c = eng.counters();
    EXPECT_EQ(c.summaryComputes, 1u);
    EXPECT_EQ(c.summaryHits, 1u);
    EXPECT_EQ(c.sampledComputes, 2u);
}

TEST(Sampling, SummarySharedAcrossCollapsing)
{
    // Collapsing changes only the MGT's latencies: int and int+coll
    // rewrite to one binary, so they share one pre-pass, and each
    // cell's stats are bit-identical to a separate engine's.
    EngineWorkload w = workload(bindKernel(findKernel("bitcount")));
    // A grid fine enough that the ref-scale kernel really samples.
    auto fine = [](SimConfig cfg) {
        cfg = sampled(cfg);
        cfg.sampling.interval = 200;
        cfg.sampling.period = 2400;
        cfg.sampling.warmup = 400;
        return cfg;
    };
    SimConfig plain = fine(SimConfig::intMg());
    SimConfig coll = fine(SimConfig::intMg(true));

    ExperimentEngine eng(1);
    EXPECT_EQ(eng.prepare(w, plain)->program.text,
              eng.prepare(w, coll)->program.text);
    SampledStats a = eng.cellSampled(w, plain);
    SampledStats b = eng.cellSampled(w, coll);
    EngineCounters c = eng.counters();
    EXPECT_EQ(c.summaryComputes, 1u);
    EXPECT_EQ(c.summaryHits, 1u);
    EXPECT_EQ(c.sampledComputes, 2u);
    ASSERT_FALSE(a.exact) << "kernel too small to exercise sampling";

    const std::pair<const SimConfig *, const SampledStats *> cells[] = {
        {&plain, &a}, {&coll, &b}};
    for (const auto &[cfg, shared] : cells) {
        SampledStats alone = ExperimentEngine(1).cellSampled(w, *cfg);
        EXPECT_EQ(shared->est, alone.est);
        EXPECT_EQ(shared->intervals, alone.intervals);
        EXPECT_EQ(shared->measuredCycles, alone.measuredCycles);
        EXPECT_EQ(shared->ipcHat, alone.ipcHat);
        EXPECT_EQ(shared->ipcRelCi95, alone.ipcRelCi95);
    }
}

TEST(Sampling, Figure6MatrixRunsOnePrePassPerDistinctBinary)
{
    // 23 kernels × 5 columns execute 67 distinct binaries: every
    // +coll column reuses its sibling's binary, and on bitcount and
    // g721.enc int-mem selects no memory mini-graph and rewrites to
    // the int binary.
    SweepSpec spec;
    spec.title = "fig6 summaries";
    spec.workloads = suiteWorkloads();
    spec.columns = standardColumns();
    for (SweepColumn &col : spec.columns)
        col.config = sampled(col.config);
    ExperimentEngine eng(2);
    SweepResult r = eng.sweep(spec);
    for (const SweepCell &cell : r.cells)
        EXPECT_EQ(cell.outcome, CellOutcome::Ok) << cell.error;
    EngineCounters c = eng.counters();
    EXPECT_EQ(r.cells.size(), 115u);
    EXPECT_EQ(c.sampledComputes, 115u);
    EXPECT_EQ(c.summaryComputes, 67u);
    EXPECT_EQ(c.summaryHits, 48u);
}

TEST(Sampling, SweepReportsSamplingMetadata)
{
    BoundKernel bk = bindKernel(findKernel("bitcount"));
    SweepSpec spec;
    spec.title = "sampling metadata";
    spec.workloads = {workload(bk)};
    spec.columns.push_back({"base", SimConfig::baseline(), true});
    spec.columns.push_back(
        {"base-sampled", sampled(SimConfig::baseline()), true});
    spec.baselineColumn = 0;

    ExperimentEngine eng(1);
    SweepResult r = eng.sweep(spec);
    EXPECT_FALSE(r.at(0, 0).sampledRun);
    EXPECT_TRUE(r.at(0, 1).sampledRun);

    std::string json = sweepJson(r, "sampling_meta");
    EXPECT_NE(json.find("\"sampled\": true"), std::string::npos);
    EXPECT_NE(json.find("\"ipc_ci95_rel\""), std::string::npos);
}

TEST(Sampling, MeasurementPhaseSaltIsDeterministicAndAccurate)
{
    // The sampling-alias fix: grid-aligned measurement spans sample
    // one fixed phase of any rate oscillation commensurate with the
    // period (the jpeg.dct@huge ~2% systematic bias), so phaseSalt
    // hashes a per-chunk span offset instead. Contract: any fixed
    // salt is fully deterministic, and no salt choice may push this
    // kernel outside the stated 2% bound. Salt 0 is one more ordinary
    // seed here, not the grid-aligned placement it once selected.
    const Program &p = syntheticLongProgram();
    SimConfig cfg = SimConfig::baseline();
    CoreStats full = runCell(p, nullptr, cfg, noSetup);

    SimConfig sc = sampled(cfg);
    SampleSummary sum = collectSampleSummary(p, nullptr, noSetup,
                                             sc.sampling);
    auto runAt = [&](std::uint64_t salt) {
        SimConfig c = sc;
        c.sampling.phaseSalt = salt;
        return runCellSampled(p, nullptr, c, noSetup, sum);
    };

    SampledStats zero = runAt(0);
    SampledStats a = runAt(0x9e3779b97f4a7c15ull);
    SampledStats a2 = runAt(0x9e3779b97f4a7c15ull);
    SampledStats b = runAt(0x5bf03635ull);

    EXPECT_FALSE(zero.exact);
    EXPECT_EQ(a.est, a2.est) << "salted placement not deterministic";
    EXPECT_EQ(a.intervals, a2.intervals);

    double fullIpc = full.ipc();
    ASSERT_GT(fullIpc, 0.0);
    for (const SampledStats *s : {&zero, &a, &b}) {
        EXPECT_LE(std::abs(s->est.ipc() - fullIpc) / fullIpc, 0.02)
            << "salt variant missed the accuracy bound: sampled "
            << s->est.ipc() << " vs full " << fullIpc;
        EXPECT_EQ(s->est.committedWork, full.committedWork);
    }
}

TEST(Sampling, ExhaustedDutyBudgetFallsBackToWholeChunks)
{
    // The CI-refinement fix: when the duty budget runs out before a
    // cluster's error bound converges, the run used to just stop
    // sampling it — freezing a bad estimate made from floored spans.
    // Now a grossly unconverged cluster keeps sampling past the
    // budget with *whole-chunk* measurements (averaging the chunk's
    // full intra-phase swing). An unreachable targetCi plus a starved
    // duty budget forces that path: the run must keep refining well
    // beyond the base plan and still land inside the bound.
    const Program &p = syntheticLongProgram();
    SimConfig cfg = SimConfig::baseline();
    CoreStats full = runCell(p, nullptr, cfg, noSetup);

    SimConfig sc = sampled(cfg);
    sc.sampling.targetCi = 1e-9;    // never converges
    sc.sampling.maxDuty = 0.08;     // budget gone after the base plan
    SampleSummary sum = collectSampleSummary(p, nullptr, noSetup,
                                             sc.sampling);
    SampledStats s = runCellSampled(p, nullptr, sc, noSetup, sum);

    EXPECT_FALSE(s.exact);
    // Base plan alone is three quantile samples per cluster; the
    // over-budget whole-chunk fallback must have kept going.
    EXPECT_GE(s.intervals, 10u)
        << "over-budget refinement never fired";
    double fullIpc = full.ipc();
    ASSERT_GT(fullIpc, 0.0);
    EXPECT_LE(std::abs(s.est.ipc() - fullIpc) / fullIpc, 0.025)
        << "sampled " << s.est.ipc() << " vs full " << fullIpc;
}

TEST(Sampling, SkippedSeededPassWouldRetraceDiscovery)
{
    // runCellSampled skips the seeded final pass when
    // Core::seededRunRetraces proves it would repeat the discovery
    // pass. Hold that proof against the seeded pass itself, on cells
    // that go both ways.
    int retraced = 0, diverged = 0;
    for (const char *name : {"mcf", "gsm.lpc", "reed", "sha"}) {
        BoundKernel bk = bindKernel(findKernel(name));
        SimConfig cfg = sampled(SimConfig::intMemMg());
        cfg.sampling.interval = 200;
        cfg.sampling.period = 2400;
        cfg.sampling.warmup = 400;
        BlockProfile prof =
            collectProfile(*bk.program, bk.setup, cfg.profileBudget);
        PreparedMg prep = prepareMiniGraphs(*bk.program, prof, cfg.policy,
                                            cfg.machine, cfg.compress);
        SampleSummary sum = collectSampleSummary(
            prep.program, &prep.table, bk.setup, cfg.sampling);
        auto fresh = [&] {
            auto c = std::make_unique<Core>(prep.program, &prep.table,
                                            cfg.core);
            bk.setup(c->oracle());
            return c;
        };
        auto disc = fresh();
        SampledStats d = disc->runSampled(cfg.sampling, sum);
        std::vector<std::pair<Addr, Addr>> pairs = disc->violPairsSorted();
        ASSERT_FALSE(d.exact) << name;
        ASSERT_FALSE(pairs.empty()) << name << " discovers no violations";
        SampledStats s =
            fresh()->runSampled(cfg.sampling, sum, ~0ull, &pairs);
        if (!fresh()->seededRunRetraces(*disc, pairs)) {
            ++diverged;
            continue;
        }
        ++retraced;
        EXPECT_EQ(s.est, d.est) << name;
        EXPECT_EQ(s.intervals, d.intervals) << name;
        EXPECT_EQ(s.ipcRelCi95, d.ipcRelCi95) << name;
        EXPECT_EQ(s.ffWork, d.ffWork) << name;
        EXPECT_EQ(s.detailedWork, d.detailedWork) << name;
    }
    EXPECT_GT(retraced, 0);
    EXPECT_GT(diverged, 0);
}
