/**
 * @file
 * Critical-path analyzer battery (labels: unit, critpath).
 *
 * Three layers, mirroring the analyzer's three walks:
 *
 *  - Trace-ring mechanics: capacity, wrap, oldest-first ordering, and
 *    the wrapped-window contract a traced runCell surfaces as
 *    traceWrapped.
 *  - Hand-built micro-programs whose bottleneck is known by
 *    construction: the attribution walk must telescope exactly (the
 *    breakdown is an accounting identity, not an estimate) and charge
 *    the dominant share to the category the program was built to
 *    stress.
 *  - Whole-kernel differential: the pure forward model re-derives the
 *    cycle count from modeled edges alone, and must land within 2% of
 *    the recorded count on a pinned ref-kernel set; the what-if walk
 *    must reproduce the recorded count exactly under an identity spec
 *    and respond monotonically to widening/narrowing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "analysis/critpath.hh"
#include "assembler/assembler.hh"
#include "sim/simulator.hh"
#include "uarch/trace.hh"
#include "workloads/suites.hh"

namespace mg {
namespace {

const SetupFn noSetup = [](Emulator &) {};

/** The critical-path summary of one traced runCell. */
CritPathSummary
traceCell(const Program &p, const PreparedMg *prep, const SimConfig &cfg,
          const SetupFn &setup)
{
    CritPathSummary s;
    runCell(p, prep, cfg, setup, nullptr, &s);
    return s;
}

/** Traced baseline analysis of an assembled micro-program. */
CritPathSummary
analyzeAsm(const char *src, const std::string &whatIf = "")
{
    Program p = assemble(src);
    SimConfig cfg = SimConfig::baseline();
    cfg.critpath = true;
    cfg.whatIf = whatIf;
    return traceCell(p, nullptr, cfg, noSetup);
}

std::uint64_t
breakdownSum(const CritPathSummary &s)
{
    std::uint64_t sum = 0;
    for (int c = 0; c < cpCatCount; ++c)
        sum += s.breakdown[c];
    return sum;
}

// ------------------------------------------------------------------
// Trace ring.
// ------------------------------------------------------------------

TEST(TraceRing, KeepsNewestEventsOldestFirst)
{
    TraceBuffer tb(4);
    EXPECT_EQ(tb.capacity(), 4u);
    for (std::uint64_t s = 0; s < 3; ++s) {
        TraceEvent e;
        e.seq = s;
        tb.push(e);
    }
    EXPECT_EQ(tb.size(), 3u);
    EXPECT_EQ(tb.totalPushed(), 3u);
    EXPECT_FALSE(tb.wrapped());
    EXPECT_EQ(tb.at(0).seq, 0u);
    EXPECT_EQ(tb.at(2).seq, 2u);

    for (std::uint64_t s = 3; s < 11; ++s) {
        TraceEvent e;
        e.seq = s;
        tb.push(e);
    }
    EXPECT_EQ(tb.size(), 4u);
    EXPECT_EQ(tb.totalPushed(), 11u);
    EXPECT_TRUE(tb.wrapped());
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(tb.at(i).seq, 7 + i) << "slot " << i;

    tb.clear();
    EXPECT_EQ(tb.size(), 0u);
    EXPECT_FALSE(tb.wrapped());
}

TEST(TraceRing, ZeroCapacityDegradesToOne)
{
    TraceBuffer tb(0);
    EXPECT_EQ(tb.capacity(), 1u);
    TraceEvent e;
    e.seq = 42;
    tb.push(e);
    tb.push(e);
    EXPECT_EQ(tb.size(), 1u);
    EXPECT_TRUE(tb.wrapped());
}

TEST(TraceRing, StageDeltaAccessors)
{
    TraceEvent e;
    e.fetchAt = 100;
    e.dispatchD = 8;
    e.issueD = 10;
    e.completeD = 13;
    e.commitD = 15;
    EXPECT_EQ(e.dispatchAt(), 108u);
    EXPECT_EQ(e.issueAt(), 110u);
    EXPECT_EQ(e.completeAt(), 113u);
    EXPECT_EQ(e.commitAt(), 115u);
    EXPECT_EQ(e.memExecAt(), 0u);   // 0 delta = no memory access
    e.memExecD = 12;
    EXPECT_EQ(e.memExecAt(), 112u);
}

TEST(TraceRing, EmptyTraceYieldsAbsentSummary)
{
    TraceBuffer tb(16);
    CritPathSummary s = analyzeCritPath(tb, CoreConfig{});
    EXPECT_FALSE(s.present);
}

// ------------------------------------------------------------------
// Micro-programs with a bottleneck known by construction.
// ------------------------------------------------------------------

TEST(CritPathMicro, SerialMultiplyChainIsExecutionBound)
{
    // Every mulq feeds the next, so the run is one long latency chain:
    // execution latency plus register-dependence wakeup must own the
    // large majority of all cycles.
    CritPathSummary s = analyzeAsm(R"(
        .text
main:
        li r1, 3
        li r10, 300
chain:
        mulq r1, r1, r1
        mulq r1, r1, r1
        mulq r1, r1, r1
        mulq r1, r1, r1
        subq r10, 1, r10
        bgt r10, chain
        halt
    )");
    ASSERT_TRUE(s.present) << s.error;
    EXPECT_TRUE(s.error.empty()) << s.error;
    EXPECT_EQ(breakdownSum(s), s.actualCycles);
    EXPECT_FALSE(s.traceWrapped);
    EXPECT_GT(s.tracedSlots, 1500u);
    double chainShare = s.share(CpCat::exec) + s.share(CpCat::data);
    EXPECT_GT(chainShare, 0.60)
        << "exec " << s.share(CpCat::exec)
        << " data " << s.share(CpCat::data);
    EXPECT_LT(s.share(CpCat::memory), 0.05);
}

TEST(CritPathMicro, IndependentStreamIsBandwidthBound)
{
    // Six independent single-cycle ops per loop body saturate the
    // 6-wide machine: in-order supply and retirement bandwidth
    // (fetch/window/commit), not data dependences, must dominate.
    CritPathSummary s = analyzeAsm(R"(
        .text
main:
        li r10, 300
indep:
        addq r1, 1, r2
        addq r1, 2, r3
        addq r1, 3, r4
        addq r1, 4, r5
        addq r1, 5, r6
        addq r1, 6, r7
        subq r10, 1, r10
        bgt r10, indep
        halt
    )");
    ASSERT_TRUE(s.present) << s.error;
    EXPECT_EQ(breakdownSum(s), s.actualCycles);
    double bwShare = s.share(CpCat::fetch) + s.share(CpCat::window) +
        s.share(CpCat::commit);
    double chainShare = s.share(CpCat::exec) + s.share(CpCat::data);
    EXPECT_GT(bwShare, 0.50)
        << "fetch " << s.share(CpCat::fetch)
        << " window " << s.share(CpCat::window)
        << " commit " << s.share(CpCat::commit);
    EXPECT_LT(chainShare, 0.35);
}

TEST(CritPathMicro, PointerChaseIsMemoryBound)
{
    // A ring of pointers chased serially: every load's address comes
    // from the previous load, so L1 latency accumulates along one
    // unbreakable chain and the memory category must dominate.
    CritPathSummary s = analyzeAsm(R"(
        .text
main:
        lda r1, buf
        li r2, 64             # nodes in the ring
        mov r1, r3
init:
        addq r3, 64, r4
        stq r4, 0(r3)
        mov r4, r3
        subq r2, 1, r2
        bgt r2, init
        stq r1, 0(r3)         # close the ring
        li r5, 2000
        mov r1, r6
chase:
        ldq r6, 0(r6)
        subq r5, 1, r5
        bgt r5, chase
        halt
        .data
buf:    .space 4224           # 65 nodes x 64 B stride
    )");
    ASSERT_TRUE(s.present) << s.error;
    EXPECT_EQ(breakdownSum(s), s.actualCycles);
    EXPECT_GT(s.share(CpCat::memory), 0.40)
        << "memory " << s.share(CpCat::memory);
}

TEST(CritPathMicro, DataDependentBranchesChargeBpred)
{
    // An LFSR drives unlearnable branch directions; mispredict
    // refetch bubbles must show up under bpred (this core's resolve
    // path costs a single fetch bubble per direction mispredict, so
    // the share is real but modest).
    CritPathSummary s = analyzeAsm(R"(
        .text
main:
        li r1, 0xace1
        li r10, 1500
lfsr:
        and r1, 1, r2
        srl r1, 1, r1
        beq r2, even
        li r3, 0xb400
        xor r1, r3, r1
even:
        subq r10, 1, r10
        bgt r10, lfsr
        halt
    )");
    ASSERT_TRUE(s.present) << s.error;
    EXPECT_EQ(breakdownSum(s), s.actualCycles);
    EXPECT_GT(s.breakdown[static_cast<int>(CpCat::bpred)], 100u);
}

// ------------------------------------------------------------------
// Whole-kernel walks: telescoping, differential bound, what-if.
// ------------------------------------------------------------------

TEST(CritPath, BreakdownTelescopesOnRefKernels)
{
    // The attribution identity must hold on real kernels under both
    // machine shapes (the mini-graph config exercises the handle/mg
    // edges), and tracing must never perturb the timing model: the
    // traced run's stats are bit-identical to the untraced cell's.
    for (const char *name : {"gzip", "adpcm.dec", "crc"}) {
        BoundKernel bk = bindKernel(findKernel(name));
        for (SimConfig cfg :
             {SimConfig::baseline(), SimConfig::intMemMg()}) {
            cfg.critpath = true;
            CoreStats plain;
            const PreparedMg *prep = nullptr;
            PreparedMg prepStore;
            if (cfg.useMiniGraphs) {
                BlockProfile prof = collectProfile(
                    *bk.program, bk.setup, cfg.profileBudget);
                prepStore = prepareMiniGraphs(*bk.program, prof,
                                              cfg.policy, cfg.machine,
                                              cfg.compress);
                prep = &prepStore;
            }
            plain = runCell(*bk.program, prep, cfg, bk.setup);
            CritPathSummary s;
            CoreStats traced = runCell(*bk.program, prep, cfg, bk.setup,
                                       nullptr, &s);
            EXPECT_EQ(traced, plain) << name << "/" << cfg.name
                                     << ": tracing perturbed the run";
            ASSERT_TRUE(s.present) << name << "/" << cfg.name;
            EXPECT_TRUE(s.error.empty()) << s.error;
            EXPECT_EQ(breakdownSum(s), s.actualCycles)
                << name << "/" << cfg.name;
            // actualCycles is the first-fetch-to-last-commit span:
            // it excludes only the cold-start prologue before the
            // first fetch (icache refill), so it never exceeds the
            // run's cycle count and tracks it closely.
            EXPECT_LE(s.actualCycles, plain.cycles)
                << name << "/" << cfg.name;
            EXPECT_LE(plain.cycles - s.actualCycles, 1000u)
                << name << "/" << cfg.name;
            EXPECT_EQ(s.tracedSlots, plain.committedSlots);
            EXPECT_EQ(s.tracedWork, plain.committedWork);
            EXPECT_GT(s.modeledCycles, 0u);
            if (cfg.useMiniGraphs) {
                EXPECT_GT(s.breakdown[static_cast<int>(CpCat::mg)], 0u)
                    << name << ": mini-graph config attributed no "
                              "cycles to handles";
            }
        }
    }
}

TEST(CritPath, BoundedRingAnalyzesTheNewestWindow)
{
    BoundKernel bk = bindKernel(findKernel("crc"));
    SimConfig cfg = SimConfig::baseline();
    cfg.critpath = true;
    cfg.traceDepth = 2048;
    CritPathSummary s = traceCell(*bk.program, nullptr, cfg, bk.setup);
    ASSERT_TRUE(s.present);
    EXPECT_TRUE(s.traceWrapped);
    EXPECT_EQ(s.tracedSlots, 2048u);
    // The identity holds over the window's own span too.
    EXPECT_EQ(breakdownSum(s), s.actualCycles);
}

class CritPathDifferential : public ::testing::TestWithParam<const char *>
{
};

TEST_P(CritPathDifferential, ForwardModelWithinTwoPercent)
{
    // The acceptance bound: the pure forward model — recorded
    // execution latencies, modeled structure, no recorded stage
    // times — must re-derive the cycle count within 2% on this
    // pinned ref-kernel set (all measured well inside 1%; see
    // docs/EXPERIMENTS.md for the corpus-wide table).
    BoundKernel bk = bindKernel(findKernel(GetParam()));
    SimConfig cfg = SimConfig::baseline();
    cfg.critpath = true;
    CritPathSummary s = traceCell(*bk.program, nullptr, cfg, bk.setup);
    ASSERT_TRUE(s.present);
    double err = std::abs(static_cast<double>(s.modeledCycles) -
                          static_cast<double>(s.actualCycles)) /
        static_cast<double>(s.actualCycles);
    EXPECT_LE(err, 0.02)
        << GetParam() << ": modeled " << s.modeledCycles
        << " vs actual " << s.actualCycles;
}

const char *const differentialKernels[] = {
    "twolf", "parser", "mcf", "drr", "gap", "adpcm.enc", "gzip",
    "stringsearch",
};

INSTANTIATE_TEST_SUITE_P(PinnedKernels, CritPathDifferential,
                         ::testing::ValuesIn(differentialKernels),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n) {
                                 if (c == '.')
                                     c = '_';
                             }
                             return n;
                         });

TEST(CritPathWhatIf, IdentitySpecReproducesRecordedCycles)
{
    // The what-if walk is residual-anchored: re-weighting with the
    // traced configuration's own parameters must reproduce the
    // recorded cycle count exactly, not approximately.
    BoundKernel bk = bindKernel(findKernel("gzip"));
    SimConfig cfg = SimConfig::baseline();
    cfg.critpath = true;
    CoreConfig &c = cfg.core;
    std::string identity = "fetchwidth=" +
        std::to_string(c.fetchWidth) +
        ",renamewidth=" + std::to_string(c.renameWidth) +
        ",commitwidth=" + std::to_string(c.commitWidth) +
        ",robsize=" + std::to_string(c.robSize) +
        ",fetchqueue=" + std::to_string(c.fetchQueueSize) +
        ",frontend=" + std::to_string(c.frontendDepth) +
        ",regreadlat=" + std::to_string(c.regReadLat) +
        ",sched=" + std::to_string(c.schedulerCycles) +
        ",l1dlat=" + std::to_string(c.mem.l1dLat);
    cfg.whatIf = identity;
    CritPathSummary s = traceCell(*bk.program, nullptr, cfg, bk.setup);
    ASSERT_TRUE(s.present);
    EXPECT_TRUE(s.error.empty()) << s.error;
    EXPECT_EQ(s.whatIf, identity);
    EXPECT_EQ(s.whatIfCycles, s.actualCycles);
}

TEST(CritPathWhatIf, MonotoneUnderWideningAndNarrowing)
{
    // Every node time is a max() over monotone candidates, so
    // widening a resource or shortening a latency can never lengthen
    // the predicted path, and narrowing can never shorten it.
    BoundKernel bk = bindKernel(findKernel("adpcm.dec"));
    SimConfig cfg = SimConfig::baseline();
    cfg.critpath = true;

    auto whatIfCycles = [&](const std::string &spec) {
        SimConfig c = cfg;
        c.whatIf = spec;
        CritPathSummary s = traceCell(*bk.program, nullptr, c, bk.setup);
        EXPECT_TRUE(s.present && s.error.empty())
            << spec << ": " << s.error;
        return s.whatIfCycles;
    };

    SimConfig base = cfg;
    CritPathSummary rec = traceCell(*bk.program, nullptr, base, bk.setup);
    ASSERT_TRUE(rec.present);

    // regreadlat is the bypass overlap a consumer hides under its
    // producer's completion, so *raising* it widens (more overlap)
    // and lowering it narrows — opposite to a plain latency.
    for (const char *widen :
         {"fetchwidth=12", "renamewidth=12", "commitwidth=12",
          "robsize=512", "fetchqueue=96", "frontend=2", "regreadlat=4",
          "l1dlat=1", "fetchwidth=12,robsize=512,l1dlat=1"}) {
        EXPECT_LE(whatIfCycles(widen), rec.actualCycles) << widen;
    }
    for (const char *narrow :
         {"fetchwidth=2", "renamewidth=2", "commitwidth=2",
          "robsize=16", "fetchqueue=4", "frontend=16", "regreadlat=0",
          "l1dlat=8"}) {
        EXPECT_GE(whatIfCycles(narrow), rec.actualCycles) << narrow;
    }
    // A strict narrowing must actually bite: a 2-wide frontend cannot
    // sustain this kernel's recorded throughput.
    EXPECT_GT(whatIfCycles("fetchwidth=2"), rec.actualCycles);
}

TEST(CritPathWhatIf, SpecParsing)
{
    CpParams p;
    std::string err;
    EXPECT_TRUE(applyWhatIf(p, "fetchwidth=8,l1dlat=4", &err)) << err;
    EXPECT_EQ(p.fetchWidth, 8);
    EXPECT_EQ(p.l1dLat, 4);

    for (const char *bad :
         {"notaknob=3", "fetchwidth", "fetchwidth=", "fetchwidth=abc",
          "fetchwidth=0", "fetchwidth=-2", "=4", ","}) {
        CpParams q;
        std::string e;
        EXPECT_FALSE(applyWhatIf(q, bad, &e)) << bad;
        EXPECT_FALSE(e.empty()) << bad;
    }
}

TEST(CritPathWhatIf, MalformedSpecKeepsBreakdownValid)
{
    // A bad --whatif must not poison the rest of the analysis: the
    // summary is present, carries the parse error, and the breakdown
    // and forward model are still valid.
    CritPathSummary s = analyzeAsm(R"(
        .text
main:
        li r10, 50
loop:
        addq r1, 1, r1
        subq r10, 1, r10
        bgt r10, loop
        halt
    )",
                                   "bogus=1");
    ASSERT_TRUE(s.present);
    EXPECT_FALSE(s.error.empty());
    EXPECT_EQ(s.whatIfCycles, 0u);
    EXPECT_EQ(breakdownSum(s), s.actualCycles);
    EXPECT_GT(s.modeledCycles, 0u);
}

TEST(CritPathWhatIf, AnalyzerAnswersManySpecsFromOneTrace)
{
    // The reusable analyzer is the cheap-question API: one traced run,
    // one graph build, then every spec is a single walk. Its answers
    // must match the one-shot wrapper spec for spec, and a bad spec
    // must fail without poisoning later questions.
    BoundKernel bk = bindKernel(findKernel("gzip"));
    SimConfig cfg = SimConfig::baseline();
    TraceBuffer trace;
    Core core(*bk.program, nullptr, cfg.core);
    core.setTrace(&trace);
    bk.setup(core.oracle());
    core.run();

    CritPathAnalyzer an(trace, cfg.core);
    ASSERT_TRUE(an.summary().present);
    EXPECT_EQ(breakdownSum(an.summary()),
              an.summary().actualCycles);

    for (const char *spec :
         {"robsize=256", "fetchwidth=2", "l1dlat=6",
          "fetchwidth=12,robsize=512"}) {
        std::string err;
        std::uint64_t cycles = an.whatIf(spec, &err);
        EXPECT_TRUE(err.empty()) << spec << ": " << err;
        CritPathSummary one = analyzeCritPath(trace, cfg.core, spec);
        EXPECT_EQ(cycles, one.whatIfCycles) << spec;
    }

    std::string err;
    EXPECT_EQ(an.whatIf("bogus=1", &err), 0u);
    EXPECT_FALSE(err.empty());
    std::uint64_t again = an.whatIf("robsize=256", &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(again,
              analyzeCritPath(trace, cfg.core, "robsize=256")
                  .whatIfCycles);
}

} // namespace
} // namespace mg
