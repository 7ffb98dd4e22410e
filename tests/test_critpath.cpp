/**
 * @file
 * Critical-path analyzer battery (labels: unit, critpath).
 *
 * Three layers, mirroring the analyzer's three walks:
 *
 *  - Trace-ring mechanics: capacity, wrap, oldest-first ordering,
 *    reuse after clear(), capture-time link resolution, and the
 *    wrapped-window contract a traced runCell surfaces as
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
 *    and respond monotonically to widening/narrowing. A golden pins
 *    every summary field on four kernels across ring shapes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

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

/** Push an event tagged (via fetchAt) with @p tag. */
void
pushTagged(TraceBuffer &tb, std::uint64_t tag)
{
    tb.push().fetchAt = tag;
}

TEST(TraceRing, KeepsNewestEventsOldestFirst)
{
    TraceBuffer tb(4);
    EXPECT_EQ(tb.capacity(), 4u);
    for (std::uint64_t s = 1; s <= 3; ++s)
        pushTagged(tb, s);
    EXPECT_EQ(tb.size(), 3u);
    EXPECT_EQ(tb.totalPushed(), 3u);
    EXPECT_FALSE(tb.wrapped());
    EXPECT_EQ(tb.at(0).fetchAt, 1u);
    EXPECT_EQ(tb.at(2).fetchAt, 3u);

    for (std::uint64_t s = 4; s <= 11; ++s)
        pushTagged(tb, s);
    EXPECT_EQ(tb.size(), 4u);
    EXPECT_EQ(tb.totalPushed(), 11u);
    EXPECT_TRUE(tb.wrapped());
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(tb.at(i).fetchAt, 8 + i) << "slot " << i;

    tb.clear();
    EXPECT_EQ(tb.size(), 0u);
    EXPECT_FALSE(tb.wrapped());
    EXPECT_EQ(tb.capacity(), 4u);
}

TEST(TraceRing, FullButNotWrappedAtExactCapacity)
{
    // head == capacity: every event is still held, nothing dropped.
    TraceBuffer tb(4);
    for (std::uint64_t s = 1; s <= 4; ++s)
        pushTagged(tb, s);
    EXPECT_EQ(tb.size(), 4u);
    EXPECT_EQ(tb.totalPushed(), 4u);
    EXPECT_FALSE(tb.wrapped());
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(tb.at(i).fetchAt, 1 + i);
    // The oldest event drops off with the next push.
    pushTagged(tb, 5);
    EXPECT_TRUE(tb.wrapped());
    EXPECT_EQ(tb.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(tb.at(i).fetchAt, 2 + i);
}

TEST(TraceRing, ReuseAfterClearWithADifferentCapacity)
{
    TraceBuffer tb(8);
    for (std::uint64_t s = 1; s <= 20; ++s)
        pushTagged(tb, s);
    ASSERT_TRUE(tb.wrapped());

    // Shrink: the new trace starts empty and holds 3.
    tb.clear(3);
    EXPECT_EQ(tb.capacity(), 3u);
    EXPECT_EQ(tb.size(), 0u);
    EXPECT_EQ(tb.totalPushed(), 0u);
    EXPECT_FALSE(tb.wrapped());
    for (std::uint64_t s = 15; s <= 19; ++s)
        pushTagged(tb, s);
    EXPECT_EQ(tb.size(), 3u);
    EXPECT_EQ(tb.totalPushed(), 5u);
    EXPECT_TRUE(tb.wrapped());
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(tb.at(i).fetchAt, 17 + i);

    // Grow past the old capacity: nothing wraps until 16 are held.
    tb.clear(16);
    for (std::uint64_t s = 1; s <= 16; ++s)
        pushTagged(tb, s);
    EXPECT_FALSE(tb.wrapped());
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(tb.at(i).fetchAt, 1 + i);
    pushTagged(tb, 17);
    EXPECT_TRUE(tb.wrapped());
    EXPECT_EQ(tb.at(0).fetchAt, 2u);
}

TEST(TraceRing, WrapsAroundTheStorageManyTimes)
{
    // Many laps of a ring whose capacity is not a power of two: the
    // held window is always the newest events, oldest first.
    TraceBuffer tb(3000);
    for (std::uint64_t s = 1; s <= 10000; ++s) {
        pushTagged(tb, s);
        std::size_t held =
            static_cast<std::size_t>(std::min<std::uint64_t>(s, 3000));
        ASSERT_EQ(tb.size(), held);
        EXPECT_EQ(tb.at(0).fetchAt, s + 1 - held) << "push " << s;
        EXPECT_EQ(tb.at(held - 1).fetchAt, s) << "push " << s;
    }
    EXPECT_TRUE(tb.wrapped());
    EXPECT_EQ(tb.totalPushed(), 10000u);
    for (std::size_t i = 0; i < 3000; ++i)
        EXPECT_EQ(tb.at(i).fetchAt, 7001 + i);
}

TEST(TraceRing, LinksReachOnlyHeldEvents)
{
    // linkBack turns a push stamp (totalPushed() just after the push)
    // into a backward distance; storeLink does the same for a store
    // noted by seq. Seqs never pushed (squashed), never noted (not a
    // store) or whose events fell off the ring give no link.
    TraceBuffer tb(8);
    EXPECT_EQ(tb.linkBack(0), 0u);
    for (std::uint64_t seq = 1; seq <= 40; ++seq) {
        if (seq % 3 == 0)
            continue;                  // squashed
        tb.push();
        if (seq % 2 == 0)
            tb.noteStore(seq);         // even seqs are stores
    }
    ASSERT_EQ(tb.totalPushed(), 27u);  // seq 40 is stamp 27
    EXPECT_EQ(tb.linkBack(26), 1u);
    EXPECT_EQ(tb.linkBack(20), 7u);
    EXPECT_EQ(tb.linkBack(19), 0u);    // dropped off the ring
    EXPECT_EQ(tb.storeLink(38), 1u);   // stamp 26
    EXPECT_EQ(tb.storeLink(34), 4u);   // stamp 23
    EXPECT_EQ(tb.storeLink(32), 5u);   // stamp 22
    EXPECT_EQ(tb.storeLink(28), 0u);   // stamp 19: dropped
    EXPECT_EQ(tb.storeLink(36), 0u);   // squashed
    EXPECT_EQ(tb.storeLink(37), 0u);   // not a store
    EXPECT_EQ(tb.storeLink(0), 0u);
    EXPECT_EQ(tb.storeLink(42), 0u);   // never retired

    // The store ring grows past its initial size and stays exact, and
    // a cleared trace forgets its stores.
    tb.clear(600);
    for (std::uint64_t i = 1; i <= 1000; ++i) {
        tb.push();
        tb.noteStore(2 * i);
    }
    for (std::uint64_t d = 1; d < 700; ++d)
        EXPECT_EQ(tb.storeLink(2 * (1000 - d)), d < 600 ? d : 0u)
            << "distance " << d;
    tb.clear();
    tb.push();
    EXPECT_EQ(tb.storeLink(1998), 0u);
}

TEST(TraceRing, ZeroCapacityDegradesToOne)
{
    TraceBuffer tb(0);
    EXPECT_EQ(tb.capacity(), 1u);
    pushTagged(tb, 42);
    pushTagged(tb, 43);
    EXPECT_EQ(tb.size(), 1u);
    EXPECT_TRUE(tb.wrapped());
    EXPECT_EQ(tb.at(0).fetchAt, 43u);
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
          "fetchwidth=0", "fetchwidth=-2", "=4", ",",
          // Out of int range: rejected, never wrapped into a field.
          "robsize=4294967297", "robsize=2147483648",
          "robsize=99999999999999999999", "l1dlat=4294967299"}) {
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
    // one attribution walk, then every spec is a single forward walk. Its answers
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


TEST(CritPathWhatIf, TwoAnalyzersOnOneThreadStayIndependent)
{
    // Walk storage is per thread, not per analyzer: interleaved
    // questions to two live analyzers over different traces must
    // each get their own trace's answer.
    SimConfig cfg = SimConfig::baseline();
    auto traced = [&](const char *name, TraceBuffer &trace) {
        BoundKernel bk = bindKernel(findKernel(name));
        Core core(*bk.program, nullptr, cfg.core);
        core.setTrace(&trace);
        bk.setup(core.oracle());
        core.run();
    };
    TraceBuffer ta, tb;
    traced("gzip", ta);
    traced("crc", tb);
    CritPathSummary oneA = analyzeCritPath(ta, cfg.core, "robsize=256");
    CritPathSummary oneB = analyzeCritPath(tb, cfg.core, "robsize=256");

    CritPathAnalyzer a(ta, cfg.core);
    CritPathAnalyzer b(tb, cfg.core);
    EXPECT_EQ(b.whatIf("robsize=256"), oneB.whatIfCycles);
    EXPECT_EQ(a.whatIf("robsize=256"), oneA.whatIfCycles);
    EXPECT_EQ(b.summary().modeledCycles, oneB.modeledCycles);
    EXPECT_EQ(a.summary().modeledCycles, oneA.modeledCycles);
    EXPECT_EQ(b.whatIf("robsize=256"), oneB.whatIfCycles);
    EXPECT_NE(oneA.whatIfCycles, oneB.whatIfCycles);
}

// ------------------------------------------------------------------
// Golden: the analyzer's exact outputs on pinned kernels, under both
// machine shapes, over a complete ring, a wrapped one, one exactly as
// long as the trace, and one between the forward walks' 4096-event
// window and the trace length. gzip and crc link producers 4096 or
// more events back; sha squashes and links loads to stores through
// the store sets. A change to how the trace is captured or walked must
// not move a single cycle.
// ------------------------------------------------------------------

enum class Ring { Default, Wrapped, Exact, Mid };

struct GoldenCell
{
    const char *kernel;
    bool miniGraphs;
    Ring ring;
    std::uint64_t slots, work;
    bool wrapped;
    std::uint64_t actual, modeled, whatIf;
    std::uint64_t breakdown[cpCatCount];
};

const GoldenCell goldenCells[] = {
    {"gzip", false, Ring::Default, 102115u, 102115u, false, 39996u, 39828u, 39825u,
     {34682, 49, 3716, 12, 39, 24, 1474, 0, 0}},
    {"gzip", false, Ring::Wrapped, 2048u, 2048u, true, 822u, 814u, 822u,
     {705, 3, 110, 1, 0, 3, 0, 0, 0}},
    {"gzip", false, Ring::Exact, 102115u, 102115u, false, 39996u, 39828u, 39825u,
     {34682, 49, 3716, 12, 39, 24, 1474, 0, 0}},
    {"gzip", true, Ring::Default, 55395u, 102115u, false, 25177u, 25424u, 23652u,
     {16088, 328, 1081, 97, 128, 0, 6383, 1044, 28}},
    {"gzip", true, Ring::Wrapped, 2048u, 3837u, true, 1012u, 1011u, 973u,
     {549, 23, 61, 9, 6, 0, 298, 45, 21}},
    {"gzip", true, Ring::Exact, 55395u, 102115u, false, 25177u, 25424u, 23652u,
     {16088, 328, 1081, 97, 128, 0, 6383, 1044, 28}},
    {"crc", false, Ring::Default, 53687u, 53687u, false, 36324u, 35425u, 37404u,
     {4817, 233, 30805, 1, 200, 0, 268, 0, 0}},
    {"crc", false, Ring::Wrapped, 2048u, 2048u, true, 1743u, 1626u, 1822u,
     {16, 0, 1258, 1, 200, 0, 268, 0, 0}},
    {"crc", false, Ring::Exact, 53687u, 53687u, false, 36324u, 35425u, 37404u,
     {4817, 233, 30805, 1, 200, 0, 268, 0, 0}},
    {"crc", true, Ring::Default, 28503u, 53687u, false, 45396u, 45366u, 52594u,
     {3572, 663, 0, 0, 0, 0, 33960, 7201, 0}},
    {"crc", true, Ring::Wrapped, 2048u, 4503u, true, 5018u, 4668u, 5836u,
     {49, 0, 1, 0, 0, 0, 3840, 1128, 0}},
    {"crc", true, Ring::Exact, 28503u, 53687u, false, 45396u, 45366u, 52594u,
     {3572, 663, 0, 0, 0, 0, 33960, 7201, 0}},
    {"adpcm.dec", false, Ring::Default, 89710u, 89710u, false, 34823u, 34708u, 34758u,
     {30591, 1566, 1423, 9, 10, 18, 1206, 0, 0}},
    {"adpcm.dec", false, Ring::Wrapped, 2048u, 2048u, true, 861u, 852u, 860u,
     {660, 44, 5, 2, 0, 3, 147, 0, 0}},
    {"adpcm.dec", false, Ring::Exact, 89710u, 89710u, false, 34823u, 34708u, 34758u,
     {30591, 1566, 1423, 9, 10, 18, 1206, 0, 0}},
    {"adpcm.dec", true, Ring::Default, 51008u, 89710u, false, 25849u, 25494u, 25806u,
     {20494, 2558, 2374, 0, 7, 0, 403, 12, 1}},
    {"adpcm.dec", true, Ring::Wrapped, 2048u, 3605u, true, 1060u, 1041u, 1077u,
     {701, 95, 0, 0, 4, 0, 257, 3, 0}},
    {"adpcm.dec", true, Ring::Exact, 51008u, 89710u, false, 25849u, 25494u, 25806u,
     {20494, 2558, 2374, 0, 7, 0, 403, 12, 1}},
    {"gzip", false, Ring::Mid, 6000u, 6000u, true, 2386u, 2375u, 2386u,
     {1986, 7, 239, 2, 2, 3, 147, 0, 0}},
    {"gzip", true, Ring::Mid, 6000u, 11235u, true, 2771u, 2795u, 2609u,
     {1703, 46, 121, 20, 21, 0, 741, 98, 21}},
    {"crc", false, Ring::Mid, 6000u, 6000u, true, 4890u, 4612u, 5076u,
     {20, 0, 4401, 1, 200, 0, 268, 0, 0}},
    {"crc", true, Ring::Mid, 6000u, 13196u, true, 14024u, 13818u, 16422u,
     {47, 0, 0, 0, 0, 0, 11409, 2568, 0}},
    {"adpcm.dec", false, Ring::Mid, 6000u, 6000u, true, 2370u, 2359u, 2368u,
     {1957, 103, 8, 3, 1, 6, 292, 0, 0}},
    {"adpcm.dec", true, Ring::Mid, 6000u, 10572u, true, 3054u, 3012u, 3071u,
     {2263, 289, 238, 0, 4, 0, 257, 3, 0}},
    {"sha", false, Ring::Default, 118710u, 118710u, false, 56430u, 58295u, 56936u,
     {30697, 0, 25727, 1, 2, 0, 3, 0, 0}},
    {"sha", false, Ring::Wrapped, 2048u, 2048u, true, 708u, 697u, 708u,
     {702, 0, 0, 1, 2, 0, 3, 0, 0}},
    {"sha", false, Ring::Exact, 118710u, 118710u, false, 56430u, 58295u, 56936u,
     {30697, 0, 25727, 1, 2, 0, 3, 0, 0}},
    {"sha", false, Ring::Mid, 6000u, 6000u, true, 2691u, 2714u, 2706u,
     {1509, 0, 1176, 1, 2, 0, 3, 0, 0}},
    {"sha", true, Ring::Default, 59918u, 118710u, false, 83247u, 85788u, 89127u,
     {2838, 2, 79295, 1, 151, 0, 660, 300, 0}},
    {"sha", true, Ring::Wrapped, 2048u, 4029u, true, 2755u, 2734u, 2972u,
     {65, 0, 1578, 1, 151, 0, 660, 300, 0}},
    {"sha", true, Ring::Exact, 59918u, 118710u, false, 83247u, 85788u, 89127u,
     {2838, 2, 79295, 1, 151, 0, 660, 300, 0}},
    {"sha", true, Ring::Mid, 6000u, 11829u, true, 7976u, 8177u, 8521u,
     {199, 0, 6665, 1, 151, 0, 660, 300, 0}},
};

TEST(CritPathGolden, ExactSummariesAcrossRingShapes)
{
    const char *spec = "robsize=256,l1dlat=3";
    for (const char *name : {"gzip", "crc", "adpcm.dec", "sha"}) {
        BoundKernel bk = bindKernel(findKernel(name));
        for (SimConfig cfg :
             {SimConfig::baseline(), SimConfig::intMemMg()}) {
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
            CoreStats plain = runCell(*bk.program, prep, cfg, bk.setup);
            for (Ring ring :
                 {Ring::Default, Ring::Wrapped, Ring::Exact, Ring::Mid}) {
                const GoldenCell *g = nullptr;
                for (const GoldenCell &c : goldenCells) {
                    if (std::string(c.kernel) == name &&
                        c.miniGraphs == cfg.useMiniGraphs && c.ring == ring)
                        g = &c;
                }
                ASSERT_NE(g, nullptr);
                SimConfig c = cfg;
                c.critpath = true;
                c.whatIf = spec;
                c.traceDepth = ring == Ring::Default ? 0
                    : ring == Ring::Wrapped          ? 2048
                    : ring == Ring::Mid              ? 6000
                                                     : plain.committedSlots;
                CritPathSummary s;
                runCell(*bk.program, prep, c, bk.setup, nullptr, &s);
                std::string at = std::string(name) + "/" + cfg.name +
                    "/ring " + std::to_string(static_cast<int>(ring));
                ASSERT_TRUE(s.present) << at;
                EXPECT_TRUE(s.error.empty()) << at << ": " << s.error;
                EXPECT_EQ(s.tracedSlots, g->slots) << at;
                EXPECT_EQ(s.tracedWork, g->work) << at;
                EXPECT_EQ(s.traceWrapped, g->wrapped) << at;
                EXPECT_EQ(s.actualCycles, g->actual) << at;
                EXPECT_EQ(s.modeledCycles, g->modeled) << at;
                EXPECT_EQ(s.whatIf, spec) << at;
                EXPECT_EQ(s.whatIfCycles, g->whatIf) << at;
                for (int k = 0; k < cpCatCount; ++k)
                    EXPECT_EQ(s.breakdown[k], g->breakdown[k])
                        << at << " " << cpCatName(static_cast<CpCat>(k));
            }
        }
    }
}

} // namespace
} // namespace mg
