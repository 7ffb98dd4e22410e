/**
 * @file
 * Randomized end-to-end property tests.
 *
 * RewriteEquivalence: generate random (but always terminating)
 * MG-Alpha programs, run the full mini-graph flow — profile, select
 * under a random policy, rewrite, execute — and require that the
 * handle-bearing program leaves memory bit-identical to the original.
 * Registers are deliberately not compared: interior values are dead
 * by construction but may legitimately differ at halt.
 *
 * DifferentialConfigsAgree: the differential-verification battery.
 * Every random program runs through the functional emulator AND the
 * cycle-level timing core under the paper's three machine shapes
 * (baseline, integer mini-graphs, integer-memory mini-graphs); all
 * six executions must retire the same architectural work and leave
 * bit-identical memory, and the per-config retirement checksums
 * (work + final memory image) must agree across configurations.
 *
 * SampledStorelessColdAndWarmStoreAgree: the checkpoint-store leg.
 * Random programs under random sampling grids run storeless,
 * store-cold, and store-warm; all three must return the same sampled
 * statistics bit for bit — the store only memoizes, and the warm
 * session (which loads the violation pairs instead of rediscovering
 * them) replays the cold one exactly.
 *
 * SweepUnderRandomFaultsMatchesFaultFree: the fault-containment leg.
 * A random program is swept alone, and again next to a copy of
 * itself whose setup throws (a runtime error or an allocation
 * failure, at random); the broken row must fail and the clean row
 * must equal the lone sweep's.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <new>
#include <stdexcept>
#include <string>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "engine/checkpoint_store.hh"
#include "engine/engine.hh"
#include "sim/simulator.hh"
#include "uarch/core.hh"

#include "stats_hash.hh"

namespace mg {
namespace {

/** Build a random terminating program. Structure: a chain of blocks
 *  that each do random ALU/memory work, decrement a loop counter, and
 *  branch among themselves until the counter runs out. */
std::string
randomProgram(Rng &rng, int blocks, int iters = 400)
{
    std::string src = strfmt(".text\nmain:\n    li r9, %d\n", iters);
    // Seed some register values.
    for (int r = 1; r <= 8; ++r)
        src += strfmt("    li r%d, %lld\n", r,
                      static_cast<long long>(rng.range(-1000, 1000)));
    src += "    lda r10, buf\n";

    const char *aluOps[] = {"addq", "subq", "addl", "and", "bis",
                            "xor", "s4addq", "s8addl", "cmplt",
                            "cmpule", "srl", "sll", "sra"};
    for (int b = 0; b < blocks; ++b) {
        src += strfmt("blk%d:\n", b);
        int len = static_cast<int>(2 + rng.below(7));
        for (int i = 0; i < len; ++i) {
            int kind = static_cast<int>(rng.below(10));
            int d = static_cast<int>(1 + rng.below(8));
            int a = static_cast<int>(1 + rng.below(8));
            int c = static_cast<int>(1 + rng.below(8));
            if (kind < 6) {
                const char *op = aluOps[rng.below(13)];
                bool shift = op[0] == 's' && op[1] != '4' &&
                    op[1] != '8';
                if (rng.below(2) || shift) {
                    long long imm = shift
                        ? static_cast<long long>(rng.below(32))
                        : static_cast<long long>(rng.range(-64, 64));
                    src += strfmt("    %s r%d, %lld, r%d\n", op, a,
                                  imm, d);
                } else {
                    src += strfmt("    %s r%d, r%d, r%d\n", op, a, c,
                                  d);
                }
            } else if (kind < 8) {
                // Bounded store: address = buf + (reg & 248).
                src += strfmt("    and r%d, 248, r11\n", a);
                src += "    addq r10, r11, r11\n";
                src += strfmt("    stq r%d, 0(r11)\n", c);
            } else {
                // Bounded load.
                src += strfmt("    and r%d, 248, r11\n", a);
                src += "    addq r10, r11, r11\n";
                src += strfmt("    ldq r%d, 0(r11)\n", d);
            }
        }
        // Countdown and hop to a random block (or fall through).
        src += "    subq r9, 1, r9\n";
        src += "    ble r9, fin\n";
        int target = static_cast<int>(rng.below(
            static_cast<std::uint64_t>(blocks)));
        if (target != b + 1)
            src += strfmt("    br blk%d\n", target);
    }
    src += "fin:\n    halt\n    .data\nbuf:    .space 256\n";
    return src;
}

class Fuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(Fuzz, RewriteEquivalence)
{
    Rng rng(0xfacade + static_cast<unsigned>(GetParam()) * 977);
    Program prog = assemble(randomProgram(rng, 6),
                            strfmt("fuzz%d", GetParam()));

    Emulator ref(prog);
    EmuResult rr = ref.run(10000000);
    ASSERT_EQ(rr.stop, StopReason::Halted);

    // Random policy.
    SelectionPolicy policy;
    policy.allowMemory = rng.below(2);
    policy.allowExternallySerial = rng.below(2);
    policy.allowInternallySerial = rng.below(2);
    policy.allowInteriorLoads = rng.below(2);
    policy.maxSize = static_cast<int>(2 + rng.below(7));
    MgtMachine machine;
    machine.collapsing = rng.below(2);
    bool compress = rng.below(2);

    PreparedMg prep = prepareMiniGraphs(prog, rr.profile, policy,
                                        machine, compress);
    Emulator rw(prep.program, &prep.table);
    EmuResult wr = rw.run(10000000);
    ASSERT_EQ(wr.stop, StopReason::Halted);

    // Same architectural work, identical memory.
    EXPECT_EQ(wr.dynWork, rr.dynWork);
    Addr buf = prog.symbol("buf");
    Addr buf2 = prep.program.symbol("buf");
    EXPECT_EQ(ref.memory().readBlock(buf, 256),
              rw.memory().readBlock(buf2, 256))
        << "memory diverged (policy mem=" << policy.allowMemory
        << " size=" << policy.maxSize << " compress=" << compress
        << ")";

    // The timing core agrees too (oracle equivalence on a random
    // program).
    if (GetParam() % 4 == 0) {
        SimConfig cfg = SimConfig::intMemMg();
        CoreStats st = runCore(prep.program, &prep.table, cfg.core,
                               nullptr);
        EXPECT_EQ(st.committedWork, rr.dynWork);
    }
}

/** FNV-1a over the quantities every configuration must retire
 *  identically: constituent work and the architectural memory image.
 *  (Pipeline slots, cycles, and stall counters legitimately differ
 *  across machine shapes; registers may hold dead interior values.) */
std::uint64_t
retirementChecksum(std::uint64_t work, const std::vector<std::uint8_t> &mem)
{
    std::uint64_t h = testhash::fnv1a(testhash::fnvBasis, work);
    for (std::uint8_t b : mem)
        h = testhash::fnv1a(h, b);
    return h;
}

TEST_P(Fuzz, DifferentialConfigsAgree)
{
    // Distinct seed stream from RewriteEquivalence so the two
    // batteries cover different programs.
    Rng rng(0xd1ff00 + static_cast<unsigned>(GetParam()) * 1013);
    Program prog = assemble(randomProgram(rng, 6),
                            strfmt("diff%d", GetParam()));

    Emulator ref(prog);
    EmuResult rr = ref.run(10000000);
    ASSERT_EQ(rr.stop, StopReason::Halted);
    std::vector<std::uint8_t> refMem =
        ref.memory().readBlock(prog.symbol("buf"), 256);
    std::uint64_t refSum = retirementChecksum(rr.dynWork, refMem);

    SimConfig configs[] = {SimConfig::baseline(), SimConfig::intMg(),
                           SimConfig::intMemMg()};
    for (const SimConfig &cfg : configs) {
        const Program *p = &prog;
        const MgTable *mgt = nullptr;
        PreparedMg prep;
        if (cfg.useMiniGraphs) {
            prep = prepareMiniGraphs(prog, rr.profile, cfg.policy,
                                     cfg.machine, cfg.compress);
            p = &prep.program;
            mgt = &prep.table;

            // The rewritten binary through the emulator alone.
            Emulator rw(*p, mgt);
            EmuResult wr = rw.run(10000000);
            ASSERT_EQ(wr.stop, StopReason::Halted) << cfg.name;
            EXPECT_EQ(wr.dynWork, rr.dynWork) << cfg.name;
            EXPECT_EQ(retirementChecksum(
                          wr.dynWork,
                          rw.memory().readBlock(p->symbol("buf"), 256)),
                      refSum)
                << cfg.name << " (emulator)";
        }

        // The timing core driving the same binary.
        Core core(*p, mgt, cfg.core);
        CoreStats st = core.run();
        EXPECT_EQ(st.committedWork, rr.dynWork) << cfg.name;
        EXPECT_EQ(
            retirementChecksum(
                st.committedWork,
                core.oracle().memory().readBlock(p->symbol("buf"), 256)),
            refSum)
            << cfg.name << " (timing core)";
    }
}

TEST_P(Fuzz, SampledStorelessColdAndWarmStoreAgree)
{
    // Store leg (every tenth seed): a random program, a random
    // sampling grid, and three sampled runs — storeless, cold-store,
    // and warm-store over the same directory, all placed with the
    // default phase salt 0 (an ordinary hash seed, not a grid
    // alignment). All three must agree bit
    // for bit: a storeless/cold drift means the store changed a result
    // instead of memoizing it, a cold/warm drift means a session that
    // loads the violation pairs measures something else.
    if (GetParam() % 10 != 3)
        return;
    Rng rng(0x5e71a1 + static_cast<unsigned>(GetParam()) * 887);
    // Long enough that the grid below never degenerates to an exact
    // run (min ~4 work per iteration).
    Program prog = assemble(randomProgram(rng, 6, 8000),
                            strfmt("ser%d", GetParam()));

    Emulator ref(prog);
    EmuResult rr = ref.run(100000000);
    ASSERT_EQ(rr.stop, StopReason::Halted);

    SimConfig cfg = SimConfig::intMemMg();
    cfg.sampling.enabled = true;
    cfg.sampling.interval = 50;
    cfg.sampling.period = 600 + 60 * (GetParam() % 5);
    cfg.sampling.warmup = 100;
    PreparedMg prep = prepareMiniGraphs(prog, rr.profile, cfg.policy,
                                        cfg.machine, cfg.compress);
    SampleSummary sum = collectSampleSummary(
        prep.program, &prep.table, nullptr, cfg.sampling);

    SampledStats s0 =
        runCellSampled(prep.program, &prep, cfg, nullptr, sum);
    ASSERT_FALSE(s0.exact) << "grid degenerated; widen iters";

    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
        strfmt("mg-fuzz-store-%d-%d", GetParam(), ::getpid());
    fs::remove_all(dir);
    CheckpointStore store({dir.string()});
    std::string cellKey = strfmt("fuzz|ser%d", GetParam());

    auto cold = makeCellClient(store, cellKey);
    SampledStats s1 =
        runCellSampled(prep.program, &prep, cfg, nullptr, sum,
                       cold.get());
    CheckpointStoreCounters c1 = store.counters();
    auto warm = makeCellClient(store, cellKey);
    SampledStats s2 =
        runCellSampled(prep.program, &prep, cfg, nullptr, sum,
                       warm.get());
    CheckpointStoreCounters c2 = store.counters() - c1;
    fs::remove_all(dir);

    // The cold run writes its violation pairs once; the warm run loads
    // them and writes nothing.
    EXPECT_EQ(c1.writebacks, 1u);
    EXPECT_EQ(c1.hits, 0u);
    EXPECT_EQ(c2.hits, 1u);
    EXPECT_EQ(c2.misses, 0u);
    EXPECT_EQ(c2.writebacks, 0u);
    // est carries every counter, so == is a checksum of the whole run.
    for (const SampledStats *s : {&s1, &s2}) {
        const char *who = s == &s1 ? "cold store" : "warm store";
        EXPECT_EQ(s->est, s0.est) << who;
        EXPECT_EQ(s->totalWork, s0.totalWork) << who;
        EXPECT_EQ(s->intervals, s0.intervals) << who;
        EXPECT_EQ(s->ipcHat, s0.ipcHat) << who;
        EXPECT_EQ(s->ipcRelCi95, s0.ipcRelCi95) << who;
        EXPECT_EQ(s->exact, s0.exact) << who;
        EXPECT_EQ(s->ffWork, s0.ffWork) << who;
        EXPECT_EQ(s->detailedWork, s0.detailedWork) << who;
    }
}

TEST_P(Fuzz, SweepUnderRandomFaultsMatchesFaultFree)
{
    // Fault-containment leg (every tenth seed): a random program swept
    // through the engine alone, then beside a broken copy of itself
    // (random exception, random row order). The broken row must fail
    // alone; the clean row must match the lone sweep bit for bit.
    if (GetParam() % 10 != 6)
        return;
    Rng rng(0xfa017 + static_cast<unsigned>(GetParam()) * 769);
    Program prog = assemble(randomProgram(rng, 6),
                            strfmt("fault%d", GetParam()));

    SweepSpec spec;
    spec.title = strfmt("fuzz fault %d", GetParam());
    EngineWorkload w;
    w.id = strfmt("fuzz-fault-%d", GetParam());
    w.suite = "fuzz";
    w.program = &prog;
    spec.workloads = {w};
    spec.columns = {{"baseline", SimConfig::baseline(), true},
                    {"int-mem", SimConfig::intMemMg(), true}};
    spec.baselineColumn = 0;

    SweepResult clean = ExperimentEngine(2).sweep(spec);

    EngineWorkload broken = w;
    broken.id += "-broken";
    const bool alloc = rng.below(2) != 0;
    broken.setup = [alloc](Emulator &) {
        if (alloc)
            throw std::bad_alloc();
        throw std::runtime_error("fuzz input planting failed");
    };
    const std::size_t brokenRow = rng.below(2);
    spec.workloads.insert(
        spec.workloads.begin() + static_cast<std::ptrdiff_t>(brokenRow),
        broken);
    SweepResult faulted = ExperimentEngine(2).sweep(spec);

    const std::size_t cleanRow = 1 - brokenRow;
    const char *what = alloc ? "bad_alloc" : "runtime_error";
    ASSERT_EQ(faulted.cells.size(), 2 * clean.cells.size());
    for (std::size_t col = 0; col < spec.columns.size(); ++col) {
        const SweepCell &f = faulted.at(brokenRow, col);
        EXPECT_EQ(f.outcome, CellOutcome::Failed)
            << what << " row " << brokenRow << " col " << col;
        EXPECT_FALSE(f.timed);

        const SweepCell &a = clean.at(0, col);
        const SweepCell &b = faulted.at(cleanRow, col);
        EXPECT_EQ(b.outcome, CellOutcome::Ok) << what << " col " << col;
        EXPECT_EQ(a.stats, b.stats) << what << " col " << col;
        EXPECT_EQ(a.timed, b.timed);
        EXPECT_EQ(a.staticCoverage, b.staticCoverage);
        EXPECT_EQ(a.templates, b.templates);
    }
}

// >= 200 seeds in CI: each seed exercises RewriteEquivalence (random
// policy), the three-config differential battery, and (every tenth
// seed) the checkpoint-store serialization leg.
INSTANTIATE_TEST_SUITE_P(Random, Fuzz, ::testing::Range(0, 200));

} // namespace
} // namespace mg
