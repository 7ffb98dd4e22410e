/**
 * @file
 * ExperimentEngine contract tests: a parallel sweep is bit-identical
 * to a serial one, artifacts are computed exactly once per fingerprint
 * (cache hits skip re-profiling / re-preparing / re-running), and the
 * engine's cells agree with the one-call simulate() flow.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "engine/cli.hh"
#include "engine/engine.hh"
#include "engine/fingerprint.hh"
#include "workloads/suites.hh"

namespace {

using namespace mg;

constexpr std::uint64_t testBudget = 30000;

SweepSpec
testSpec()
{
    SweepSpec spec;
    spec.title = "engine test";
    for (const char *name : {"crc", "bitcount"})
        spec.workloads.push_back(workload(bindKernel(findKernel(name))));
    spec.columns = standardColumns();
    for (SweepColumn &c : spec.columns)
        c.config.runBudget = testBudget;
    spec.baselineColumn = 0;
    return spec;
}

TEST(Engine, ParallelSweepBitIdenticalToSerial)
{
    SweepSpec spec = testSpec();
    SweepResult serial = ExperimentEngine(1).sweep(spec);
    SweepResult parallel = ExperimentEngine(4).sweep(spec);

    ASSERT_EQ(serial.cells.size(),
              spec.workloads.size() * spec.columns.size());
    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        const SweepCell &a = serial.cells[i];
        const SweepCell &b = parallel.cells[i];
        EXPECT_EQ(a.stats, b.stats) << "cell " << i;
        EXPECT_EQ(a.timed, b.timed);
        EXPECT_EQ(a.staticCoverage, b.staticCoverage);
        EXPECT_EQ(a.templates, b.templates);
        EXPECT_EQ(a.textSlots, b.textSlots);
    }
}

TEST(Engine, CellMatchesSimulate)
{
    BoundKernel bk = bindKernel(findKernel("crc"));
    SimConfig cfg = SimConfig::intMemMg();
    cfg.runBudget = testBudget;
    ExperimentEngine engine(2);
    EXPECT_EQ(engine.cell(workload(bk), cfg),
              simulate(*bk.program, cfg, bk.setup));
}

TEST(Engine, ArtifactsComputedOncePerFingerprint)
{
    SweepSpec spec = testSpec();
    // A repeated configuration under a different display name must
    // dedupe onto the same artifacts and timing run.
    SweepColumn dup = spec.columns[3];
    dup.name = "int-mem-again";
    spec.columns.push_back(dup);

    ExperimentEngine engine(4);
    SweepResult r = engine.sweep(spec);
    std::uint64_t w = spec.workloads.size();

    EngineCounters c = engine.counters();
    // One functional profile per workload: every mini-graph column
    // shares the same profiling budget.
    EXPECT_EQ(c.profileComputes, w);
    // One prepare per distinct (policy, machine, compress): the four
    // standard mini-graph machines; the duplicate column only hits.
    EXPECT_EQ(c.prepareComputes, 4 * w);
    EXPECT_GE(c.prepareHits, w);
    // One timing run per distinct cell: five distinct configurations
    // (the duplicate dedupes onto int-mem).
    EXPECT_EQ(c.runComputes, 5 * w);
    EXPECT_GE(c.runHits, w);

    // The deduped column's cells are bit-identical to the original's.
    for (std::size_t row = 0; row < r.rows.size(); ++row)
        EXPECT_EQ(r.at(row, 3).stats, r.at(row, 5).stats);

    // Re-running the identical sweep performs no new computation.
    engine.sweep(spec);
    EngineCounters c2 = engine.counters();
    EXPECT_EQ(c2.profileComputes, c.profileComputes);
    EXPECT_EQ(c2.prepareComputes, c.prepareComputes);
    EXPECT_EQ(c2.runComputes, c.runComputes);
    EXPECT_GT(c2.runHits, c.runHits);
}

TEST(Engine, CritpathSweepSimulatesEachCellOnce)
{
    // The critical-path trace rides in each cell's only timing run:
    // one run compute per timing cell, cell stats bit-identical to the
    // clean sweep's, and the analysis served from that run's cache
    // entry.
    SweepSpec spec = testSpec();
    SweepResult clean = ExperimentEngine(2).sweep(spec);
    for (SweepColumn &c : spec.columns) {
        c.config.critpath = true;
        c.config.whatIf = "robsize=256";
    }
    ExperimentEngine engine(2);
    SweepResult traced = engine.sweep(spec);

    EXPECT_EQ(engine.counters().runComputes, traced.cells.size());
    ASSERT_EQ(clean.cells.size(), traced.cells.size());
    for (std::size_t i = 0; i < clean.cells.size(); ++i) {
        EXPECT_EQ(clean.cells[i].stats, traced.cells[i].stats)
            << "cell " << i;
        EXPECT_TRUE(traced.cells[i].critpath.present) << "cell " << i;
    }
    TimedStats hit =
        engine.cellTimed(spec.workloads[0], spec.columns[0].config);
    EXPECT_EQ(hit.critpath, traced.cells[0].critpath);
    EXPECT_EQ(engine.counters().runComputes, traced.cells.size());
}

TEST(Engine, CritpathRejectsSampling)
{
    // A critical-path breakdown needs every cycle simulated, so the
    // analysis flags refuse enabled sampling; --full re-enables them.
    const char *sampled[] = {"bench", "--whatif", "robsize=256",
                             "--sample-interval", "1000"};
    EXPECT_EXIT(parseCli(5, const_cast<char **>(sampled)),
                ::testing::ExitedWithCode(1), "full simulation");
    const char *full[] = {"bench", "--critpath", "--sample-interval",
                          "1000", "--full"};
    EXPECT_TRUE(parseCli(5, const_cast<char **>(full)).critpath);
}

TEST(Engine, CellTimeoutMustBeFinite)
{
    // strtod takes "inf" and "nan"; neither names a deadline.
    for (const char *v : {"inf", "nan"}) {
        const char *argv[] = {"bench", "--cell-timeout-s", v};
        EXPECT_EXIT(parseCli(3, const_cast<char **>(argv)),
                    ::testing::ExitedWithCode(1), "bad --cell-timeout-s")
            << v;
    }
    const char *huge[] = {"bench", "--cell-timeout-s", "1e30"};
    EXPECT_EQ(parseCli(3, const_cast<char **>(huge)).cellTimeoutS, 1e30);
}

TEST(Engine, UnknownFlagsAreFatal)
{
    // A typo must not silently run a full, unsampled sweep, and
    // retired flags must not silently run a different one.
    const char *typo[] = {"bench", "--sample-intervall", "1000"};
    EXPECT_EXIT(parseCli(3, const_cast<char **>(typo)),
                ::testing::ExitedWithCode(1),
                "unknown option '--sample-intervall'");
    const char *dryRun[] = {"bench", "--dry-run"};
    EXPECT_EXIT(parseCli(2, const_cast<char **>(dryRun)),
                ::testing::ExitedWithCode(1), "unknown option '--dry-run'");
    const char *inject[] = {"bench", "--fault-inject", "fail@gzip"};
    EXPECT_EXIT(parseCli(3, const_cast<char **>(inject)),
                ::testing::ExitedWithCode(1),
                "unknown option '--fault-inject'");
    const char *noShadow[] = {"bench", "--no-ss-shadow"};
    EXPECT_EXIT(parseCli(2, const_cast<char **>(noShadow)),
                ::testing::ExitedWithCode(1),
                "unknown option '--no-ss-shadow'");
    const char *journalDir[] = {"bench", "--journal-dir", "j"};
    EXPECT_EXIT(parseCli(3, const_cast<char **>(journalDir)),
                ::testing::ExitedWithCode(1),
                "unknown option '--journal-dir'");
    const char *noJournal[] = {"bench", "--no-journal"};
    EXPECT_EXIT(parseCli(2, const_cast<char **>(noJournal)),
                ::testing::ExitedWithCode(1),
                "unknown option '--no-journal'");
    // strtoull clamps an out-of-range count to ULLONG_MAX.
    const char *overflow[] = {"bench", "--sample-interval",
                              "99999999999999999999999"};
    EXPECT_EXIT(parseCli(3, const_cast<char **>(overflow)),
                ::testing::ExitedWithCode(1), "bad --sample-interval");
}

TEST(Engine, MalformedJobCountsAreFatal)
{
    // Only parseCli runs here: no engine is built from these values,
    // so no thread is started. An empty count used to mean "every
    // hardware thread", and 2^32 + 2 used to truncate to 2.
    for (const char *jobs : {"", "-1", "+2", "2x", "4294967298",
                             "2147483648", "99999999999999999999999"}) {
        const char *argv[] = {"bench", "--jobs", jobs};
        EXPECT_EXIT(parseCli(3, const_cast<char **>(argv)),
                    ::testing::ExitedWithCode(1), "bad --jobs value")
            << '"' << jobs << '"';
    }
    const char *shortForm[] = {"bench", "-j", ""};
    EXPECT_EXIT(parseCli(3, const_cast<char **>(shortForm)),
                ::testing::ExitedWithCode(1), "bad -j value");
    const char *max[] = {"bench", "--jobs", "2147483647"};
    EXPECT_EQ(parseCli(3, const_cast<char **>(max)).jobs, INT_MAX);
    const char *zero[] = {"bench", "-j", "0"};
    EXPECT_EQ(parseCli(3, const_cast<char **>(zero)).jobs, 0);
}

TEST(Engine, OverflowingSamplingLengthsAreFatal)
{
    // 12 × this interval wraps to a period of 8, which would silently
    // run every cell exactly while the report still said "sampled".
    const char *period[] = {"bench", "--sample-interval",
                            "1537228672809129302"};
    EXPECT_EXIT(parseCli(3, const_cast<char **>(period)),
                ::testing::ExitedWithCode(1), "bad --sample-interval");
    // 2 × interval (the default warmup) wraps even with a period.
    const char *tail[] = {"bench", "--sample-interval",
                          "9223372036854775808", "--sample-period",
                          "1000"};
    EXPECT_EXIT(parseCli(5, const_cast<char **>(tail)),
                ::testing::ExitedWithCode(1), "bad --sample-interval");
    // The largest warmup is a warmup, not the "unset" default, and
    // interval + warmup wraps.
    const char *warmup[] = {"bench", "--sample-interval", "1000",
                            "--warmup", "18446744073709551615"};
    EXPECT_EXIT(parseCli(5, const_cast<char **>(warmup)),
                ::testing::ExitedWithCode(1), "--warmup");

    const char *ok[] = {"bench", "--sample-interval", "1000", "--warmup",
                        "0"};
    SamplingParams sp = parseCli(5, const_cast<char **>(ok))
                            .samplingParams();
    EXPECT_EQ(sp.period, 12000u);
    EXPECT_EQ(sp.warmup, 0u);
}

TEST(Engine, ZeroSamplePeriodIsFatal)
{
    // A zero period leaves no room for a measurement; like a zero
    // interval it is rejected, not read as "the default".
    const char *argv[] = {"bench", "--sample-interval", "1000",
                          "--sample-period", "0"};
    EXPECT_EXIT(parseCli(5, const_cast<char **>(argv)),
                ::testing::ExitedWithCode(1),
                "--sample-period must be positive");
    const char *ok[] = {"bench", "--sample-interval", "1000",
                        "--sample-period", "5000"};
    EXPECT_EQ(parseCli(5, const_cast<char **>(ok)).samplingParams().period,
              5000u);
}

TEST(Engine, SamplingSubFlagsWithoutAnIntervalAreFatal)
{
    // Without --sample-interval the sweep is full, so a sub-flag
    // would silently change nothing.
    const std::vector<std::vector<const char *>> lone = {
        {"bench", "--sample-period", "12000"},
        {"bench", "--warmup", "500"},
        {"bench", "--jobs", "2", "--warmup", "0"},
    };
    for (const auto &args : lone) {
        std::vector<char *> argv;
        for (const char *a : args)
            argv.push_back(const_cast<char *>(a));
        EXPECT_EXIT(parseCli(static_cast<int>(argv.size()), argv.data()),
                    ::testing::ExitedWithCode(1), "need --sample-interval")
            << args[1];
    }
    // --full overrides the sampling flags, so they stay accepted.
    const char *full[] = {"bench", "--full", "--warmup", "500",
                          "--sample-period", "5000"};
    CliOptions o = parseCli(6, const_cast<char **>(full));
    EXPECT_FALSE(o.samplingParams().enabled);
    const char *sampled[] = {"bench", "--warmup", "500",
                             "--sample-interval", "1000"};
    SamplingParams sp = parseCli(5, const_cast<char **>(sampled))
                            .samplingParams();
    EXPECT_TRUE(sp.enabled);
    EXPECT_EQ(sp.warmup, 500u);
}

TEST(Engine, MalformedWhatIfIsFatal)
{
    // A bad --whatif spec fails before any cell is simulated, not
    // once per cell after a whole traced sweep.
    for (const char *spec :
         {"robsize=0", "bogus=1", "robsize=4294967297"}) {
        const char *argv[] = {"bench", "--whatif", spec};
        EXPECT_EXIT(parseCli(3, const_cast<char **>(argv)),
                    ::testing::ExitedWithCode(1), "bad --whatif")
            << spec;
    }
    const char *ok[] = {"bench", "--whatif", "robsize=256,l1dlat=3"};
    CliOptions o = parseCli(3, const_cast<char **>(ok));
    EXPECT_TRUE(o.critpath);
    EXPECT_EQ(o.whatIf, "robsize=256,l1dlat=3");
}

TEST(Engine, BenchFlagsAndPositionalsPassThrough)
{
    const char *argv[] = {"bench", "--sched", "crc", "--jobs", "2"};
    CliOptions o = parseCli(5, const_cast<char **>(argv), {"--sched"});
    EXPECT_TRUE(o.has("--sched"));
    EXPECT_EQ(o.rest, (std::vector<std::string>{"--sched", "crc"}));
    EXPECT_EQ(o.jobs, 2);
    // One bench's flag is unknown to another.
    EXPECT_EXIT(parseCli(5, const_cast<char **>(argv), {"--best"}),
                ::testing::ExitedWithCode(1), "unknown option '--sched'");
}

TEST(Engine, UntimedColumnsPrepareWithoutRunning)
{
    SweepSpec spec = testSpec();
    for (SweepColumn &c : spec.columns)
        c.timing = false;
    ExperimentEngine engine(2);
    SweepResult r = engine.sweep(spec);
    EXPECT_EQ(engine.counters().runComputes, 0u);
    for (std::size_t row = 0; row < r.rows.size(); ++row) {
        EXPECT_FALSE(r.at(row, 1).timed);
        EXPECT_EQ(r.at(row, 1).stats.cycles, 0u);
        EXPECT_GT(r.at(row, 1).templates, 0u);   // selection happened
    }
}

TEST(Engine, FingerprintIgnoresDisplayName)
{
    SimConfig a = SimConfig::intMemMg();
    SimConfig b = a;
    b.name = "same machine, different label";
    EXPECT_EQ(cellFingerprint("k", a), cellFingerprint("k", b));

    SimConfig c = a;
    c.core.physRegs -= 1;
    EXPECT_NE(cellFingerprint("k", a), cellFingerprint("k", c));
    SimConfig d = a;
    d.policy.maxTemplates = 8;
    EXPECT_NE(cellFingerprint("k", a), cellFingerprint("k", d));
}

TEST(Engine, DefaultSampledCellKeysArePinned)
{
    // A default `--sample-interval 1000` int-mem cell. Its key hashes
    // to the phase salt that places every measured span, and the
    // summary key names its stored pre-pass, so a change to either
    // silently moves every sampled cell or orphans every stored
    // record. Literals recorded before the sampling knobs the keys
    // still spell out as fixed tokens (sFfw, sPre, sWt) were deleted.
    const char *argv[] = {"bench", "--sample-interval", "1000"};
    SimConfig cfg = SimConfig::intMemMg();
    cfg.sampling = parseCli(3, const_cast<char **>(argv)).samplingParams();
    EngineWorkload w =
        workload(bindKernel(findKernel("crc"), Scale::Long));
    ExperimentEngine eng(1);
    auto prep = eng.prepare(w, cfg);

    std::string cell = cellFingerprint(w.id, cfg);
    std::string summ = summaryFingerprint(
        w.id + "|" + binaryFingerprint(prep->program, &prep->table),
        cfg.sampling, cfg.runBudget);
    std::uint64_t salt = fnv1a64(cell.data(), cell.size());
    EXPECT_EQ(salt, 0x14c86db10414fd7bull) << std::hex << salt;
    std::uint64_t summHash = fnv1a64(summ.data(), summ.size());
    EXPECT_EQ(summHash, 0x8c7ac9a0116137d7ull) << std::hex << summHash;
    EXPECT_NE(cell.find("sampled=1;sInt=1000;sPer=12000;sWup=2000;"
                        "sFfw=2000;sPre=0;sCi=10000;sDuty=500000;"
                        "sShad=1;sWt=1;"),
              std::string::npos)
        << cell;

    // The engine measures the cell under exactly that salt.
    SampledStats viaEngine = eng.cellSampled(w, cfg);
    ASSERT_FALSE(viaEngine.exact);
    SimConfig run = cfg;
    run.sampling.phaseSalt = 0x14c86db10414fd7bull;
    SampledStats direct = runCellSampled(*w.program, prep.get(), run,
                                         w.setup, *eng.summary(w, cfg));
    EXPECT_EQ(viaEngine.est, direct.est);
    EXPECT_EQ(viaEngine.intervals, direct.intervals);
}

/** fnv1a64 of each key a sweep column's cell computes under. */
struct KeyGolden
{
    const char *column;
    const char *tier;
    std::uint64_t cell;       ///< cellFingerprint
    std::uint64_t prepare;    ///< prepareFingerprint
    std::uint64_t summary;    ///< summaryFingerprint
};

const KeyGolden keyGoldens[] = {
    {"baseline", "ref", 0x7b9121a9bc4cf860ull,
     0x11efcdbe4d5ebed7ull, 0x9c9d882cd91abc38ull},
    {"int", "ref", 0xc0589c1bb8a34560ull,
     0x2cb93a1b91249640ull, 0x44837d27b9daaa43ull},
    {"int+coll", "ref", 0x5ab509a244331469ull,
     0x34d2f521eb2d8bc7ull, 0x44837d27b9daaa43ull},
    {"int-mem", "ref", 0xb3078ccf2a2cdef8ull,
     0x11efcdbe4d5ebed7ull, 0x0a3207d2adaff40dull},
    {"int-mem+coll", "ref", 0x8facd1affd415e61ull,
     0x0f07cfc0924bf750ull, 0x0a3207d2adaff40dull},
    {"4w-base", "ref", 0x30b3b7a88fa5a367ull,
     0x11efcdbe4d5ebed7ull, 0x9c9d882cd91abc38ull},
    {"4w-mg", "ref", 0xd10b9d4064ddb6e7ull,
     0x11efcdbe4d5ebed7ull, 0x0a3207d2adaff40dull},
    {"4w6x-base", "ref", 0x87c4802b32020286ull,
     0x11efcdbe4d5ebed7ull, 0x9c9d882cd91abc38ull},
    {"4w6x-mg", "ref", 0x3bc1d5589bafc17eull,
     0x11efcdbe4d5ebed7ull, 0x0a3207d2adaff40dull},
    {"2cyc-base", "ref", 0x604117eb656257edull,
     0x11efcdbe4d5ebed7ull, 0x9c9d882cd91abc38ull},
    {"2cyc-mg", "ref", 0x3b5c2ea70f75f4b1ull,
     0x11efcdbe4d5ebed7ull, 0x0a3207d2adaff40dull},
    {"baseline", "ref-critpath", 0x2351bcdeecfcb1aeull,
     0x11efcdbe4d5ebed7ull, 0x9c9d882cd91abc38ull},
    {"int", "ref-critpath", 0xd7283f59a3a360aeull,
     0x2cb93a1b91249640ull, 0x44837d27b9daaa43ull},
    {"int+coll", "ref-critpath", 0xb23ceb09a709cc49ull,
     0x34d2f521eb2d8bc7ull, 0x44837d27b9daaa43ull},
    {"int-mem", "ref-critpath", 0x1fc4e2e0f945d786ull,
     0x11efcdbe4d5ebed7ull, 0x0a3207d2adaff40dull},
    {"int-mem+coll", "ref-critpath", 0x50b0e37dfd6138e1ull,
     0x0f07cfc0924bf750ull, 0x0a3207d2adaff40dull},
    {"4w-base", "ref-critpath", 0x37a38bef8235785full,
     0x11efcdbe4d5ebed7ull, 0x9c9d882cd91abc38ull},
    {"4w-mg", "ref-critpath", 0xc864b8b7f5945edfull,
     0x11efcdbe4d5ebed7ull, 0x0a3207d2adaff40dull},
    {"4w6x-base", "ref-critpath", 0xe878eea2c34122ccull,
     0x11efcdbe4d5ebed7ull, 0x9c9d882cd91abc38ull},
    {"4w6x-mg", "ref-critpath", 0xa5d959ccb2c27e04ull,
     0x11efcdbe4d5ebed7ull, 0x0a3207d2adaff40dull},
    {"2cyc-base", "ref-critpath", 0x235da98e0972b775ull,
     0x11efcdbe4d5ebed7ull, 0x9c9d882cd91abc38ull},
    {"2cyc-mg", "ref-critpath", 0xb4b71a78e2c20a71ull,
     0x11efcdbe4d5ebed7ull, 0x0a3207d2adaff40dull},
    {"baseline", "long-full", 0xec945cfa29fef59eull,
     0x415e20c46ae95ba3ull, 0xe39cdb78416bbabeull},
    {"int", "long-full", 0x34303f2d3e2e6beeull,
     0xceb7a945c542f8dcull, 0x6df4e2d636270145ull},
    {"int+coll", "long-full", 0xf495e66d04d6a2a7ull,
     0x530658367ec68bb3ull, 0x6df4e2d636270145ull},
    {"int-mem", "long-full", 0xc78ce3230efcbc76ull,
     0x415e20c46ae95ba3ull, 0x8c7ac9a0116137d7ull},
    {"int-mem+coll", "long-full", 0x943be33141e4b50full,
     0x2d5b560fc32e498cull, 0x8c7ac9a0116137d7ull},
    {"4w-base", "long-full", 0x95806e8335b72915ull,
     0x415e20c46ae95ba3ull, 0xe39cdb78416bbabeull},
    {"4w-mg", "long-full", 0xb4444f4ddaf9249dull,
     0x415e20c46ae95ba3ull, 0x8c7ac9a0116137d7ull},
    {"4w6x-base", "long-full", 0x0e1bbc32b331f138ull,
     0x415e20c46ae95ba3ull, 0xe39cdb78416bbabeull},
    {"4w6x-mg", "long-full", 0x8d89c8ebfc9f5ed0ull,
     0x415e20c46ae95ba3ull, 0x8c7ac9a0116137d7ull},
    {"2cyc-base", "long-full", 0x4637e8d0c24ae23full,
     0x415e20c46ae95ba3ull, 0xe39cdb78416bbabeull},
    {"2cyc-mg", "long-full", 0x61430534a5dcf87bull,
     0x415e20c46ae95ba3ull, 0x8c7ac9a0116137d7ull},
    {"baseline", "long-sampled", 0x828baf25bde77fc3ull,
     0x415e20c46ae95ba3ull, 0xe39cdb78416bbabeull},
    {"int", "long-sampled", 0x6905981c113386b3ull,
     0xceb7a945c542f8dcull, 0x6df4e2d636270145ull},
    {"int+coll", "long-sampled", 0x2061fb306bc3ce5cull,
     0x530658367ec68bb3ull, 0x6df4e2d636270145ull},
    {"int-mem", "long-sampled", 0x14c86db10414fd7bull,
     0x415e20c46ae95ba3ull, 0x8c7ac9a0116137d7ull},
    {"int-mem+coll", "long-sampled", 0x5abd02a856b962a4ull,
     0x2d5b560fc32e498cull, 0x8c7ac9a0116137d7ull},
    {"4w-base", "long-sampled", 0xb4191dc81328fad2ull,
     0x415e20c46ae95ba3ull, 0xe39cdb78416bbabeull},
    {"4w-mg", "long-sampled", 0x56119904942b24baull,
     0x415e20c46ae95ba3ull, 0x8c7ac9a0116137d7ull},
    {"4w6x-base", "long-sampled", 0x62ef1f124d48d7c5ull,
     0x415e20c46ae95ba3ull, 0xe39cdb78416bbabeull},
    {"4w6x-mg", "long-sampled", 0xf0cd0fd8ba81655dull,
     0x415e20c46ae95ba3ull, 0x8c7ac9a0116137d7ull},
    {"2cyc-base", "long-sampled", 0x5b6cfbe99f0615f4ull,
     0x415e20c46ae95ba3ull, 0xe39cdb78416bbabeull},
    {"2cyc-mg", "long-sampled", 0x35bc0e07fe54b728ull,
     0x415e20c46ae95ba3ull, 0x8c7ac9a0116137d7ull},
};

/** The Figure 6 columns plus mg_bench_bandwidth's machine variants. */
std::vector<SweepColumn>
keyColumns()
{
    std::vector<SweepColumn> cols = standardColumns();
    auto narrowFrontEnd = [](CoreConfig &c) {
        c.fetchWidth = c.renameWidth = c.commitWidth = 4;
    };
    auto narrowExecute = [](CoreConfig &c) {
        c.issueWidth = 4;
        c.fu.loadPorts = 1;
    };
    auto addPair = [&](const std::string &tag, auto tweak) {
        SimConfig base = SimConfig::baseline();
        tweak(base.core);
        cols.push_back({tag + "-base", base, true});
        SimConfig mg = SimConfig::intMemMg();
        tweak(mg.core);
        cols.push_back({tag + "-mg", mg, true});
    };
    addPair("4w", [&](CoreConfig &c) {
        narrowFrontEnd(c);
        narrowExecute(c);
    });
    addPair("4w6x", narrowFrontEnd);
    addPair("2cyc", [](CoreConfig &c) { c.schedulerCycles = 2; });
    return cols;
}

TEST(Engine, SweepColumnKeysArePinned)
{
    // Every key the Figure 6 and Figure 8 sweeps compute under, at the
    // ref tier (plain and with the analyzer), the long tier in full
    // and sampled at the default interval. A cell key seeds its
    // sampled phase salt and names its stored records, so a token
    // that drifts silently moves sampled stats and orphans the store.
    struct Tier
    {
        const char *name;
        std::vector<const char *> argv;
    };
    const Tier tiers[] = {
        {"ref", {"bench"}},
        {"ref-critpath",
         {"bench", "--critpath", "--whatif", "robsize=256,l1dlat=3"}},
        {"long-full", {"bench", "--scale", "long", "--full"}},
        {"long-sampled",
         {"bench", "--scale", "long", "--sample-interval", "1000"}},
    };
    auto hash = [](const std::string &k) {
        return fnv1a64(k.data(), k.size());
    };
    std::string actual;     // the table as it stands, printed on failure
    std::size_t rows = 0;
    ExperimentEngine eng(1);
    for (const Tier &t : tiers) {
        CliOptions cli = parseCli(static_cast<int>(t.argv.size()),
                                  const_cast<char **>(t.argv.data()));
        SweepSpec spec;
        spec.workloads = {
            workload(bindKernel(findKernel("crc"), cli.scale))};
        spec.columns = keyColumns();
        cli.applySampling(spec);
        cli.applyAnalysis(spec);
        const EngineWorkload &w = spec.workloads[0];
        for (const SweepColumn &col : spec.columns) {
            const SimConfig &cfg = col.config;
            const Program *prog = w.program;
            const MgTable *mgt = nullptr;
            std::shared_ptr<const PreparedMg> prep;
            if (cfg.useMiniGraphs) {
                prep = eng.prepare(w, cfg);
                prog = &prep->program;
                mgt = &prep->table;
            }
            std::uint64_t cell = hash(cellFingerprint(w.id, cfg));
            std::uint64_t prepare = hash(prepareFingerprint(
                profileFingerprint(w.id, cfg.profileBudget), cfg.policy,
                cfg.machine, cfg.compress));
            std::uint64_t summary = hash(summaryFingerprint(
                w.id + "|" + binaryFingerprint(*prog, mgt), cfg.sampling,
                cfg.runBudget));
            actual += strfmt("    {\"%s\", \"%s\", 0x%016llxull,\n"
                             "     0x%016llxull, 0x%016llxull},\n",
                             col.name.c_str(), t.name,
                             static_cast<unsigned long long>(cell),
                             static_cast<unsigned long long>(prepare),
                             static_cast<unsigned long long>(summary));
            ++rows;
            const KeyGolden *g = nullptr;
            for (const KeyGolden &row : keyGoldens) {
                if (col.name == row.column &&
                    std::string(t.name) == row.tier)
                    g = &row;
            }
            if (!g) {
                ADD_FAILURE() << "no golden row for " << col.name << " @ "
                              << t.name;
                continue;
            }
            EXPECT_EQ(cell, g->cell) << col.name << " @ " << t.name;
            EXPECT_EQ(prepare, g->prepare) << col.name << " @ " << t.name;
            EXPECT_EQ(summary, g->summary) << col.name << " @ " << t.name;
        }
    }
    EXPECT_EQ(std::size(keyGoldens), rows);
    if (HasFailure())
        std::printf("actual goldens:\n%s", actual.c_str());
}

} // namespace
