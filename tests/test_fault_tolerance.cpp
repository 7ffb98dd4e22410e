/**
 * @file
 * Fault-tolerance battery: the failure-domain, timeout, crash
 * journal, and fault-injection layers of the sweep engine.
 *
 * Four layers, innermost out:
 *  - primitives: FailSoftGate latching, SweepCell serialization round
 *    trips, ThreadPool exception containment (a throwing task must
 *    not kill its worker or be silently swallowed);
 *  - the deterministic fault injector: seeded arming, key matching,
 *    stall cancellation;
 *  - per-cell failure domains: injected faults and timeouts cost
 *    exactly one cell, and the sweep always completes;
 *  - the crash-safe journal: resume skips finished cells and
 *    converges to the uninterrupted sweep, torn tails and corrupt
 *    records truncate instead of poisoning, only Ok cells replay.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/failsoft.hh"
#include "common/serial.hh"
#include "engine/engine.hh"
#include "engine/fault_inject.hh"
#include "engine/journal.hh"
#include "engine/thread_pool.hh"
#include "sim/report.hh"
#include "workloads/suites.hh"

using namespace mg;
namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t testBudget = 30000;

/** Fresh per-test scratch directory (removed on destruction). */
struct ScratchDir
{
    fs::path path;

    explicit ScratchDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("mg-fault-test-" + tag + "-" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
    std::string str() const { return path.string(); }
};

/** Arm the global injector for one test; disarm on scope exit so the
 *  process-wide singleton never leaks into the next test. */
struct FaultArm
{
    explicit FaultArm(const std::string &spec)
    {
        FaultInjector::global().configure(spec);
    }
    ~FaultArm() { FaultInjector::global().configure(""); }
};

/** Small 2x2 matrix every engine test here sweeps. */
SweepSpec
testSpec()
{
    SweepSpec spec;
    spec.title = "fault test";
    for (const char *name : {"crc", "bitcount"})
        spec.workloads.push_back(workload(bindKernel(findKernel(name))));
    spec.columns = {{"baseline", SimConfig::baseline(), true},
                    {"int-mem", SimConfig::intMemMg(), true}};
    for (SweepColumn &c : spec.columns)
        c.config.runBudget = testBudget;
    spec.baselineColumn = 0;
    return spec;
}

void
expectCellsEqual(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(a.cells[i].stats, b.cells[i].stats) << "cell " << i;
        EXPECT_EQ(a.cells[i].timed, b.cells[i].timed);
        EXPECT_EQ(a.cells[i].staticCoverage, b.cells[i].staticCoverage);
        EXPECT_EQ(a.cells[i].templates, b.cells[i].templates);
        EXPECT_EQ(a.cells[i].outcome, b.cells[i].outcome);
    }
}

/** A SweepCell with every serialized field non-default. */
SweepCell
makeCell(std::uint64_t seed)
{
    SweepCell c;
    c.stats.cycles = 1000 + seed;
    c.stats.committedWork = 900 + seed;
    c.timed = true;
    c.staticCoverage = 0.25 + static_cast<double>(seed % 4) / 8;
    c.templates = 12 + seed;
    c.textSlots = 58 + seed;
    c.sampledRun = (seed % 2) != 0;
    c.sampled.intervals = static_cast<std::uint32_t>(3 + seed);
    c.sampled.ipcHat = 1.5 + static_cast<double>(seed);
    c.wallSeconds = 0.5 + static_cast<double>(seed);
    c.workPerSec = 1e6 + static_cast<double>(seed);
    c.outcome = CellOutcome::Ok;
    return c;
}

/** Overwrite one byte at @p off (negative: from the end). */
void
flipByte(const fs::path &file, long long off)
{
    std::fstream f(file,
                   std::ios::in | std::ios::out | std::ios::binary);
    if (off < 0)
        f.seekp(off, std::ios::end);
    else
        f.seekp(off, std::ios::beg);
    char c = 0;
    f.seekg(f.tellp());
    f.get(c);
    f.seekp(-1, std::ios::cur);
    c = static_cast<char>(c ^ 0x5a);
    f.put(c);
}

fs::path
journalFile(const ScratchDir &dir)
{
    for (const auto &e : fs::directory_iterator(dir.path))
        if (e.path().extension() == ".mgsj")
            return e.path();
    return {};
}

} // namespace

// ------------------------------------------------------------ primitives

TEST(FailSoft, GateLatchesOnFirstFailure)
{
    FailSoftGate g;
    EXPECT_TRUE(g.ok());
    g.fail("test failure %d", 1);
    EXPECT_FALSE(g.ok());
    g.fail("silent second failure");   // must not warn again or reopen
    EXPECT_FALSE(g.ok());
}

TEST(FailSoft, SweepCellRoundTripsThroughSerialization)
{
    for (std::uint64_t seed : {0ull, 1ull, 2ull, 5ull}) {
        SweepCell in = makeCell(seed);
        if (seed == 1) {
            in.outcome = CellOutcome::Failed;
            in.error = "synthetic failure";
        }
        if (seed == 2)
            in.outcome = CellOutcome::TimedOut;
        SerialWriter w;
        serializeSweepCell(in, w);

        SerialReader r(w.data());
        SweepCell out;
        ASSERT_TRUE(deserializeSweepCell(r, out)) << "seed " << seed;
        EXPECT_EQ(in.stats, out.stats);
        EXPECT_EQ(in.timed, out.timed);
        EXPECT_EQ(in.staticCoverage, out.staticCoverage);
        EXPECT_EQ(in.templates, out.templates);
        EXPECT_EQ(in.textSlots, out.textSlots);
        EXPECT_EQ(in.sampledRun, out.sampledRun);
        EXPECT_EQ(in.sampled.intervals, out.sampled.intervals);
        EXPECT_EQ(in.sampled.ipcHat, out.sampled.ipcHat);
        EXPECT_EQ(in.wallSeconds, out.wallSeconds);
        EXPECT_EQ(in.workPerSec, out.workPerSec);
        EXPECT_EQ(in.outcome, out.outcome);
        EXPECT_EQ(in.error, out.error);
        EXPECT_FALSE(out.journalHit);   // runtime state, never travels
    }
}

TEST(FailSoft, TruncatedCellRecordIsRejected)
{
    SerialWriter w;
    serializeSweepCell(makeCell(3), w);
    for (std::size_t keep : {std::size_t(0), w.size() / 2,
                             w.size() - 1}) {
        SerialReader r(w.data().data(), keep);
        SweepCell out;
        EXPECT_FALSE(deserializeSweepCell(r, out)) << "keep " << keep;
    }
}

TEST(Pool, WaitRethrowsATaskExceptionAndPoolSurvives)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("task boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);

    // The worker must survive the throw and the error must not stick:
    // the pool keeps executing and the next wait() is clean.
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&] { ran.fetch_add(1); });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(ran.load(), 8);
}

TEST(Pool, ParallelForRunsEveryIndexAndRethrowsLowest)
{
    for (int jobs : {1, 4}) {
        std::vector<std::atomic<int>> ran(16);
        for (auto &r : ran)
            r.store(0);
        std::string caught;
        try {
            ThreadPool::parallelFor(jobs, 16, [&](std::size_t i) {
                ran[i].fetch_add(1);
                if (i == 3 || i == 9)
                    throw std::runtime_error("idx " +
                                             std::to_string(i));
            });
            FAIL() << "parallelFor swallowed the exception";
        } catch (const std::runtime_error &e) {
            caught = e.what();
        }
        // Deterministic selection: the lowest throwing index wins at
        // every jobs count, and no index is skipped because a
        // neighbour threw.
        EXPECT_EQ(caught, "idx 3") << "jobs " << jobs;
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(ran[i].load(), 1) << "index " << i;
    }
}

// -------------------------------------------------------- fault injector

TEST(FaultInject, ArmingIsSeededAndDeterministic)
{
    auto armedSet = [](const std::string &spec) {
        FaultArm arm(spec);
        std::set<int> armed;
        for (int k = 0; k < 32; ++k) {
            try {
                FaultInjector::global().at(FaultSite::CellFail,
                                           "key" + std::to_string(k));
            } catch (const std::runtime_error &) {
                armed.insert(k);
            }
        }
        return armed;
    };
    std::set<int> a = armedSet("fail:p=0.5:seed=3");
    std::set<int> b = armedSet("fail:p=0.5:seed=3");
    std::set<int> c = armedSet("fail:p=0.5:seed=4");
    EXPECT_EQ(a, b);                    // same spec, same keys fault
    EXPECT_NE(a, c);                    // the seed picks the victims
    EXPECT_GT(a.size(), 0u);            // p=0.5 arms some...
    EXPECT_LT(a.size(), 32u);           // ...but not all
}

TEST(FaultInject, MatchSelectsSitesAndKeys)
{
    FaultArm arm("fail@crc,alloc@bitcount");
    FaultInjector &fi = FaultInjector::global();
    EXPECT_THROW(fi.at(FaultSite::CellFail, "crc|baseline"),
                 std::runtime_error);
    EXPECT_NO_THROW(fi.at(FaultSite::CellFail, "bitcount|baseline"));
    EXPECT_THROW(fi.at(FaultSite::Alloc, "bitcount|baseline"),
                 std::bad_alloc);
    EXPECT_NO_THROW(fi.at(FaultSite::Alloc, "crc|baseline"));
    // Unarmed sites never fire regardless of key.
    EXPECT_NO_THROW(fi.at(FaultSite::Stall, "crc|baseline"));
}

TEST(FaultInject, StallHonoursCancellation)
{
    FaultArm arm("stall:ms=10000");
    std::atomic<bool> cancel{true};   // deadline already fired
    EXPECT_THROW(
        FaultInjector::global().at(FaultSite::Stall, "k", &cancel),
        CellTimeout);
}

TEST(FaultInject, DisarmedInjectorIsFree)
{
    FaultInjector &fi = FaultInjector::global();
    EXPECT_FALSE(fi.armed());
    EXPECT_NO_THROW(faultPoint(FaultSite::CellFail, "k"));
}

// ------------------------------------------------------- failure domains

TEST(FaultSweep, PermanentFaultCostsOnlyItsCells)
{
    SweepSpec spec = testSpec();
    FaultArm arm("fail@crc");
    ExperimentEngine engine(2);
    SweepResult r = engine.sweep(spec);

    ASSERT_EQ(r.cells.size(), 4u);
    for (std::size_t row = 0; row < r.rows.size(); ++row) {
        for (std::size_t col = 0; col < r.columns.size(); ++col) {
            const SweepCell &c = r.at(row, col);
            if (r.rows[row] == "crc") {
                EXPECT_EQ(c.outcome, CellOutcome::Failed);
                EXPECT_FALSE(c.error.empty());
                EXPECT_FALSE(c.timed);   // no stats survive a failure
            } else {
                EXPECT_EQ(c.outcome, CellOutcome::Ok);
                EXPECT_TRUE(c.timed);
            }
        }
    }
    std::string digest = outcomeSummary(r);
    EXPECT_NE(digest.find("2 ok"), std::string::npos) << digest;
    EXPECT_NE(digest.find("2 failed"), std::string::npos) << digest;
}

TEST(FaultSweep, AllocFailureIsContained)
{
    SweepSpec spec = testSpec();
    FaultArm arm("alloc@bitcount|int-mem");
    ExperimentEngine engine(2);
    SweepResult r = engine.sweep(spec);

    int failed = 0;
    for (const SweepCell &c : r.cells)
        failed += c.outcome == CellOutcome::Failed;
    EXPECT_EQ(failed, 1);
    EXPECT_EQ(r.at(1, 1).outcome, CellOutcome::Failed);
    EXPECT_NE(r.at(1, 1).error.find("bad_alloc"), std::string::npos);
}

TEST(FaultSweep, StallTimesOutUnderDeadline)
{
    SweepSpec spec = testSpec();
    FaultArm arm("stall@crc:ms=10000");
    ExperimentEngine engine(2);
    // The deadline must be long enough that the healthy cells always
    // finish inside it — including under TSan's ~10x slowdown (the
    // stalled cells still cancel ~2ms past the deadline, so the test
    // pays the deadline, not the 10s stall).
    engine.setFaultPolicy(FaultPolicy{1.0});
    SweepResult r = engine.sweep(spec);

    for (std::size_t col = 0; col < r.columns.size(); ++col)
        EXPECT_EQ(r.at(0, col).outcome, CellOutcome::TimedOut);
    EXPECT_EQ(r.at(1, 0).outcome, CellOutcome::Ok);
}

TEST(FaultSweep, DeadlineCancelsARealSimulation)
{
    // No injection: a genuinely long cell must be cancelled by the
    // cooperative poll inside the timing loop itself. The M-scale
    // variant runs for hundreds of milliseconds, so a 10ms deadline
    // always fires mid-simulation.
    SweepSpec spec;
    spec.title = "deadline test";
    spec.workloads = {
        workload(bindKernel(findKernel("crc"), Scale::Long))};
    spec.columns = {{"baseline", SimConfig::baseline(), true}};
    ExperimentEngine engine(1);
    engine.setFaultPolicy(FaultPolicy{0.01});
    SweepResult r = engine.sweep(spec);

    ASSERT_EQ(r.cells.size(), 1u);
    EXPECT_EQ(r.cells[0].outcome, CellOutcome::TimedOut);
    EXPECT_FALSE(r.cells[0].timed);
}

TEST(FaultSweep, UnfiredPolicyIsByteIdenticalToNoPolicy)
{
    SweepSpec spec = testSpec();
    SweepResult plain = ExperimentEngine(2).sweep(spec);

    ExperimentEngine engine(2);
    engine.setFaultPolicy(FaultPolicy{600});   // generous: never fires
    SweepResult guarded = engine.sweep(spec);
    expectCellsEqual(plain, guarded);
}

TEST(FaultSweep, FaultFieldsReachTheJsonOnlyWhenFaulted)
{
    ScratchDir dir("json");
    SweepSpec spec = testSpec();

    SweepResult clean = ExperimentEngine(2).sweep(spec);
    std::string cleanPath = dir.str() + "/clean.json";
    ASSERT_EQ(writeSweepJson(clean, "fault", cleanPath), cleanPath);

    FaultArm arm("fail@crc");
    ExperimentEngine engine(2);
    SweepResult faulted = engine.sweep(spec);
    std::string faultPath = dir.str() + "/faulted.json";
    ASSERT_EQ(writeSweepJson(faulted, "fault", faultPath), faultPath);

    auto slurp = [](const std::string &p) {
        std::ifstream in(p);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };
    std::string cleanJson = slurp(cleanPath);
    EXPECT_EQ(cleanJson.find("\"outcome\""), std::string::npos);
    EXPECT_EQ(cleanJson.find("\"journal\""), std::string::npos);

    std::string faultJson = slurp(faultPath);
    EXPECT_NE(faultJson.find("\"outcome\": \"failed\""),
              std::string::npos);
    EXPECT_NE(faultJson.find("\"error\""), std::string::npos);
    // Ok cells carry no outcome ("ok" is implied by absence, and must
    // never be emitted).
    EXPECT_EQ(faultJson.find("\"outcome\": \"ok\""), std::string::npos);
}

// ------------------------------------------------------------ dry run

TEST(DryRun, PlansWithoutSimulating)
{
    SweepSpec spec = testSpec();
    ExperimentEngine engine(2);
    engine.setDryRun(true);
    SweepResult r = engine.sweep(spec);

    EXPECT_TRUE(r.planOnly);
    ASSERT_EQ(r.cells.size(), 4u);
    for (const SweepCell &c : r.cells) {
        EXPECT_EQ(c.outcome, CellOutcome::Skipped);
        EXPECT_FALSE(c.timed);
    }
    EngineCounters ec = engine.counters();
    EXPECT_EQ(ec.profileComputes, 0u);
    EXPECT_EQ(ec.runComputes, 0u);
    // A plan is not a report.
    EXPECT_EQ(writeSweepJson(r, "plan", "/tmp/never-written.json"), "");
}

// ------------------------------------------------------------- journal

TEST(Journal, RecordsReplayAndLookup)
{
    ScratchDir dir("roundtrip");
    {
        SweepJournal j;
        ASSERT_TRUE(j.open(dir.str(), 0x1234));
        EXPECT_TRUE(j.attached());
        EXPECT_EQ(j.replayed(), 0u);
        j.record(1, makeCell(1));
        j.record(2, makeCell(2));
        j.record(1, makeCell(7));   // idempotent: first write wins
        EXPECT_EQ(j.recorded(), 2u);
    }
    SweepJournal j;
    ASSERT_TRUE(j.open(dir.str(), 0x1234));
    EXPECT_EQ(j.replayed(), 2u);
    SweepCell c;
    ASSERT_TRUE(j.lookup(1, c));
    EXPECT_TRUE(c.journalHit);
    EXPECT_EQ(c.stats, makeCell(1).stats);   // not the re-record
    EXPECT_FALSE(j.lookup(3, c));

    // A different spec fingerprint is a different file: no crosstalk.
    SweepJournal other;
    ASSERT_TRUE(other.open(dir.str(), 0x9999));
    EXPECT_EQ(other.replayed(), 0u);
}

TEST(Journal, TornTailIsTruncatedNotFatal)
{
    ScratchDir dir("torn");
    {
        SweepJournal j;
        ASSERT_TRUE(j.open(dir.str(), 0xabcd));
        for (std::uint64_t i = 1; i <= 3; ++i)
            j.record(i, makeCell(i));
    }
    fs::path file = journalFile(dir);
    ASSERT_FALSE(file.empty());
    std::uintmax_t intact = fs::file_size(file);

    // A crash mid-append leaves a torn record at the tail.
    std::ofstream(file, std::ios::app | std::ios::binary)
        << "\x40\x00\x00\x00torn";
    {
        SweepJournal j;
        ASSERT_TRUE(j.open(dir.str(), 0xabcd));
        EXPECT_EQ(j.replayed(), 3u);   // everything fsync'd survives
    }
    EXPECT_EQ(fs::file_size(file), intact);
}

TEST(Journal, CorruptRecordTruncatesFromThere)
{
    ScratchDir dir("corrupt");
    {
        SweepJournal j;
        ASSERT_TRUE(j.open(dir.str(), 0xabcd));
        for (std::uint64_t i = 1; i <= 3; ++i)
            j.record(i, makeCell(i));
    }
    fs::path file = journalFile(dir);
    flipByte(file, -4);   // inside the last record's payload
    SweepJournal j;
    ASSERT_TRUE(j.open(dir.str(), 0xabcd));
    EXPECT_EQ(j.replayed(), 2u);   // checksum cuts the bad tail off
    j.record(9, makeCell(9));      // and appends still work
    EXPECT_EQ(j.recorded(), 3u);
}

TEST(Journal, BadHeaderRestartsFresh)
{
    ScratchDir dir("header");
    {
        SweepJournal j;
        ASSERT_TRUE(j.open(dir.str(), 0xabcd));
        j.record(1, makeCell(1));
    }
    flipByte(journalFile(dir), 0);   // not our magic any more
    {
        SweepJournal j;
        ASSERT_TRUE(j.open(dir.str(), 0xabcd));
        EXPECT_EQ(j.replayed(), 0u);   // distrust the whole file
        j.record(2, makeCell(2));
    }
    SweepJournal j;
    ASSERT_TRUE(j.open(dir.str(), 0xabcd));
    EXPECT_EQ(j.replayed(), 1u);   // the restarted file is valid
}

TEST(Journal, UnusableDirectoryDegradesToNoOp)
{
    SweepJournal j;
    EXPECT_FALSE(j.open("/proc/no-such-dir/journal", 0x1));
    EXPECT_FALSE(j.attached());
    j.record(1, makeCell(1));   // must not crash
    SweepCell c;
    EXPECT_FALSE(j.lookup(1, c));
}

TEST(Journal, ResumedSweepSkipsFinishedCells)
{
    ScratchDir dir("resume");
    SweepSpec spec = testSpec();

    ExperimentEngine first(2);
    first.setJournalDir(dir.str());
    SweepResult a = first.sweep(spec);
    EXPECT_TRUE(a.journalAttached);
    EXPECT_EQ(a.journalRecorded, a.cells.size());

    // Same spec, fresh engine: every cell replays, nothing simulates.
    ExperimentEngine second(2);
    second.setJournalDir(dir.str());
    SweepResult b = second.sweep(spec);
    expectCellsEqual(a, b);
    EXPECT_EQ(b.journalRecorded, a.journalRecorded);
    EngineCounters ec = second.counters();
    EXPECT_EQ(ec.profileComputes, 0u);
    EXPECT_EQ(ec.runComputes, 0u);
}

TEST(Journal, OnlyOkCellsJournalSoFailuresRetryOnResume)
{
    ScratchDir dir("heal");
    SweepSpec spec = testSpec();
    SweepResult clean = ExperimentEngine(2).sweep(spec);

    {
        // First run: crc permanently fails, bitcount succeeds.
        FaultArm arm("fail@crc");
        ExperimentEngine engine(2);
        engine.setJournalDir(dir.str());
        SweepResult r = engine.sweep(spec);
        EXPECT_EQ(r.journalRecorded, 2u);   // the two Ok cells only
    }
    // The fault "was transient at machine scale": rerunning without it
    // must re-simulate exactly the failed cells and converge to the
    // fault-free sweep.
    ExperimentEngine engine(2);
    engine.setJournalDir(dir.str());
    SweepResult r = engine.sweep(spec);
    expectCellsEqual(clean, r);
    EXPECT_EQ(r.journalRecorded, 4u);
    EngineCounters ec = engine.counters();
    EXPECT_EQ(ec.profileComputes, 1u);   // crc's artifacts only
}

TEST(Journal, DryRunReportsHitsWithoutTouchingTheJournal)
{
    ScratchDir dir("plan");
    SweepSpec spec = testSpec();
    {
        ExperimentEngine engine(2);
        engine.setJournalDir(dir.str());
        engine.sweep(spec);
    }
    std::uintmax_t size = fs::file_size(journalFile(dir));
    ExperimentEngine engine(2);
    engine.setJournalDir(dir.str());
    engine.setDryRun(true);
    SweepResult r = engine.sweep(spec);
    EXPECT_TRUE(r.planOnly);
    for (const SweepCell &c : r.cells) {
        EXPECT_EQ(c.outcome, CellOutcome::Skipped);
        EXPECT_TRUE(c.journalHit);
    }
    EXPECT_EQ(fs::file_size(journalFile(dir)), size);   // read-only
}
