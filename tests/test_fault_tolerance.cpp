/**
 * @file
 * Fault-tolerance battery: the failure-domain, timeout, and crash
 * journal layers of the sweep engine.
 *
 * Failures come from the cells' own inputs: a row whose workload
 * setup throws (a runtime error, an allocation failure) or sleeps
 * past the deadline stands in for a buggy, memory-starved or hung
 * kernel.
 *
 * Three layers, innermost out:
 *  - primitives: FailSoftGate latching, SweepCell serialization round
 *    trips, parallelFor exception containment (a throwing index must
 *    not skip its neighbours or be silently swallowed);
 *  - per-cell failure domains: a failing or hung row costs exactly
 *    its own cells, and the sweep always completes;
 *  - the crash-safe journal: resume skips finished cells and
 *    converges to the uninterrupted sweep (also when a storeless
 *    journal is resumed with a checkpoint store), torn tails and
 *    corrupt records truncate instead of poisoning, only Ok cells
 *    replay.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/failsoft.hh"
#include "common/serial.hh"
#include "engine/engine.hh"
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

/** Setups that make a row fail for its own reasons. */
void
throwRuntimeError(Emulator &)
{
    throw std::runtime_error("input planting failed");
}

void
throwBadAlloc(Emulator &)
{
    throw std::bad_alloc();
}

/** Replace the setup of @p spec's row named @p id. The row keeps its
 *  id, so its journal key matches the healthy row's: a later sweep of
 *  the unmodified spec resumes the same journal. */
SweepSpec
failingRow(SweepSpec spec, const std::string &id, SetupFn setup)
{
    for (EngineWorkload &w : spec.workloads) {
        if (w.id == id)
            w.setup = std::move(setup);
    }
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

// ------------------------------------------------------- failure domains

TEST(FaultSweep, PermanentFaultCostsOnlyItsCells)
{
    SweepSpec spec = failingRow(testSpec(), "crc", throwRuntimeError);
    ExperimentEngine engine(2);
    SweepResult r = engine.sweep(spec);

    ASSERT_EQ(r.cells.size(), 4u);
    for (std::size_t row = 0; row < r.rows.size(); ++row) {
        for (std::size_t col = 0; col < r.columns.size(); ++col) {
            const SweepCell &c = r.at(row, col);
            if (r.rows[row] == "crc") {
                EXPECT_EQ(c.outcome, CellOutcome::Failed);
                EXPECT_EQ(c.error, "input planting failed");
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
    SweepSpec spec = failingRow(testSpec(), "bitcount", throwBadAlloc);
    ExperimentEngine engine(2);
    SweepResult r = engine.sweep(spec);

    // A throwing setup fails both of its row's columns: the baseline
    // run and the mini-graph column's profiling pass both plant the
    // inputs.
    for (std::size_t col = 0; col < r.columns.size(); ++col) {
        EXPECT_EQ(r.at(0, col).outcome, CellOutcome::Ok);
        EXPECT_EQ(r.at(1, col).outcome, CellOutcome::Failed);
        EXPECT_NE(r.at(1, col).error.find("bad_alloc"),
                  std::string::npos);
    }
}

TEST(FaultSweep, StallTimesOutUnderDeadline)
{
    // crc's setup hangs past the deadline; the first deadline poll
    // after it then ends the cell: the timing loop's in a full run,
    // the functional pre-pass's in a sampled one (--sample-interval
    // 1000). The deadline must be long enough that the healthy cells
    // always finish inside it, including under TSan's ~10x slowdown.
    for (bool sampled : {false, true}) {
        SCOPED_TRACE(sampled ? "sampled" : "full");
        SweepSpec spec = failingRow(testSpec(), "crc", [](Emulator &) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1500));
        });
        for (SweepColumn &c : spec.columns)
            c.config.sampling.enabled = sampled;
        ExperimentEngine engine(2);
        engine.setFaultPolicy(FaultPolicy{1.0});
        SweepResult r = engine.sweep(spec);

        const char *site = sampled ? "functional pre-pass" : "timing loop";
        for (std::size_t col = 0; col < r.columns.size(); ++col) {
            EXPECT_EQ(r.at(0, col).outcome, CellOutcome::TimedOut);
            EXPECT_NE(r.at(0, col).error.find(site), std::string::npos)
                << r.at(0, col).error;
            EXPECT_FALSE(r.at(0, col).timed);
            EXPECT_EQ(r.at(1, col).outcome, CellOutcome::Ok);
            EXPECT_EQ(r.at(1, col).sampledRun, sampled);
        }
    }
}

TEST(FaultSweep, DeadlineCancelsARealSimulation)
{
    // A genuinely long cell must be cancelled by the cooperative poll
    // inside the timing loop itself. The M-scale
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

    // 600 s is generous; 1e30 s is past what the clock can represent
    // and must saturate to "never", not overflow into the past.
    for (double timeout : {600.0, 1e30}) {
        SCOPED_TRACE(timeout);
        ExperimentEngine engine(2);
        engine.setFaultPolicy(FaultPolicy{timeout});
        SweepResult guarded = engine.sweep(spec);
        expectCellsEqual(plain, guarded);
    }
}

TEST(FaultSweep, FaultFieldsReachTheJsonOnlyWhenFaulted)
{
    ScratchDir dir("json");
    SweepSpec spec = testSpec();

    SweepResult clean = ExperimentEngine(2).sweep(spec);
    std::string cleanPath = dir.str() + "/clean.json";
    ASSERT_EQ(writeSweepJson(clean, "fault", cleanPath), cleanPath);

    ExperimentEngine engine(2);
    SweepResult faulted =
        engine.sweep(failingRow(spec, "crc", throwRuntimeError));
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
    EXPECT_NE(faultJson.find("\"error\": \"input planting failed\""),
              std::string::npos);
    // Ok cells carry no outcome ("ok" is implied by absence, and must
    // never be emitted).
    EXPECT_EQ(faultJson.find("\"outcome\": \"ok\""), std::string::npos);
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
        // First run: crc fails, bitcount succeeds.
        ExperimentEngine engine(2);
        engine.setJournalDir(dir.str());
        SweepResult r =
            engine.sweep(failingRow(spec, "crc", throwRuntimeError));
        EXPECT_EQ(r.journalRecorded, 2u);   // the two Ok cells only
    }
    // The failure was the process's, not the cell's (say, memory
    // exhaustion): rerunning with healthy inputs must re-simulate
    // exactly the failed cells and converge to the fault-free sweep.
    ExperimentEngine engine(2);
    engine.setJournalDir(dir.str());
    SweepResult r = engine.sweep(spec);
    expectCellsEqual(clean, r);
    EXPECT_EQ(r.journalRecorded, 4u);
    EngineCounters ec = engine.counters();
    EXPECT_EQ(ec.profileComputes, 1u);   // crc's artifacts only
}

TEST(Journal, ResumingAStorelessJournalWithAStoreMatchesAStoreSweep)
{
    // reed's sampled int-mem cell discovers store-set violations, so
    // it runs the seeded second pass; gzip's is a plain sampled cell.
    // The journal key does not record whether a store was attached,
    // so a sweep journaled storeless and resumed with a store mixes
    // both kinds of cell — which is only sound because a store
    // memoizes and never changes a result.
    SweepSpec spec;
    spec.title = "store modes";
    for (const char *name : {"reed", "gzip"})
        spec.workloads.push_back(workload(bindKernel(findKernel(name))));
    SimConfig sc = SimConfig::intMemMg();
    sc.sampling.enabled = true;
    sc.sampling.interval = 200;
    sc.sampling.period = 2400;
    sc.sampling.warmup = 400;
    spec.columns = {{"int-mem", sc, true}};
    auto attachStore = [](ExperimentEngine &e, const ScratchDir &d) {
        e.setCheckpointStore(std::make_shared<CheckpointStore>(
            CheckpointStoreConfig{d.str()}));
    };

    ScratchDir wholeJournal("modes-whole-journal");
    ScratchDir wholeStore("modes-whole-store");
    ExperimentEngine whole(2);
    whole.setJournalDir(wholeJournal.str());
    attachStore(whole, wholeStore);
    SweepResult want = whole.sweep(spec);

    ScratchDir journal("modes-journal");
    {
        // The storeless session fails gzip: only reed is journaled.
        ExperimentEngine storeless(2);
        storeless.setJournalDir(journal.str());
        SweepSpec broken = failingRow(spec, "gzip", throwBadAlloc);
        EXPECT_EQ(storeless.sweep(broken).journalRecorded, 1u);
    }
    ScratchDir store("modes-store");
    ExperimentEngine resumed(2);
    resumed.setJournalDir(journal.str());
    attachStore(resumed, store);
    SweepResult got = resumed.sweep(spec);
    EXPECT_EQ(resumed.counters().sampledComputes, 1u);   // gzip only

    // Store traffic (the checkpoint_store block and per-cell
    // ckpt_* counters) says how a result was reached — the resumed
    // session computed one cell, not two — so it is set aside.
    want.storeAttached = false;
    got.storeAttached = false;
    EXPECT_EQ(sweepJson(got, "modes"), sweepJson(want, "modes"));
}
