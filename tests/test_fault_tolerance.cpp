/**
 * @file
 * Fault-tolerance battery: the failure-domain and deadline layers of
 * the sweep engine.
 *
 * Failures come from the cells' own inputs: a row whose workload
 * setup throws (a runtime error, an allocation failure) or sleeps
 * past the deadline stands in for a buggy, memory-starved or hung
 * kernel.
 *
 * Two layers, innermost out:
 *  - primitives: FailSoftGate latching, parallelFor exception
 *    containment (a throwing index must not skip its neighbours or be
 *    silently swallowed);
 *  - per-cell failure domains: a failing or hung row costs exactly
 *    its own cells, and the sweep always completes.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/failsoft.hh"
#include "engine/engine.hh"
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

/** Replace the setup of @p spec's row named @p id. */
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
        engine.setCellTimeout(1.0);
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
    engine.setCellTimeout(0.01);
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
        engine.setCellTimeout(timeout);
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

    std::string faultJson = slurp(faultPath);
    EXPECT_NE(faultJson.find("\"outcome\": \"failed\""),
              std::string::npos);
    EXPECT_NE(faultJson.find("\"error\": \"input planting failed\""),
              std::string::npos);
    // Ok cells carry no outcome ("ok" is implied by absence, and must
    // never be emitted).
    EXPECT_EQ(faultJson.find("\"outcome\": \"ok\""), std::string::npos);
}
