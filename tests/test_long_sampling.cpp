/**
 * @file
 * Sampled-vs-full accuracy bound on the long-workload tier (label:
 * long), now covering the complete 23-kernel corpus. Every long
 * kernel runs full and sampled (default parameters) under the
 * baseline and integer-memory machines; the battery pins the measured
 * accuracy envelope (median, quiet-cell cap, CI announcement for loud
 * cells) and the aggregate wall-clock win. The store-backed battery
 * pins violation seeding's accuracy on the historically loud cell
 * (reed/int-mem) and the storeless == cold store == warm store
 * contract. The measured figures behind these bounds are tabulated in
 * docs/EXPERIMENTS.md.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "engine/checkpoint_store.hh"
#include "engine/engine.hh"
#include "workloads/suites.hh"

using namespace mg;

TEST(LongSampling, AccuracyEnvelopeAndAggregateSpeedup)
{
    ExperimentEngine eng(0);
    std::vector<double> errs;
    double fullWall = 0, sampledWall = 0;
    for (SimConfig cfg : {SimConfig::baseline(), SimConfig::intMemMg()}) {
        for (const BoundKernel &bk : bindAll(Scale::Long)) {
            EngineWorkload w = workload(bk);
            TimedStats full = eng.cellTimed(w, cfg);
            SimConfig sc = cfg;
            sc.sampling.enabled = true;
            TimedSampled samp = eng.cellSampledTimed(w, sc);

            ASSERT_GT(full.stats.ipc(), 0.0);
            double err =
                std::abs(samp.stats.est.ipc() - full.stats.ipc()) /
                full.stats.ipc();
            // Quiet cells stay tight (measured worst 2.1%,
            // gzip/int-mem); anything beyond must announce itself
            // through the error bound. The loudest cells are reed's
            // mini-graph columns (up to ~7% storeless): its store-set
            // serialization onset is discovered at detailed-work
            // rate, and two-pass violation seeding (pinned by
            // StoreBackedReedAccuracy below) trains it through the
            // fast-forward gaps but not perfectly. This battery runs
            // storeless, which seeds exactly like a store-backed
            // session — see docs/EXPERIMENTS.md.
            if (err > 0.025) {
                EXPECT_LE(err, 2.5 * samp.stats.ipcRelCi95)
                    << w.id << "/" << cfg.name << " quiet error: sampled "
                    << samp.stats.est.ipc() << " vs full "
                    << full.stats.ipc();
            }
            // Hard absolute backstop above the worst seeded cell: a
            // CI-covered error is announced, not unbounded — a
            // regression that inflates both the error and its
            // self-reported CI (or loses the seeding, ~25% on reed)
            // must still trip.
            EXPECT_LE(err, 0.10) << w.id << "/" << cfg.name;
            EXPECT_FALSE(samp.stats.exact)
                << w.id << " degraded to exact: not a long workload?";
            errs.push_back(err);
            fullWall += full.seconds;
            sampledWall += samp.seconds;
        }
    }
    std::sort(errs.begin(), errs.end());
    // The PR 2 issue's target, now reachable on M-scale kernels:
    // median IPC error at most 2%...
    EXPECT_LE(errs[errs.size() / 2], 0.02);
    // ...at a wall-clock win. The measured aggregate is ~4x
    // single-threaded; 2x leaves headroom for noisy CI machines
    // (docs/EXPERIMENTS.md carries the real numbers).
    EXPECT_GE(fullWall, 2.0 * sampledWall)
        << "sampled long tier no longer at least halves the "
           "full-simulation wall clock";
}

TEST(LongSampling, StoreBackedReedAccuracyAndCrossSessionDeterminism)
{
    // The historically loud cell, reed/int-mem: two-pass violation
    // seeding must pull it from ~25% IPC error (a single unseeded
    // pass) to inside 4% (measured 1.87% under salted placement — the
    // bound leaves room for placement drift, not for a regression of
    // the mechanism). A cold store session must return the storeless
    // engine's stats bit for bit (the store memoizes, it never
    // changes a result), and a second session against the same
    // store directory must reproduce them too while loading — not
    // rediscovering — the summary and violation pairs.
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
        ("mg-long-store-" + std::to_string(::getpid()));
    fs::remove_all(dir);

    EngineWorkload w =
        workload(bindKernel(findKernel("reed"), Scale::Long));
    SimConfig cfg = SimConfig::intMemMg();
    double full = ExperimentEngine(1).cell(w, cfg).ipc();
    SimConfig sc = cfg;
    sc.sampling.enabled = true;

    SampledStats none = ExperimentEngine(1).cellSampled(w, sc);

    ExperimentEngine cold(1);
    cold.setCheckpointStore(std::make_shared<CheckpointStore>(
        CheckpointStoreConfig{dir.string()}));
    SampledStats a = cold.cellSampled(w, sc);
    EXPECT_LE(std::abs(a.est.ipc() - full) / full, 0.04)
        << "store-backed reed/int-mem error regressed (sampled "
        << a.est.ipc() << " vs full " << full << ")";
    // The summary and the violation pairs, nothing else.
    EXPECT_EQ(cold.checkpointStore()->counters().writebacks, 2u);
    EXPECT_EQ(a.est, none.est);
    EXPECT_EQ(a.intervals, none.intervals);
    EXPECT_EQ(a.ipcHat, none.ipcHat);
    EXPECT_EQ(a.ipcRelCi95, none.ipcRelCi95);
    EXPECT_EQ(a.ffWork, none.ffWork);
    EXPECT_EQ(a.detailedWork, none.detailedWork);

    ExperimentEngine warm(1);
    warm.setCheckpointStore(std::make_shared<CheckpointStore>(
        CheckpointStoreConfig{dir.string()}));
    SampledStats b = warm.cellSampled(w, sc);
    CheckpointStoreCounters wc = warm.checkpointStore()->counters();
    EXPECT_EQ(wc.hits, 2u);
    EXPECT_EQ(wc.misses, 0u);
    EXPECT_EQ(wc.writebacks, 0u);
    EXPECT_EQ(b.est, a.est);
    EXPECT_EQ(b.intervals, a.intervals);
    EXPECT_EQ(b.ipcHat, a.ipcHat);
    EXPECT_EQ(b.ipcRelCi95, a.ipcRelCi95);

    fs::remove_all(dir);
}

TEST(LongSampling, StoreBackedWorstCellStaysInsideDocumentedBound)
{
    // Satellite bound for the measurement-phase salt: the worst
    // store-enabled long-tier cell on record was gzip/int-mem at
    // 2.21% (docs/EXPERIMENTS.md) under grid-aligned placement; the
    // salted placement measured 0.77% on it. The documented historic
    // worst is the regression ceiling — the fix must never be the
    // thing that pushes a store-enabled cell past it.
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
        ("mg-long-worst-" + std::to_string(::getpid()));
    fs::remove_all(dir);

    EngineWorkload w =
        workload(bindKernel(findKernel("gzip"), Scale::Long));
    SimConfig cfg = SimConfig::intMemMg();
    double full = ExperimentEngine(1).cell(w, cfg).ipc();
    SimConfig sc = cfg;
    sc.sampling.enabled = true;

    ExperimentEngine eng(1);
    eng.setCheckpointStore(std::make_shared<CheckpointStore>(
        CheckpointStoreConfig{dir.string()}));
    SampledStats s = eng.cellSampled(w, sc);
    EXPECT_FALSE(s.exact);
    EXPECT_LE(std::abs(s.est.ipc() - full) / full, 0.0221)
        << "store-enabled gzip/int-mem error beyond the documented "
           "worst: sampled " << s.est.ipc() << " vs full " << full;

    fs::remove_all(dir);
}

TEST(LongSampling, SummarySharedAcrossScalesIsKeyedApart)
{
    // The same kernel at the two scales must produce two summary
    // artifacts (different inputs), not one: the "@long" id suffix is
    // what keeps the fingerprints apart.
    ExperimentEngine eng(1);
    SimConfig sc = SimConfig::baseline();
    sc.sampling.enabled = true;
    eng.cellSampled(workload(bindKernel(findKernel("bitcount"))), sc);
    eng.cellSampled(
        workload(bindKernel(findKernel("bitcount"), Scale::Long)), sc);
    EngineCounters c = eng.counters();
    EXPECT_EQ(c.summaryComputes, 2u);
    EXPECT_EQ(c.summaryHits, 0u);
    EXPECT_EQ(c.sampledComputes, 2u);
}
