#include "engine/engine.hh"

#include <chrono>
#include <thread>

#include "common/failsoft.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "engine/fingerprint.hh"
#include "engine/thread_pool.hh"

namespace mg {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

ExperimentEngine::ExperimentEngine(int jobs)
{
    if (jobs == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        jobs = hw ? static_cast<int>(hw) : 1;
    }
    jobs_ = jobs < 1 ? 1 : jobs;
}

std::shared_ptr<const BlockProfile>
ExperimentEngine::profile(const EngineWorkload &w, std::uint64_t budget)
{
    std::string key = profileFingerprint(w.id, budget);
    return profiles.get(key, [&] {
        return collectProfile(*w.program, w.setup, budget);
    });
}

std::shared_ptr<const PreparedMg>
ExperimentEngine::prepare(const EngineWorkload &w, const SimConfig &cfg)
{
    std::string profKey = profileFingerprint(w.id, cfg.profileBudget);
    std::string key = prepareFingerprint(profKey, cfg.policy, cfg.machine,
                                         cfg.compress);
    return prepared.get(key, [&] {
        auto prof = profile(w, cfg.profileBudget);
        return prepareMiniGraphs(*w.program, *prof, cfg.policy,
                                 cfg.machine, cfg.compress);
    });
}

CoreStats
ExperimentEngine::cell(const EngineWorkload &w, const SimConfig &cfg)
{
    return cellTimed(w, cfg).stats;
}

TimedStats
ExperimentEngine::cellTimed(const EngineWorkload &w, const SimConfig &cfg,
                            const CellDeadline *deadline)
{
    std::string key = cellFingerprint(w.id, cfg);
    return *runs.get(key, [&]() -> TimedStats {
        // Artifacts are built outside the timer: wall seconds measure
        // the cycle-accurate run itself, the simulator's hot path.
        const PreparedMg *prep = nullptr;
        std::shared_ptr<const PreparedMg> hold;
        if (cfg.useMiniGraphs) {
            hold = prepare(w, cfg);
            prep = hold.get();
        }
        TimedStats ts;
        auto t0 = std::chrono::steady_clock::now();
        ts.stats = runCell(*w.program, prep, cfg, w.setup, deadline,
                           &ts.critpath);
        ts.seconds = secondsSince(t0);
        return ts;
    });
}

CheckpointStore *
ExperimentEngine::storeFor(const SamplingParams &sp) const
{
    // The store serves sampled runs only: degenerate parameters run
    // exactly, with no summary to share and no pairs to seed.
    if (store_ && store_->enabled() && !sp.degenerate())
        return store_.get();
    return nullptr;
}

std::shared_ptr<const SampleSummary>
ExperimentEngine::summary(const EngineWorkload &w, const SimConfig &cfg,
                          const CellDeadline *deadline)
{
    // The summary depends on the executed binary, not on the machine:
    // key it by the workload plus a hash of what the emulator runs, so
    // columns whose rewrites come out identical (collapsing changes
    // only the MGT's latencies) share one pre-pass.
    const Program *prog = w.program;
    const MgTable *mgt = nullptr;
    std::shared_ptr<const PreparedMg> prep;
    if (cfg.useMiniGraphs) {
        prep = prepare(w, cfg);
        prog = &prep->program;
        mgt = &prep->table;
    }
    std::string key = summaryFingerprint(
        w.id + "|" + binaryFingerprint(*prog, mgt), cfg.sampling,
        cfg.runBudget);
    return summaries.get(key, [&]() -> SampleSummary {
        // Summaries round-trip through the checkpoint store: a warm
        // session skips the functional pre-pass entirely.
        CheckpointStore *cs = storeFor(cfg.sampling);
        std::string storeKey = "summ|" + key;
        if (cs) {
            std::vector<std::uint8_t> raw;
            if (cs->load(storeKey, raw)) {
                SerialReader r(raw);
                SampleSummary sum;
                if (deserializeSampleSummary(r, sum))
                    return sum;
                cs->reject(storeKey, "malformed summary");
            }
        }
        SampleSummary sum = collectSampleSummary(*prog, mgt, w.setup,
                                                 cfg.sampling,
                                                 cfg.runBudget, deadline);
        if (cs) {
            SerialWriter sw;
            serializeSampleSummary(sum, sw);
            cs->store(storeKey, sw.data());
        }
        return sum;
    });
}

SampledStats
ExperimentEngine::cellSampled(const EngineWorkload &w, const SimConfig &cfg)
{
    return cellSampledTimed(w, cfg).stats;
}

TimedSampled
ExperimentEngine::cellSampledTimed(const EngineWorkload &w,
                                   const SimConfig &cfg,
                                   const CellDeadline *deadline)
{
    std::string key = cellFingerprint(w.id, cfg);
    return *sampledRuns.get(key, [&]() -> TimedSampled {
        auto sum = summary(w, cfg, deadline);
        const PreparedMg *prep = nullptr;
        std::shared_ptr<const PreparedMg> hold;
        if (cfg.useMiniGraphs) {
            hold = prepare(w, cfg);
            prep = hold.get();
        }
        std::unique_ptr<CellCheckpointClient> client;
        if (storeFor(cfg.sampling))
            client = makeCellClient(*store_, key);
        // Measurement-phase salt, derived from the cell fingerprint on
        // an execution copy: deterministic across sessions (the same
        // cell always measures the same spans, so stored violation
        // pairs stay coherent) without being part of the key itself —
        // the mapping key -> salt is fixed, so keying it would be
        // redundant. De-correlates measurement placement from the
        // period grid (the huge-tier jpeg.dct alias).
        SimConfig run = cfg;
        run.sampling.phaseSalt = fnv1a64(key.data(), key.size());
        auto t0 = std::chrono::steady_clock::now();
        SampledStats s = runCellSampled(*w.program, prep, run, w.setup,
                                        *sum, client.get(), deadline);
        return {s, secondsSince(t0)};
    });
}

SweepCell
ExperimentEngine::computeCell(const EngineWorkload &w,
                              const SweepColumn &col,
                              const CellDeadline *deadline)
{
    SweepCell out;
    if (col.config.useMiniGraphs) {
        auto prep = prepare(w, col.config);
        out.staticCoverage = prep->staticCoverage;
        out.templates = prep->table.size();
        out.textSlots = prep->program.text.size();
    } else {
        out.textSlots = w.program->text.size();
    }
    if (col.timing) {
        if (col.config.sampling.enabled) {
            TimedSampled ts = cellSampledTimed(w, col.config, deadline);
            out.sampled = ts.stats;
            out.stats = out.sampled.est;
            out.sampledRun = true;
            out.wallSeconds = ts.seconds;
        } else {
            // The critical-path trace rides in this same run; sampled
            // cells above never trace.
            TimedStats ts = cellTimed(w, col.config, deadline);
            out.stats = ts.stats;
            out.critpath = ts.critpath;
            out.wallSeconds = ts.seconds;
        }
        out.timed = true;
        if (out.wallSeconds > 0) {
            out.workPerSec =
                static_cast<double>(out.stats.committedWork) /
                out.wallSeconds;
        }
    }
    return out;
}

SweepCell
ExperimentEngine::runOne(const EngineWorkload &w, const SweepColumn &col)
{
    // Per-cell deadline: the timing loop and the functional pre-pass
    // check it themselves and throw CellTimeout once it has passed.
    const CellDeadline deadline{std::chrono::steady_clock::now(),
                                cellTimeoutS_};
    SweepCell out;
    try {
        out = computeCell(w, col,
                          cellTimeoutS_ > 0 ? &deadline : nullptr);
    } catch (const CellTimeout &e) {
        out.outcome = CellOutcome::TimedOut;
        out.error = e.what();
    } catch (const std::exception &e) {
        out.outcome = CellOutcome::Failed;
        out.error = e.what();
    } catch (...) {
        out.outcome = CellOutcome::Failed;
        out.error = "unknown exception";
    }
    return out;
}

SweepResult
ExperimentEngine::sweep(const SweepSpec &spec)
{
    SweepResult out;
    out.title = spec.title;
    out.baselineColumn = spec.baselineColumn;
    for (const EngineWorkload &w : spec.workloads) {
        out.rows.push_back(w.id);
        out.suites.push_back(w.suite);
    }
    for (const SweepColumn &c : spec.columns)
        out.columns.push_back(c.name);

    std::size_t cols = spec.columns.size();
    out.cells.resize(spec.workloads.size() * cols);

    CheckpointStoreCounters before;
    if (store_)
        before = store_->counters();
    // Dispatch column by column (results still land in row-major
    // slots): cells that share a binary, and so a summary pre-pass,
    // sit in neighbouring columns and are never dispatched back to
    // back, so no worker blocks on a sibling's pre-pass.
    std::size_t rows = spec.workloads.size();
    ThreadPool::parallelFor(jobs_, out.cells.size(), [&](std::size_t k) {
        std::size_t i = (k % rows) * cols + k / rows;
        out.cells[i] = runOne(spec.workloads[i / cols],
                              spec.columns[i % cols]);
    });
    if (store_) {
        CheckpointStoreCounters d = store_->counters() - before;
        out.storeAttached = true;
        out.storeHits = d.hits;
        out.storeMisses = d.misses;
        out.storeWritebacks = d.writebacks;
        out.storeCorrupt = d.corrupt;
    }
    return out;
}

EngineCounters
ExperimentEngine::counters() const
{
    EngineCounters c;
    c.profileComputes = profiles.computes();
    c.profileHits = profiles.hits();
    c.prepareComputes = prepared.computes();
    c.prepareHits = prepared.hits();
    c.runComputes = runs.computes();
    c.runHits = runs.hits();
    c.summaryComputes = summaries.computes();
    c.summaryHits = summaries.hits();
    c.sampledComputes = sampledRuns.computes();
    c.sampledHits = sampledRuns.hits();
    return c;
}

} // namespace mg
