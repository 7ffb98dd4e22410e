#include "engine/engine.hh"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "common/failsoft.hh"
#include "common/logging.hh"
#include "common/serial.hh"
#include "engine/fault_inject.hh"
#include "engine/fingerprint.hh"
#include "engine/journal.hh"
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

/**
 * One timer thread enforcing every in-flight cell's deadline.
 * arm() registers a cancel flag with a deadline; the thread sets the
 * flag once the deadline passes (the cell's poll points then throw
 * CellTimeout); disarm() withdraws it. Flags are only ever set under
 * the watchdog lock, so after disarm() returns the flag — typically a
 * worker's stack variable — is guaranteed untouched.
 */
class DeadlineWatchdog
{
  public:
    DeadlineWatchdog() : th_([this] { loop(); }) {}

    ~DeadlineWatchdog()
    {
        {
            std::lock_guard<std::mutex> g(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        th_.join();
    }

    std::uint64_t
    arm(std::atomic<bool> *flag, double seconds)
    {
        std::lock_guard<std::mutex> g(mu_);
        std::uint64_t id = ++seq_;
        armed_[id] = {std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(seconds)),
                      flag};
        cv_.notify_all();
        return id;
    }

    void
    disarm(std::uint64_t id)
    {
        std::lock_guard<std::mutex> g(mu_);
        armed_.erase(id);
    }

  private:
    struct Entry
    {
        std::chrono::steady_clock::time_point deadline;
        std::atomic<bool> *flag;
    };

    void
    loop()
    {
        std::unique_lock<std::mutex> g(mu_);
        while (!stop_) {
            if (armed_.empty()) {
                cv_.wait(g);
                continue;
            }
            auto next = armed_.begin()->second.deadline;
            for (const auto &[id, e] : armed_)
                next = std::min(next, e.deadline);
            cv_.wait_until(g, next);
            auto now = std::chrono::steady_clock::now();
            for (auto it = armed_.begin(); it != armed_.end();) {
                if (it->second.deadline <= now) {
                    it->second.flag->store(true,
                                           std::memory_order_relaxed);
                    it = armed_.erase(it);
                } else {
                    ++it;
                }
            }
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::uint64_t, Entry> armed_;
    std::uint64_t seq_ = 0;
    bool stop_ = false;
    std::thread th_;   ///< last member: starts after the state above
};

ExperimentEngine::ExperimentEngine(int jobs)
{
    if (jobs == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        jobs = hw ? static_cast<int>(hw) : 1;
    }
    jobs_ = jobs < 1 ? 1 : jobs;
}

ExperimentEngine::~ExperimentEngine() = default;

void
ExperimentEngine::setFaultPolicy(const FaultPolicy &p)
{
    policy_ = p;
    if (policy_.cellTimeoutS > 0 && !watchdog_)
        watchdog_ = std::make_unique<DeadlineWatchdog>();
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
                            const std::atomic<bool> *cancel)
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
        ts.stats = runCell(*w.program, prep, cfg, w.setup, cancel,
                           &ts.critpath);
        ts.seconds = secondsSince(t0);
        return ts;
    });
}

CheckpointStore *
ExperimentEngine::storeFor(const SamplingParams &sp) const
{
    // The store serves sampled runs only: degenerate parameters run
    // exactly, and full simulation has nothing to warm.
    if (store_ && store_->enabled() && !sp.degenerate())
        return store_.get();
    return nullptr;
}

std::shared_ptr<const SampleSummary>
ExperimentEngine::summary(const EngineWorkload &w, const SimConfig &cfg,
                          const std::atomic<bool> *cancel)
{
    // The summary depends on the executed binary, not on the machine:
    // identify it by the workload plus (for mini-graph configs) the
    // prepare fingerprint of the rewrite that produced the binary.
    std::string variant = w.id;
    if (cfg.useMiniGraphs) {
        variant += "|" +
            prepareFingerprint(
                profileFingerprint(w.id, cfg.profileBudget), cfg.policy,
                cfg.machine, cfg.compress);
    }
    std::string key = summaryFingerprint(variant, cfg.sampling,
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
        const Program *prog = w.program;
        const MgTable *mgt = nullptr;
        std::shared_ptr<const PreparedMg> prep;
        if (cfg.useMiniGraphs) {
            prep = prepare(w, cfg);
            prog = &prep->program;
            mgt = &prep->table;
        }
        SampleSummary sum = collectSampleSummary(*prog, mgt, w.setup,
                                                 cfg.sampling,
                                                 cfg.runBudget, cancel);
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
                                   const std::atomic<bool> *cancel)
{
    std::string key = cellFingerprint(w.id, cfg);
    return *sampledRuns.get(key, [&]() -> TimedSampled {
        auto sum = summary(w, cfg, cancel);
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
        // cell always measures the same spans, so warm-store records
        // and journal replays stay coherent) without being part of the
        // key itself — the mapping key -> salt is fixed, so keying it
        // would be redundant. De-correlates measurement placement
        // from the period grid (the huge-tier jpeg.dct alias).
        SimConfig run = cfg;
        std::uint64_t salt = fnv1a64(key.data(), key.size());
        run.sampling.phaseSalt = salt ? salt : 1;
        auto t0 = std::chrono::steady_clock::now();
        SampledStats s = runCellSampled(*w.program, prep, run, w.setup,
                                        *sum, client.get(), cancel);
        return {s, secondsSince(t0)};
    });
}

SweepCell
ExperimentEngine::computeCell(const EngineWorkload &w,
                              const SweepColumn &col,
                              const std::atomic<bool> *cancel)
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
            TimedSampled ts = cellSampledTimed(w, col.config, cancel);
            out.sampled = ts.stats;
            out.stats = out.sampled.est;
            out.sampledRun = true;
            out.wallSeconds = ts.seconds;
        } else {
            // The critical-path trace rides in this same run; sampled
            // cells above never trace.
            TimedStats ts = cellTimed(w, col.config, cancel);
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
    // Fault-injection sites key on the cell's sweep identity.
    const std::string cellKey = w.id + "|" + col.name;
    // Per-cell deadline: the watchdog sets the flag, the timing loop /
    // functional pre-pass polls it and throws CellTimeout. The flag
    // lives on this frame; the watchdog never touches it after
    // disarm() returns.
    std::atomic<bool> cancelFlag{false};
    const bool armed = watchdog_ && policy_.cellTimeoutS > 0;
    std::uint64_t wdId = 0;
    if (armed)
        wdId = watchdog_->arm(&cancelFlag, policy_.cellTimeoutS);
    SweepCell out;
    try {
        faultPoint(FaultSite::Stall, cellKey, &cancelFlag);
        faultPoint(FaultSite::Alloc, cellKey);
        faultPoint(FaultSite::CellFail, cellKey);
        out = computeCell(w, col, &cancelFlag);
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
    if (armed)
        watchdog_->disarm(wdId);
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

    // Journal keys: the computation fingerprint (not the display
    // name) per cell, and a whole-spec fingerprint naming the journal
    // file — rerunning the same spec resumes its journal, any other
    // spec gets its own.
    std::vector<std::uint64_t> fps;
    std::unique_ptr<SweepJournal> journal;
    if (!journalDir_.empty() || dryRun_) {
        fps.resize(out.cells.size());
        std::uint64_t specFp =
            fnv1a64(spec.title.data(), spec.title.size());
        for (std::size_t i = 0; i < out.cells.size(); ++i) {
            const SweepColumn &col = spec.columns[i % cols];
            std::string fp =
                cellFingerprint(spec.workloads[i / cols].id,
                                col.config) +
                (col.timing ? "|timed" : "|prepare-only");
            fps[i] = fnv1a64(fp.data(), fp.size());
            specFp = fnv1a64(&fps[i], sizeof fps[i], specFp);
        }
        if (!journalDir_.empty()) {
            journal = std::make_unique<SweepJournal>();
            journal->open(journalDir_, specFp);
        }
    }

    if (dryRun_) {
        // Plan only: report what would run and what the journal
        // already holds; simulate nothing.
        out.planOnly = true;
        std::printf("== sweep plan: %s (%zu cells) ==\n",
                    spec.title.c_str(), out.cells.size());
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i < out.cells.size(); ++i) {
            SweepCell &cell = out.cells[i];
            cell.outcome = CellOutcome::Skipped;
            std::string note;
            if (journal) {
                SweepCell j;
                cell.journalHit = journal->lookup(fps[i], j);
                hits += cell.journalHit;
                note = cell.journalHit ? " journal=hit"
                                       : " journal=miss";
            }
            if (!spec.columns[i % cols].timing)
                note += " prepare-only";
            std::printf("  %-16s %-24s fp=%016llx%s\n",
                        spec.workloads[i / cols].id.c_str(),
                        spec.columns[i % cols].name.c_str(),
                        static_cast<unsigned long long>(fps[i]),
                        note.c_str());
        }
        if (journal)
            std::printf("  journal: %llu/%zu cells already recorded "
                        "in %s\n",
                        static_cast<unsigned long long>(hits),
                        out.cells.size(), journal->path().c_str());
        return out;
    }

    CheckpointStoreCounters before;
    if (store_)
        before = store_->counters();
    ThreadPool::parallelFor(jobs_, out.cells.size(), [&](std::size_t i) {
        if (journal) {
            SweepCell hit;
            if (journal->lookup(fps[i], hit)) {
                out.cells[i] = std::move(hit);
                return;
            }
        }
        out.cells[i] = runOne(spec.workloads[i / cols],
                              spec.columns[i % cols]);
        // Only Ok cells are journaled: a failed or timed-out cell
        // re-simulates on resume, so a resumed sweep converges to
        // exactly what an uninterrupted one reports.
        if (journal && out.cells[i].outcome == CellOutcome::Ok)
            journal->record(fps[i], out.cells[i]);
    });
    if (store_) {
        CheckpointStoreCounters d = store_->counters() - before;
        out.storeAttached = true;
        out.storeHits = d.hits;
        out.storeMisses = d.misses;
        out.storeWritebacks = d.writebacks;
        out.storeCorrupt = d.corrupt;
        out.storeEvictions = d.evictions;
    }
    if (journal) {
        out.journalAttached = true;
        out.journalRecorded = journal->recorded();
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
