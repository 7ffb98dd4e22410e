/**
 * @file
 * The ExperimentEngine: the one driver every bench and example runs
 * through. It owns thread-safe caches of the immutable experiment
 * artifacts (BlockProfile, PreparedMg, CoreStats) keyed by canonical
 * fingerprints, and executes kernel×configuration matrices on a worker
 * pool with deterministic, ordered aggregation — a parallel sweep is
 * bit-identical to a serial one because every cell is a pure function
 * of its (workload, config) key and results land in pre-assigned
 * row-major slots.
 *
 * Each cell is its own failure domain: whatever its compute throws
 * (including a workload setup that throws, or a cell overrunning its
 * deadline) becomes that cell's outcome, and every other
 * cell is unaffected. The engine has no other way to fail a cell. A
 * cell checks its own deadline on the thread that runs it, so the
 * only threads a sweep starts are ThreadPool::parallelFor's workers.
 *
 * Concurrency contract (audited across emu/uarch/mg): a cell touches
 * only its own Emulator/Core plus shared *const* artifacts; the only
 * process-global mutable state in the library is the assembly cache in
 * workloads/kernel.cpp, which serialises behind its own mutex. Setup
 * closures must be deterministic and must not capture mutable shared
 * state.
 */

#ifndef MG_ENGINE_ENGINE_HH
#define MG_ENGINE_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/artifact_cache.hh"
#include "engine/checkpoint_store.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"

namespace mg {

/** One unit of work a cell can run: a program plus its inputs. */
struct EngineWorkload
{
    std::string id;       ///< cache identity; unique per (program, setup)
    std::string suite;    ///< reporting label (may be empty)
    const Program *program = nullptr;
    SetupFn setup;        ///< deterministic input planting
};

/** One configuration column of a sweep matrix. */
struct SweepColumn
{
    std::string name;
    SimConfig config;
    /** false = compute profile/prepare artifacts only (coverage
     *  studies); the cell's stats stay zero. */
    bool timing = true;
};

/** A kernel×configuration matrix request. */
struct SweepSpec
{
    std::string title;
    std::vector<EngineWorkload> workloads;   ///< rows
    std::vector<SweepColumn> columns;
    int baselineColumn = -1;                 ///< speedup reference
};

/** A timing run plus the wall-clock its computation took. The seconds
 *  are recorded once at compute time and travel with the cached
 *  artifact, so cache hits report the cost of the original run —
 *  which is what makes per-cell simulator throughput (committed work
 *  per wall-second) comparable across sweeps and PRs. */
struct TimedStats
{
    CoreStats stats;
    double seconds = 0;
    /** Critical-path analysis of this same run (present only when the
     *  config sets critpath; the seconds then include the trace
     *  capture and analysis). */
    CritPathSummary critpath;
};

/** Sampled-run counterpart of TimedStats. */
struct TimedSampled
{
    SampledStats stats;
    double seconds = 0;
};

/** Cache effectiveness counters for one engine. */
struct EngineCounters
{
    std::uint64_t profileComputes = 0;
    std::uint64_t profileHits = 0;
    std::uint64_t prepareComputes = 0;
    std::uint64_t prepareHits = 0;
    std::uint64_t runComputes = 0;
    std::uint64_t runHits = 0;
    std::uint64_t summaryComputes = 0;
    std::uint64_t summaryHits = 0;
    std::uint64_t sampledComputes = 0;
    std::uint64_t sampledHits = 0;
};

/** The parallel, caching experiment driver. */
class ExperimentEngine
{
  public:
    /** @param jobs worker threads per sweep; <=1 serial, 0 = all
     *         hardware threads. */
    explicit ExperimentEngine(int jobs = 1);

    /** Profile @p w (cached). */
    std::shared_ptr<const BlockProfile>
    profile(const EngineWorkload &w, std::uint64_t budget);

    /** Select + rewrite @p w for @p cfg (cached; profiles on demand). */
    std::shared_ptr<const PreparedMg>
    prepare(const EngineWorkload &w, const SimConfig &cfg);

    /** End-to-end timing of one cell (cached). */
    CoreStats cell(const EngineWorkload &w, const SimConfig &cfg);

    /** cell() plus the wall-clock seconds its compute took and, when
     *  @p cfg sets critpath, the critical-path analysis of that same
     *  run. A non-null @p deadline attaches the cell's deadline to the
     *  compute (cache hits never consult it). */
    TimedStats cellTimed(const EngineWorkload &w, const SimConfig &cfg,
                         const CellDeadline *deadline = nullptr);

    /**
     * Functional sample summary for the binary @p cfg executes on
     * @p w (cached). Keyed by binary + sampling grid only, so every
     * column sharing that binary reuses one summary — and with it the
     * fast-forward checkpoints.
     */
    std::shared_ptr<const SampleSummary>
    summary(const EngineWorkload &w, const SimConfig &cfg,
            const CellDeadline *deadline = nullptr);

    /** Sampled end-to-end timing of one cell (cached). */
    SampledStats cellSampled(const EngineWorkload &w, const SimConfig &cfg);

    /** cellSampled() plus the wall-clock seconds its compute took.
     *  @p deadline as in cellTimed. */
    TimedSampled cellSampledTimed(const EngineWorkload &w,
                                  const SimConfig &cfg,
                                  const CellDeadline *deadline =
                                      nullptr);

    /**
     * Execute the full matrix. Cells are distributed over the worker
     * pool; the result layout and every cell value are independent of
     * the job count.
     *
     * Every cell runs inside its own failure domain: an exception
     * becomes that cell's CellOutcome (Failed/TimedOut) and the sweep
     * always completes with every other cell intact.
     */
    SweepResult sweep(const SweepSpec &spec);

    int jobs() const { return jobs_; }
    EngineCounters counters() const;

    /**
     * Wall-clock deadline per cell in @p seconds; 0 (the default)
     * disables, and one past what the clock can represent never
     * fires. Enforced by the cell itself: the timing loop and the
     * functional pre-pass check a CellDeadline every few thousand
     * iterations and throw CellTimeout once it has passed.
     */
    void setCellTimeout(double seconds) { cellTimeoutS_ = seconds; }

    /**
     * Attach an on-disk checkpoint store. Sampled cells then persist
     * (and reload) their sample summaries and discovered
     * violation-pair seeds across processes (see runCellSampled).
     * The store only memoizes: every cell's
     * results stay bit-identical to a store-less engine's. Null (the
     * default) detaches.
     */
    void
    setCheckpointStore(std::shared_ptr<CheckpointStore> s)
    {
        store_ = std::move(s);
    }

    const std::shared_ptr<CheckpointStore> &
    checkpointStore() const
    {
        return store_;
    }

  private:
    /** One cell inside its failure domain: a deadline-checked compute
     *  and exception-to-outcome conversion. Never throws. */
    SweepCell runOne(const EngineWorkload &w, const SweepColumn &col);

    /** The cell's actual compute (the pre-fault-tolerance runOne
     *  body); throws on failure. */
    SweepCell computeCell(const EngineWorkload &w, const SweepColumn &col,
                          const CellDeadline *deadline);

    /** The store, when it should serve @p sp; else null. */
    CheckpointStore *storeFor(const SamplingParams &sp) const;

    int jobs_;
    double cellTimeoutS_ = 0;
    std::shared_ptr<CheckpointStore> store_;
    ArtifactCache<BlockProfile> profiles;
    ArtifactCache<PreparedMg> prepared;
    ArtifactCache<TimedStats> runs;
    ArtifactCache<SampleSummary> summaries;
    ArtifactCache<TimedSampled> sampledRuns;
};

} // namespace mg

#endif // MG_ENGINE_ENGINE_HH
