/**
 * @file
 * The unified result model and formatting for the figure-reproduction
 * benches: the SweepResult every experiment sweep produces (one cell
 * per kernel×configuration), paper-style speedup tables with per-suite
 * geometric means, and the machine-readable BENCH_*.json reports.
 */

#ifndef MG_SIM_REPORT_HH
#define MG_SIM_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/critpath.hh"
#include "common/stats.hh"
#include "uarch/core.hh"

namespace mg {

/**
 * Terminal state of one sweep cell. A sweep always completes and
 * reports every cell; non-Ok cells carry zeroed stats (timed=false)
 * plus the error that ended them, so one broken kernel×config pair
 * costs its own numbers and nothing else.
 */
enum class CellOutcome : std::uint8_t
{
    Ok = 0,         ///< stats are valid
    Failed = 1,     ///< permanent error (error holds the message)
    TimedOut = 2,   ///< ran past its own per-cell deadline
};

/** Stable lowercase name ("ok", "failed", "timed_out"). */
const char *cellOutcomeName(CellOutcome o);

/** One benchmark's results across a set of configurations. */
struct BenchRow
{
    std::string bench;
    std::string suite;
    double baselineIpc = 0;
    std::vector<double> speedups;   ///< per configuration
    std::vector<double> extra;      ///< per-experiment annotations
};

/** One cell of a kernel×configuration sweep. */
struct SweepCell
{
    CoreStats stats;                ///< timing run (when timed); for a
                                    ///< sampled cell, sampled.est
    bool timed = false;             ///< stats hold a real timing run
    double staticCoverage = 0;      ///< estimated from the profile
    std::uint64_t templates = 0;    ///< MGT entries selected
    std::uint64_t textSlots = 0;    ///< program text size (insns)
    SampledStats sampled;           ///< error bounds etc. (sampledRun)
    bool sampledRun = false;        ///< stats were extrapolated
    /** Critical-path breakdown of the cell's traced analysis run
     *  (--critpath). present=false — and absent from the JSON — for
     *  clean configurations. */
    CritPathSummary critpath;
    /** Simulator throughput: wall-clock of the cell's compute (cache
     *  hits carry the original run's time) and the committed work per
     *  wall-second it implies — the per-cell perf trajectory. */
    double wallSeconds = 0;
    double workPerSec = 0;
    /** Failure-domain fields. outcome/error are emitted into the JSON
     *  only when non-default, so fault-free sweeps stay byte-identical
     *  to pre-fault-tolerance reports. */
    CellOutcome outcome = CellOutcome::Ok;
    std::string error;              ///< what ended a non-Ok cell
};

/**
 * Ordered results of a complete sweep. Cells are row-major
 * (`cells[row * columns.size() + col]`); the layout is deterministic
 * regardless of how many threads computed it.
 */
struct SweepResult
{
    std::string title;
    std::vector<std::string> rows;      ///< kernel names
    std::vector<std::string> suites;    ///< parallel to rows
    std::vector<std::string> columns;   ///< configuration names
    std::vector<SweepCell> cells;       ///< row-major
    int baselineColumn = -1;            ///< speedup reference column
    /** Optional per-column reference override (parallel to columns;
     *  -1 entries fall back to baselineColumn). Lets one sweep carry
     *  several matched base/variant groups, e.g. the icache study's
     *  full-size and 2KB halves. */
    std::vector<int> columnBaseline;
    /** Emit per-cell wall_seconds / work_per_sec into the JSON.
     *  Off by default so reports stay byte-comparable across runs
     *  (wall-clock is inherently nondeterministic); the benches turn
     *  it on unless invoked with --no-throughput. */
    bool emitThroughput = false;
    /** Checkpoint-store activity during this sweep (counter
     *  deltas the engine snapshots around the cell matrix). Absent —
     *  and absent from the JSON, keeping store-less reports
     *  byte-identical — unless a store was attached. */
    bool storeAttached = false;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t storeWritebacks = 0;
    std::uint64_t storeCorrupt = 0;

    const SweepCell &at(std::size_t row, std::size_t col) const;

    /**
     * IPC of (row, col) over (row, ref); @p ref of -1 uses
     * columnBaseline[col] when set, else baselineColumn. 0 when
     * either cell is untimed or stalled.
     */
    double speedup(std::size_t row, std::size_t col, int ref = -1) const;
};

/**
 * Convert @p r into paper-style rows: baselineColumn provides the
 * base-IPC column, every other column one speedup value (in column
 * order). Extra annotation columns are the caller's to append.
 */
std::vector<BenchRow> benchRows(const SweepResult &r);

/** Names of @p r's non-baseline columns (benchRows column order). */
std::vector<std::string> speedupColumns(const SweepResult &r);

/** Render @p r through benchRows + reportSpeedups. */
std::string sweepTable(const SweepResult &r);

/**
 * Simulator-throughput table for @p r: per-suite geometric-mean
 * committed-work/second for each timed column plus the total
 * wall-clock, so per-cell simulation speed is visible (and
 * regressions diffable) in every bench run.
 */
std::string throughputTable(const SweepResult &r);

/**
 * Machine-readable report: one JSON object with the sweep metadata and
 * a flat "cells" array of {kernel, suite, config, ipc, amplification,
 * cycles, work, coverage, templates} records (amplification is the
 * speedup over baselineColumn; untimed cells carry coverage only).
 */
std::string sweepJson(const SweepResult &r, const std::string &bench);

/**
 * Write sweepJson to @p path, or to "BENCH_<bench>.json" in the
 * working directory when @p path is empty. @return the path written,
 * or "" on I/O failure (reported via warn()).
 */
std::string writeSweepJson(const SweepResult &r, const std::string &bench,
                           const std::string &path = "");

/**
 * The tail every figure bench shares: with @p tables, print
 * throughputTable and a non-empty outcomeSummary; then write the
 * report as writeSweepJson does, with the wall-clock fields only when
 * @p throughput, and print "wrote PATH".
 */
void finishSweep(SweepResult &r, const std::string &bench,
                 const std::string &path, bool throughput,
                 bool tables = true);

/**
 * One-line cell-outcome digest ("cell outcomes: 44 ok, 1 failed,
 * 1 timed_out"), or "" when every cell is Ok — benches print it only
 * when there is something to say, keeping fault-free stdout
 * unchanged.
 */
std::string outcomeSummary(const SweepResult &r);

/**
 * Render rows grouped by suite with per-suite gmean speedup lines,
 * mirroring the layout of the paper's Figure 6.
 *
 * @param title     table caption
 * @param configs   names of the speedup columns
 * @param rows      per-benchmark results
 * @param extraCols names for the annotation columns (may be empty)
 */
std::string reportSpeedups(const std::string &title,
                           const std::vector<std::string> &configs,
                           const std::vector<BenchRow> &rows,
                           const std::vector<std::string> &extraCols = {});

} // namespace mg

#endif // MG_SIM_REPORT_HH
