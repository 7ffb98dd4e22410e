/**
 * @file
 * Tiny shared command line for the sweep drivers: every bench accepts
 * `--jobs N` (parallel cells, 0 = all hardware threads), `--json PATH`
 * (override the default BENCH_<name>.json location), workload-tier
 * selection `--scale ref|long|huge` (the M-scale long tier, every
 * kernel; the 10M+-scale huge tier, one kernel per suite) and
 * `--list-kernels` (print the kernel registry and exit), and the
 * sampled simulation flags `--sample-interval N` (measure N work units
 * per period; enables sampling), `--sample-period N` (work between
 * measurement starts, default 12× interval), `--warmup N` (detailed
 * pre-measurement warmup work), `--no-ss-shadow` (disable store-set
 * shadow training during fast-forward), and `--full` (force full
 * cycle-accurate simulation, overriding the sampling flags). Sampled
 * runs get an on-disk warm-checkpoint store: `--checkpoint-dir PATH`
 * overrides its location (default `$MG_CHECKPOINT_DIR`, else
 * `.mg-cache/checkpoints`), `--checkpoint-cap-mb N` its LRU size cap,
 * and `--no-checkpoint-store` disables it.
 *
 * Fault tolerance (see engine.hh FaultPolicy and engine/journal.hh):
 * `--cell-timeout-s S` caps each cell's wall clock (default scales
 * with the tier — 600s ref, 3600s long, 14400s huge; 0 disables),
 * `--journal-dir PATH` enables the crash-safe sweep journal (default
 * `$MG_JOURNAL_DIR`, else off; `--no-journal` forces off),
 * `--fault-inject SPEC` arms the deterministic fault injector
 * (default `$MG_FAULT_SPEC`; see engine/fault_inject.hh for the rule
 * grammar), and `--dry-run` prints the sweep's cell plan — ids,
 * fingerprints, journal hit/miss — without simulating anything.
 *
 * Critical-path analysis (see analysis/critpath.hh): `--critpath`
 * attaches a retired-event trace to every timing cell's only run and
 * publishes the analyzer's per-kernel breakdown into the JSON report;
 * `--trace N` bounds the trace ring to N retired events (implies
 * --critpath; 0 keeps the default ring), and
 * `--whatif key=val[,key=val...]` additionally predicts the cell's
 * cycle count under re-weighted edges (implies --critpath). All three
 * need full simulation: combined with enabled sampling they are
 * fatal. Without any of the three, no trace is attached and reports
 * are byte-identical to analyzer-less builds. Anything unrecognised
 * is passed through for bench-specific flags.
 */

#ifndef MG_ENGINE_CLI_HH
#define MG_ENGINE_CLI_HH

#include <string>
#include <vector>

#include "engine/engine.hh"
#include "workloads/kernel.hh"

namespace mg {

/** Parsed common bench options. */
struct CliOptions
{
    int jobs = 1;               ///< --jobs N / -j N (0 = hardware)
    std::string jsonPath;       ///< --json PATH ("" = default name)
    Scale scale = Scale::Ref;   ///< --scale ref|long|huge (workload
                                ///< tier)
    std::uint64_t sampleInterval = 0;   ///< --sample-interval N (0 = off)
    std::uint64_t samplePeriod = 0;     ///< --sample-period N (0 = 12×)
    std::uint64_t sampleWarmup = ~0ull; ///< --warmup N (~0 = default)
    bool ssShadow = true;       ///< --no-ss-shadow clears it
    bool full = false;                  ///< --full wins over sampling
    bool noThroughput = false;  ///< --no-throughput: omit the
                                ///< nondeterministic wall-clock fields
                                ///< from the JSON (byte-comparable
                                ///< reports)
    std::string checkpointDir;  ///< --checkpoint-dir PATH ("" = env
                                ///< MG_CHECKPOINT_DIR, else
                                ///< .mg-cache/checkpoints)
    bool checkpointStore = true;    ///< --no-checkpoint-store clears it
    std::uint64_t checkpointCapMb = 0;  ///< --checkpoint-cap-mb N
                                        ///< (0 = store default, 2 GiB)
    double cellTimeoutS = -1;   ///< --cell-timeout-s S (-1 = tier
                                ///< default, 0 = no deadline)
    std::string journalDirOpt;  ///< --journal-dir PATH ("" = env
                                ///< MG_JOURNAL_DIR, else no journal)
    bool journal = true;        ///< --no-journal clears it
    std::string faultSpec;      ///< --fault-inject SPEC ("" = env
                                ///< MG_FAULT_SPEC, else disarmed)
    bool dryRun = false;        ///< --dry-run: print the cell plan,
                                ///< simulate nothing
    bool critpath = false;      ///< --critpath (also set by --trace /
                                ///< --whatif)
    std::uint64_t traceDepth = 0;   ///< --trace N ring bound (0 =
                                    ///< default capacity)
    std::string whatIf;         ///< --whatif key=val[,...] ("" = none)
    std::vector<std::string> rest;  ///< unconsumed arguments

    /** @return true when @p flag appears among the leftover args. */
    bool has(const std::string &flag) const;

    /** Report name for @p base: tier-suffixed ("<base>_long",
     *  "<base>_huge") off the ref tier, so the tiers' BENCH_*.json
     *  artifacts never overwrite each other. */
    std::string benchName(const std::string &base) const;

    /** Sampling parameters these flags resolve to (may be disabled). */
    SamplingParams samplingParams() const;

    /** Apply samplingParams() to every timed column of @p spec. */
    void applySampling(SweepSpec &spec) const;

    /** Apply the --critpath/--trace/--whatif analysis request to every
     *  timed column of @p spec (no-op when none was given, keeping the
     *  spec's fingerprints and report byte-identical). Call after
     *  applySampling. */
    void applyAnalysis(SweepSpec &spec) const;

    /**
     * Attach the on-disk warm-checkpoint store to @p engine when these
     * flags call for one: sampling must be enabled and
     * --no-checkpoint-store must be absent. The directory is
     * --checkpoint-dir, else $MG_CHECKPOINT_DIR, else
     * ".mg-cache/checkpoints". Full-simulation runs never get a store,
     * so their reports stay byte-identical to store-less builds.
     */
    void configureStore(ExperimentEngine &engine) const;

    /**
     * Apply the fault-tolerance flags to @p engine: install the
     * FaultPolicy (tier-scaled default deadline unless
     * --cell-timeout-s overrides it), enable the sweep journal when a
     * directory is configured, arm the global fault injector when a
     * spec is, and propagate --dry-run. Call once per bench, right
     * after configureStore.
     */
    void configureFaultTolerance(ExperimentEngine &engine) const;

    /** The journal directory these flags resolve to ("" = none). */
    std::string journalDir() const;

    /** Apply the throughput-reporting choice to a finished sweep. */
    void
    applyReporting(SweepResult &r) const
    {
        r.emitThroughput = !noThroughput;
    }
};

/** Parse argv; fatal() on malformed options. `--list-kernels` prints
 *  the registry (names, suites, supported scales) and exits. */
CliOptions parseCli(int argc, char **argv);

} // namespace mg

#endif // MG_ENGINE_CLI_HH
