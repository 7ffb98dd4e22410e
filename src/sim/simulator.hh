/**
 * @file
 * High-level experiment driver: profile a program, select mini-graphs,
 * rewrite, and run the timing core — the complete paper flow in four
 * calls (or one).
 */

#ifndef MG_SIM_SIMULATOR_HH
#define MG_SIM_SIMULATOR_HH

#include <functional>

#include "analysis/critpath.hh"
#include "cfg/profile.hh"
#include "common/serial.hh"
#include "mg/rewriter.hh"
#include "sim/config.hh"
#include "uarch/core.hh"

namespace mg {

/** Callback that plants workload inputs into a fresh emulator. */
using SetupFn = std::function<void(Emulator &)>;

/** Rewritten program plus everything needed to execute it. */
struct PreparedMg
{
    Program program;
    MgTable table;
    Selection selection;        ///< against the original program
    double staticCoverage = 0;  ///< estimated from the profile
};

/** Profile @p prog by functional execution. */
BlockProfile collectProfile(const Program &prog, const SetupFn &setup,
                            std::uint64_t budget);

/** Select + rewrite @p prog for the given policy/machine/layout. */
PreparedMg prepareMiniGraphs(const Program &prog,
                             const BlockProfile &prof,
                             const SelectionPolicy &policy,
                             const MgtMachine &machine,
                             bool compress = false);

/** Run the timing core over (@p prog, @p mgt). A non-null
 *  @p deadline attaches the cell's wall-clock deadline
 *  (Core::setCancel); the run then throws CellTimeout once it passes.
 *  A non-null @p trace attaches a retired-event ring (Core::setTrace),
 *  which leaves the returned stats unchanged. */
CoreStats runCore(const Program &prog, const MgTable *mgt,
                  const CoreConfig &coreCfg, const SetupFn &setup,
                  std::uint64_t maxWork = ~0ull,
                  const CellDeadline *deadline = nullptr,
                  TraceBuffer *trace = nullptr);

/**
 * The experiment engine's single-cell primitive: time one
 * (program, config) cell from already-computed artifacts. For a
 * mini-graph config @p prep must be the PreparedMg derived from
 * (@p prog, @p cfg) — its rewritten program and table are what run;
 * for a baseline config @p prep is null and @p prog runs unmodified.
 * Reads only const state, so concurrent cells may share @p prog and
 * @p prep freely. @p deadline as in runCore.
 *
 * When cfg.critpath is set and @p critpath is non-null, the same run
 * carries a retired-event trace ring (capacity cfg.traceDepth, 0 =
 * TraceBuffer::defaultCapacity) and @p critpath receives the
 * dependence-graph analysis of the captured window, including the
 * cfg.whatIf re-weighting when set. Trace capture is observational,
 * so the returned CoreStats are bit-identical to an untraced run's.
 * The ring and the analyzer's walk storage belong to the calling
 * thread and are reused by its later cells.
 */
CoreStats runCell(const Program &prog, const PreparedMg *prep,
                  const SimConfig &cfg, const SetupFn &setup,
                  const CellDeadline *deadline = nullptr,
                  CritPathSummary *critpath = nullptr);

/** runCell's critical-path summary alone (absent unless cfg.critpath
 *  is set). Kept for callers that want only the analysis. */
CritPathSummary runCellTraced(const Program &prog, const PreparedMg *prep,
                              const SimConfig &cfg, const SetupFn &setup,
                              const CellDeadline *deadline = nullptr);

/**
 * Functional pre-pass for sampled cells: run the executed binary (the
 * rewritten program for a mini-graph config) to completion once,
 * recording total work/slots and clustering the @p sp grid's chunks
 * by phase. The result depends only on the
 * binary, the inputs, and the sampling grid — never on the machine
 * configuration — so the engine shares it across all sweep columns
 * that execute the same binary.
 */
SampleSummary collectSampleSummary(const Program &prog, const MgTable *mgt,
                                   const SetupFn &setup,
                                   const SamplingParams &sp,
                                   std::uint64_t maxWork = ~0ull,
                                   const CellDeadline *deadline =
                                       nullptr);

/**
 * A cell's view of the checkpoint store: the cell's discovered
 * store-set violation pairs. The engine implements this over the
 * on-disk CheckpointStore with a key derived from the cell
 * fingerprint.
 */
class CellCheckpointClient
{
  public:
    virtual ~CellCheckpointClient() = default;

    /** Fetch the cell's discovery-pass violation pairs (sorted).
     *  @return true when a stored (possibly empty) set exists. */
    virtual bool
    loadViolPairs(std::vector<std::pair<Addr, Addr>> &out) = 0;

    /** Persist the discovery-pass violation pairs — written exactly
     *  once per cell and never updated, so every later session seeds
     *  the same generation and reproduces the same stats. */
    virtual void
    storeViolPairs(const std::vector<std::pair<Addr, Addr>> &pairs) = 0;

    /** The store holds no warm records: a load always misses and a
     *  write is dropped. Kept only for perfbench/mgperf.cpp's
     *  TimedClient, which overrides them; they go with it in the next
     *  benchmark change. */
    virtual bool
    loadWarm(std::uint64_t, std::uint64_t, std::vector<std::uint8_t> &)
    {
        return false;
    }
    virtual void
    storeWarm(std::uint64_t, std::uint64_t,
              const std::vector<std::uint8_t> &)
    {
    }
};

/**
 * Sampled counterpart of runCell: two-pass violation-seeded sampling
 * (see Core::runSampled for the interval scheme). @p sum must come
 * from collectSampleSummary for the same binary, inputs, and sampling
 * grid.
 *
 * Ordering violations are only observable inside detailed intervals,
 * so a single pass leaves the store-set state the fast-forwarded
 * majority of the run carries under-trained (reed@long/int-mem:
 * ~25% IPC error). The cell therefore first runs a *discovery* pass
 * to collect the violating pair set V and — when V is nonempty and
 * the run did not degrade to exact — reruns with the shadow seeded by
 * V. Seeded pairs start dormant and wake at their first functionally
 * observed RAW opportunity (Core::ffAliasScan), so fast-forward gaps
 * train each learned dependence from the position where it first
 * becomes violable — not from work zero, which would serialize
 * program phases that predate the dependence.
 *
 * The final pass is skipped when Core::seededRunRetraces proves it
 * would repeat discovery. @p store only memoizes: it persists V (and,
 * engine-side, the summary), and a session that finds V loads it and
 * runs the final pass alone. Storeless, cold-store and warm-store runs
 * return bit-identical stats.
 */
SampledStats runCellSampled(const Program &prog, const PreparedMg *prep,
                            const SimConfig &cfg, const SetupFn &setup,
                            const SampleSummary &sum,
                            CellCheckpointClient *store = nullptr,
                            const CellDeadline *deadline = nullptr);

/** Append @p sum to @p w (the checkpoint store's summary record). */
void serializeSampleSummary(const SampleSummary &sum, SerialWriter &w);

/** Parse a serializeSampleSummary record that fills @p r exactly.
 *  @return false (leaving @p sum unspecified) on malformed input,
 *  trailing bytes included. */
bool deserializeSampleSummary(SerialReader &r, SampleSummary &sum);

/** One-call flow: returns the end-to-end stats for @p cfg. */
CoreStats simulate(const Program &prog, const SimConfig &cfg,
                   const SetupFn &setup);

} // namespace mg

#endif // MG_SIM_SIMULATOR_HH
