/**
 * @file
 * High-level experiment driver: profile a program, select mini-graphs,
 * rewrite, and run the timing core — the complete paper flow in four
 * calls (or one).
 */

#ifndef MG_SIM_SIMULATOR_HH
#define MG_SIM_SIMULATOR_HH

#include <atomic>
#include <functional>

#include "analysis/critpath.hh"
#include "cfg/profile.hh"
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

/** Run the timing core over (@p prog, @p mgt). A non-null @p cancel
 *  attaches the engine's cooperative deadline flag (Core::setCancel);
 *  the run then throws CellTimeout once the flag fires. */
CoreStats runCore(const Program &prog, const MgTable *mgt,
                  const CoreConfig &coreCfg, const SetupFn &setup,
                  std::uint64_t maxWork = ~0ull,
                  const std::atomic<bool> *cancel = nullptr);

/**
 * The experiment engine's single-cell primitive: time one
 * (program, config) cell from already-computed artifacts. For a
 * mini-graph config @p prep must be the PreparedMg derived from
 * (@p prog, @p cfg) — its rewritten program and table are what run;
 * for a baseline config @p prep is null and @p prog runs unmodified.
 * Reads only const state, so concurrent cells may share @p prog and
 * @p prep freely. @p cancel as in runCore.
 *
 * When cfg.critpath is set and @p critpath is non-null, the same run
 * carries a retired-event trace ring (capacity cfg.traceDepth, 0 =
 * TraceBuffer::defaultCapacity) and @p critpath receives the
 * dependence-graph analysis of the captured window, including the
 * cfg.whatIf re-weighting when set. Trace capture is observational,
 * so the returned CoreStats are bit-identical to an untraced run's;
 * the ring is preallocated, so full-length runs stay allocation-free.
 */
CoreStats runCell(const Program &prog, const PreparedMg *prep,
                  const SimConfig &cfg, const SetupFn &setup,
                  const std::atomic<bool> *cancel = nullptr,
                  CritPathSummary *critpath = nullptr);

/** runCell's critical-path summary alone (absent unless cfg.critpath
 *  is set). Kept for callers that want only the analysis. */
CritPathSummary runCellTraced(const Program &prog, const PreparedMg *prep,
                              const SimConfig &cfg, const SetupFn &setup,
                              const std::atomic<bool> *cancel = nullptr);

/**
 * Functional pre-pass for sampled cells: run the executed binary (the
 * rewritten program for a mini-graph config) to completion once,
 * recording total work/slots and capturing an EmuCheckpoint at every
 * fast-forward grid position of @p sp. The result depends only on the
 * binary, the inputs, and the sampling grid — never on the machine
 * configuration — so the engine shares it across all sweep columns
 * that execute the same binary.
 */
SampleSummary collectSampleSummary(const Program &prog, const MgTable *mgt,
                                   const SetupFn &setup,
                                   const SamplingParams &sp,
                                   std::uint64_t maxWork = ~0ull,
                                   const std::atomic<bool> *cancel =
                                       nullptr);

/**
 * Sampled counterpart of runCell: alternate checkpoint-jump /
 * functionally-warmed fast-forward with cycle-accurate measurement
 * intervals and extrapolate whole-run statistics (see
 * Core::runSampled). @p sum must come from collectSampleSummary for
 * the same binary, inputs, and sampling grid.
 */
SampledStats runCellSampled(const Program &prog, const PreparedMg *prep,
                            const SimConfig &cfg, const SetupFn &setup,
                            const SampleSummary &sum,
                            const std::atomic<bool> *cancel = nullptr);

/**
 * A cell's view of the warm-checkpoint store: the per-chunk warm
 * records Core::runSampled exchanges (the WarmStoreIf base) plus the
 * cell's discovered store-set violation pairs. The engine implements
 * this over the on-disk CheckpointStore with keys derived from the
 * cell fingerprint.
 */
class CellCheckpointClient : public WarmStoreIf
{
  public:
    /** Fetch the cell's discovery-pass violation pairs (sorted).
     *  @return true when a stored (possibly empty) set exists. */
    virtual bool
    loadViolPairs(std::vector<std::pair<Addr, Addr>> &out) = 0;

    /** Persist the discovery-pass violation pairs — written exactly
     *  once per cell and never updated, so every later session seeds
     *  the same generation and reproduces the same stats. */
    virtual void
    storeViolPairs(const std::vector<std::pair<Addr, Addr>> &pairs) = 0;
};

/**
 * Store-backed runCellSampled: two-pass violation-seeded sampling.
 *
 * The documented accuracy failure of warm-through sampling
 * (reed@long/int-mem, ~26% IPC error) is duty-limited store-set
 * discovery: ordering violations are only observable inside detailed
 * intervals, so the predictor state the fast-forwarded majority of
 * the run carries is permanently under-trained. With a store
 * attached, the cell first runs a *discovery* pass (identical to the
 * storeless run) to collect the violating pair set V, persists V,
 * and — when V is nonempty — reruns with the shadow seeded by V.
 * Seeded pairs start dormant and wake at their first functionally
 * observed RAW opportunity (Core::ffAliasScan), so fast-forward gaps
 * train each learned dependence from the position where it first
 * becomes violable — not from work zero, which would serialize
 * program phases that predate the dependence. Warm sessions load
 * V directly and run the seeded pass alone, restoring per-chunk warm
 * records instead of re-warming: cold and warm sessions return
 * bit-identical stats (the warm pass replays the exact states the
 * cold pass wrote).
 *
 * A null @p store (or jump-mode / degenerate / shadowless sampling
 * parameters) reproduces the storeless overload bit-exactly.
 */
SampledStats runCellSampled(const Program &prog, const PreparedMg *prep,
                            const SimConfig &cfg, const SetupFn &setup,
                            const SampleSummary &sum,
                            CellCheckpointClient *store,
                            const std::atomic<bool> *cancel = nullptr);

/** Append @p sum — checkpoints elided — to @p w. Persisted summaries
 *  serve warm-through runs only, which never consult the checkpoint
 *  list; the engine keys them by a fingerprint that includes the
 *  fast-forward mode, so a jump-mode run can never load one. */
void serializeSampleSummary(const SampleSummary &sum, SerialWriter &w);

/** Parse a serializeSampleSummary record. @return false (leaving
 *  @p sum unspecified) on malformed input. */
bool deserializeSampleSummary(SerialReader &r, SampleSummary &sum);

/** One-call flow: returns the end-to-end stats for @p cfg. */
CoreStats simulate(const Program &prog, const SimConfig &cfg,
                   const SetupFn &setup);

} // namespace mg

#endif // MG_SIM_SIMULATOR_HH
