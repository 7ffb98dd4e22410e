/**
 * @file
 * Critical-path cycle accounting over a retired-event trace
 * (uarch/trace.hh): the second analysis backend next to detailed
 * simulation, in the style of Fields-et-al. dependence-graph models.
 *
 * Each retired slot contributes five stage nodes — fetch (F), dispatch
 * (D), issue (I), complete (X), commit (C) — connected by *modeled*
 * edges: pipeline structure (F->D frontend depth, D->I scheduler
 * entry, I->X execution latency), in-order bandwidths (fetch/rename/
 * commit width), capacity backpressure (ROB, fetch queue), register
 * dependences (producer value-ready with bypass), store-set memory
 * ordering, and branch-mispredict refetch. The graph is never built
 * as a separate structure: the trace ring's records already carry
 * each slot's stage times and its dependence links, resolved at
 * capture, and every walk reads them in place. Three walks share it:
 *
 *  1. *Attribution* replays the recorded timestamps backwards from the
 *     last commit, always following the last-arriving edge, and
 *     charges every cycle of the run to the category of the edge that
 *     created it. The charges telescope: they sum exactly to the
 *     traced cycle span, so the breakdown is an accounting identity,
 *     not an estimate.
 *  2. The *forward model* recomputes node times from the modeled
 *     edges alone (recorded execution latencies, modeled structure).
 *     Its end-to-end cycle count is the analyzer's prediction, and its
 *     gap to the recorded count is the model error the tests bound.
 *  3. The *what-if* walk re-runs the forward model with edge weights
 *     re-derived under modified parameters, anchored by per-node
 *     residuals so the unmodified configuration reproduces the
 *     recorded times exactly. Because every node time is a max() of
 *     monotone candidate times, widening a resource or shortening a
 *     latency can never lengthen the predicted path. The residuals
 *     are computed inside this walk, and the first what-if question
 *     runs the forward model in the same pass.
 *
 * A what-if walk is O(events) with no simulation state, which is what
 * makes design-space questions orders of magnitude cheaper than
 * re-simulating (the acceptance tests pin >= 10x on the long tier).
 */

#ifndef MG_ANALYSIS_CRITPATH_HH
#define MG_ANALYSIS_CRITPATH_HH

#include <cstdint>
#include <memory>
#include <string>

#include "uarch/core.hh"
#include "uarch/trace.hh"

namespace mg {

/** Attribution categories, one per modeled edge family. */
#define MG_CP_CATEGORIES(X)                                              \
    X(fetch)   /* frontend supply: bandwidth, lines, icache, refill */   \
    X(bpred)   /* mispredict resolve-and-refetch */                      \
    X(window)  /* rename bandwidth + ROB/queue backpressure */           \
    X(select)  /* scheduler entry and issue-slot contention */           \
    X(data)    /* register dependences on non-memory producers */        \
    X(exec)    /* non-memory execution latency */                        \
    X(memory)  /* load/store latency + memory-ordering edges */          \
    X(mg)      /* mini-graph handle latency / serialization */           \
    X(commit)  /* in-order retirement */

enum class CpCat : std::uint8_t
{
#define MG_CP_ENUM(name) name,
    MG_CP_CATEGORIES(MG_CP_ENUM)
#undef MG_CP_ENUM
};

inline constexpr int cpCatCount = 0
#define MG_CP_COUNT(name) +1
    MG_CP_CATEGORIES(MG_CP_COUNT)
#undef MG_CP_COUNT
    ;

/** Stable lowercase category name ("fetch", "bpred", ...). */
const char *cpCatName(CpCat c);

/**
 * Per-cell analyzer output, carried in SweepCell and emitted as the
 * report's "critpath" JSON block (only when present, so clean-config
 * reports stay byte-identical to analyzer-less builds).
 */
struct CritPathSummary
{
    bool present = false;
    std::uint64_t tracedSlots = 0;  ///< retired slots analyzed
    std::uint64_t tracedWork = 0;   ///< constituent work analyzed
    bool traceWrapped = false;      ///< ring dropped oldest events
    std::uint64_t actualCycles = 0; ///< recorded commit-fetch span
    std::uint64_t modeledCycles = 0;///< forward-model prediction
    /** Last-arriving attribution, cycles per category; sums to
     *  actualCycles. */
    std::uint64_t breakdown[cpCatCount] = {};
    std::string whatIf;             ///< spec echoed ("" = none)
    std::uint64_t whatIfCycles = 0; ///< predicted span under whatIf
    std::string error;              ///< non-empty: analysis failed

    bool operator==(const CritPathSummary &) const = default;

    double
    share(CpCat c) const
    {
        return actualCycles
            ? static_cast<double>(
                  breakdown[static_cast<int>(c)]) /
                static_cast<double>(actualCycles)
            : 0.0;
    }
};

/**
 * The modeled-edge parameter set — the knobs the what-if walk can
 * re-weight. Defaults come from the traced run's CoreConfig.
 */
struct CpParams
{
    int fetchWidth = 6;
    int renameWidth = 6;
    int commitWidth = 6;
    int robSize = 128;
    int fetchQueueSize = 24;
    int frontendDepth = 8;
    int regReadLat = 2;
    int schedulerCycles = 1;
    int l1dLat = 2;
    /** The traced run's L1-D latency; load execution edges are
     *  re-weighted by (l1dLat - l1dLatBase) under a what-if. */
    int l1dLatBase = 2;

    static CpParams fromConfig(const CoreConfig &cfg);
};

/**
 * Apply a "key=val[,key=val...]" what-if spec to @p p. Keys:
 * fetchwidth, renamewidth, commitwidth, robsize, fetchqueue,
 * frontend, regreadlat, sched, l1dlat. @return false (and set
 * @p err) on an unknown key or malformed value.
 */
bool applyWhatIf(CpParams &p, const std::string &spec, std::string *err);

/**
 * Reusable analysis of one traced run: the constructor runs the
 * attribution walk over the trace in place; whatIf() then answers any
 * number of design-space questions against the same trace, each as a
 * single residual-anchored O(events) propagation — no simulator state
 * is ever touched. This is the object behind the >= 10x-cheaper-than-
 * re-sim acceptance: the expensive parts (simulate, trace, attribute)
 * are paid once per cell, and every question after that costs one
 * walk.
 *
 * The analyzer reads @p trace in place, so the trace must outlive it
 * and stay unchanged. The forward walks keep their node times in
 * per-thread storage that later walks reuse; any number of analyzers
 * may be alive on one thread.
 */
class CritPathAnalyzer
{
  public:
    CritPathAnalyzer(const TraceBuffer &trace, const CoreConfig &cfg);
    ~CritPathAnalyzer();
    CritPathAnalyzer(const CritPathAnalyzer &) = delete;
    CritPathAnalyzer &operator=(const CritPathAnalyzer &) = delete;

    /** Attribution breakdown and forward model for the traced window
     *  (the whatIf fields stay unset). present=false when the trace
     *  held fewer than two events. The forward model runs on the
     *  first call unless a whatIf() question already ran it, so a
     *  given analyzer must be queried from one thread at a time. */
    const CritPathSummary &summary() const;

    /** Predicted cycle span of the traced window under @p spec.
     *  @return 0 and set @p err (when non-null) on a malformed spec
     *  or an absent analysis; otherwise @p err is cleared. Like
     *  summary(), query a given analyzer from one thread at a time. */
    std::uint64_t whatIf(const std::string &spec,
                         std::string *err = nullptr);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl;
};

/**
 * One-shot convenience wrapper over CritPathAnalyzer: run all three
 * walks over @p trace — attribution breakdown, forward model, and,
 * when @p whatIf is non-empty, the re-weighted what-if prediction.
 * An empty or single-event trace yields present=false. A malformed
 * @p whatIf yields present=true with error set (the breakdown and
 * model are still valid).
 */
CritPathSummary analyzeCritPath(const TraceBuffer &trace,
                                const CoreConfig &cfg,
                                const std::string &whatIf = "");

} // namespace mg

#endif // MG_ANALYSIS_CRITPATH_HH
