/**
 * @file
 * Sampled-simulation parameters and the functional pre-pass summary.
 *
 * A sampled run measures a set of cycle-accurate intervals and
 * extrapolates whole-run statistics. Placement is phase-driven
 * (SimPoint-style): the functional pre-pass splits the run into
 * @c period -work chunks, fingerprints each with a PC-histogram
 * signature, and clusters equal-phase chunks. The timing run then
 *
 *   1. measures the cold prefix exactly (cold caches, bus backlog,
 *      and queue fill-up are real but unrepresentative; extrapolating
 *      them is the dominant error source for short programs),
 *   2. fast-forwards chunk to chunk, warming through every skipped
 *      instruction functionally (I-cache, D-cache/L2, branch
 *      predictor and store-set shadow all trained; the clock advances
 *      virtually at the last measured IPC so bus queueing keeps
 *      evolving), then runs @c warmup work cycle-accurate to restore
 *      queue back-pressure,
 *   3. measures quantile-spread occurrences of every cluster —
 *      settling for one @c interval, then averaging three — and keeps
 *      sampling clusters whose error bound has not converged, within
 *      the @c maxDuty budget, and
 *   4. scales each cluster's measured rates by the cluster's total
 *      work — plus the exact prefix — into whole-run estimates with a
 *      within-cluster 95% confidence bound.
 *
 * Runs shorter than a few periods degrade to exact full simulation.
 * The MGT itself is a static, read-only table and needs no warming;
 * the emulator's block profile (which drives MGT selection) keeps
 * accumulating through fast-forward because profiling is part of
 * functional execution.
 */

#ifndef MG_UARCH_SAMPLING_HH
#define MG_UARCH_SAMPLING_HH

#include <cstdint>
#include <vector>

namespace mg {

/** Knobs of one sampled run (all lengths in constituent work units). */
struct SamplingParams
{
    bool enabled = false;
    std::uint64_t interval = 1000;  ///< detailed work measured per period
    std::uint64_t period = 12000;   ///< work between measurement starts
    std::uint64_t warmup = 2000;    ///< detailed pre-measurement work
    double targetCi = 0.01;         ///< keep sampling a cluster while
                                    ///< its weighted 95% CI share
                                    ///< exceeds this
    double maxDuty = 0.50;          ///< cap on the cycle-accurate
                                    ///< share of the run (coverage
                                    ///< beyond one sample per cluster
                                    ///< stops at this spend)
    /** Functional store-set shadow: while fast-forwarding, re-train
     *  exactly the (load PC, store PC) pairs this run's detailed
     *  intervals have already seen violate — or, in the seeded final
     *  pass, the pairs the discovery pass found — so learned memory
     *  dependences survive the predictor's periodic table clears
     *  instead of being re-discovered by squash storms inside the
     *  measurement intervals. (Pairing *functionally-observed*
     *  same-address ops instead is tempting but wrong: most never
     *  violate, and training them serializes the machine — see
     *  docs/EXPERIMENTS.md.) */
    bool ssShadow = true;
    /** Fast-forward always warms through. Kept as a constant for
     *  perfbench/mgperf.cpp, its only reader; it goes with that
     *  program's runCellTraced call in the next benchmark change. */
    static constexpr bool warmThrough = true;
    /** Measurement-phase perturbation seed. Each measured chunk's
     *  span starts at a deterministic offset hashed from (salt, chunk
     *  start) rather than at the chunk start: period-aligned
     *  placement samples one fixed phase of any rate oscillation
     *  commensurate with the period, which read a systematic ~2% bias
     *  on huge-tier jpeg.dct. Every value, 0 included, is an ordinary
     *  hash seed. The engine derives the salt from the cell
     *  fingerprint, so it is stable across sessions (stored violation
     *  pairs and resumed journals stay coherent) while de-correlating
     *  placement between cells. Not part of the cell fingerprint: the
     *  same cell key always maps to the same salt, so keying it would
     *  be redundant. */
    std::uint64_t phaseSalt = 0;

    /** Exactly-measured startup work: one period. */
    std::uint64_t
    coldPrefixWork() const
    {
        return period;
    }

    /** Sampling degenerates to a full detailed run. A zero interval
     *  has nothing to measure (and would divide the measured-span
     *  floor), so it degenerates too. */
    bool
    degenerate() const
    {
        return !enabled || interval == 0 ||
            period <= interval + warmup;
    }

    bool operator==(const SamplingParams &) const = default;
};

/** PC-signature sketch width for phase clustering. */
constexpr int sampleSigDims = 64;

/** Normalized-L1 distance above which two chunks are distinct phases. */
constexpr double sampleClusterTheta = 0.25;

/** One period-sized region of the functional execution. */
struct SampleChunk
{
    std::uint64_t start = 0;     ///< work position of the chunk start
    std::uint64_t work = 0;      ///< actual work (last chunk: partial)
    std::uint32_t cluster = 0;   ///< phase cluster id
};

/**
 * Config-independent functional summary of one (program, inputs) pair:
 * the total dynamic work (the extrapolation denominator) and the phase
 * clustering of its period-grid chunks. Computed once per binary by
 * collectSampleSummary() and shared by every machine configuration
 * running that binary.
 */
struct SampleSummary
{
    std::uint64_t totalWork = 0;
    std::uint64_t totalSlots = 0;
    std::uint32_t clusters = 0;
    std::vector<SampleChunk> chunks;    ///< ascending start positions
};

} // namespace mg

#endif // MG_UARCH_SAMPLING_HH
