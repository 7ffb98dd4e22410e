/**
 * @file
 * Top-level experiment configuration: one struct bundling the machine
 * model, the selection policy, and the MGT schedule parameters, with
 * named constructors for the paper's evaluated configurations.
 */

#ifndef MG_SIM_CONFIG_HH
#define MG_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "mg/mgt.hh"
#include "mg/minigraph.hh"
#include "uarch/core.hh"

namespace mg {

/** A complete experiment configuration. */
struct SimConfig
{
    std::string name = "baseline";
    CoreConfig core;
    SelectionPolicy policy;
    MgtMachine machine;
    bool useMiniGraphs = false;
    bool compress = false;          ///< icache-study layout
    std::uint64_t profileBudget = 400000;   ///< profiling-run slots
    std::uint64_t runBudget = ~0ull;        ///< timing-run work cap
    SamplingParams sampling;        ///< disabled = full simulation

    /** Critical-path analysis (analysis/critpath.hh): when set, a
     *  full-simulation timing cell's only run carries a retired-event
     *  trace ring and publishes the analyzer's breakdown into its
     *  SweepCell. Sampled cells never trace: a breakdown needs every
     *  cycle simulated. All three fields are gated out of cell
     *  fingerprints while critpath is false, so clean configurations
     *  keep pre-analyzer cache keys and byte-identical reports. */
    bool critpath = false;
    std::uint64_t traceDepth = 0;   ///< trace ring capacity (0 = default)
    std::string whatIf;             ///< --whatif spec ("" = none)

    /** The paper's 6-wide baseline. */
    static SimConfig baseline();

    /**
     * Integer mini-graphs on ALU pipelines (paper Fig. 6 light bars).
     * @param collapsing pair-wise collapsing pipelines (striped bars)
     */
    static SimConfig intMg(bool collapsing = false);

    /**
     * Integer-memory mini-graphs with the sliding-window scheduler
     * (paper Fig. 6 dark bars).
     */
    static SimConfig intMemMg(bool collapsing = false);
};

} // namespace mg

#endif // MG_SIM_CONFIG_HH
