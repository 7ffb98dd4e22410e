/**
 * @file
 * The mini-graph intermediate representation.
 *
 * A candidate is a set of instructions inside one basic block that has
 * the interface of a singleton instruction: at most two register
 * inputs, at most one register output, at most one memory operation,
 * and at most one control transfer, which must be terminal (paper
 * Section 3). Candidates are found by enumeration (enumerate.hh),
 * vetted by legality checks (legality.hh), picked by greedy selection
 * (select.hh), compiled to MGT templates (mgt.hh), and planted into the
 * binary as handles (rewriter.hh).
 */

#ifndef MG_MG_MINIGRAPH_HH
#define MG_MG_MINIGRAPH_HH

#include <cstdint>
#include <vector>

#include "cfg/basic_block.hh"
#include "cfg/liveness.hh"

namespace mg {

/** Maximum instructions a mini-graph may contain (paper max is 8). */
constexpr int mgMaxSize = 8;

/**
 * One mini-graph candidate: member instruction indexes (program order)
 * within a single basic block, plus its derived interface.
 */
struct Candidate
{
    int block = -1;                    ///< owning basic block id
    std::vector<InsnIdx> members;      ///< ascending text indexes

    // Interface, derived during enumeration/legality analysis.
    std::vector<RegId> inputs;         ///< external register inputs (<=2)
    RegId output = regNone;            ///< external register output
    int outMember = -1;                ///< member position producing output
    InsnIdx anchor = 0;                ///< collapse-point text index
    bool hasLoad = false;
    bool hasStore = false;
    bool endsInBranch = false;
    int memMember = -1;                ///< member position of the mem op

    int size() const { return static_cast<int>(members.size()); }

    /**
     * True when the first member instruction reads every external
     * input; otherwise the handle can be spuriously delayed waiting
     * for inputs only later members need (external serialization,
     * paper Section 4.1).
     */
    bool externallySerial = false;

    /**
     * True when the members do not form a single dependence chain;
     * collapsed execution then adds latency over singleton execution
     * (internal serialization).
     */
    bool internallySerial = false;

    /** True when a load is in any position other than the last. */
    bool interiorLoad = false;
};

/**
 * Selection policy knobs (paper Section 6.2 studies each).
 */
struct SelectionPolicy
{
    int maxSize = 4;                   ///< max instructions per mini-graph
    int maxTemplates = 512;            ///< MGT entry budget
    bool allowMemory = true;           ///< integer-memory mini-graphs
    bool allowExternallySerial = true;
    bool allowInternallySerial = true;
    bool allowInteriorLoads = true;    ///< loads before the last position
};

} // namespace mg

#endif // MG_MG_MINIGRAPH_HH
