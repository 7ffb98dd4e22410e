/**
 * @file
 * Convenience layer tying kernels to the experiment engine: binding a
 * kernel assembles its source (at the requested scale) and packages
 * its input-planting closure; the suite-matrix helpers expose whole
 * suites (and the paper's standard configuration columns) as engine
 * sweep axes.
 *
 * Scale flows through the workload id ("<kernel>@long",
 * "<kernel>@huge"), which is the key every engine artifact cache
 * fingerprints on — so profiles, prepared rewrites, timing runs, and
 * sample summaries of different tiers never collide even when they
 * share one program text.
 */

#ifndef MG_WORKLOADS_SUITES_HH
#define MG_WORKLOADS_SUITES_HH

#include <string>
#include <vector>

#include "engine/engine.hh"
#include "sim/simulator.hh"
#include "workloads/kernel.hh"

namespace mg {

/** A kernel bound to its program and setup closure at one scale. */
struct BoundKernel
{
    const Kernel *kernel = nullptr;
    const Program *program = nullptr;
    Scale scale = Scale::Ref;
    SetupFn setup;                  ///< inputSet 0

    /** Setup closure for an alternate input set (same scale). */
    SetupFn setupFor(int inputSet) const;
};

/** Bind @p k at @p scale (assembling its source on first use); fatal
 *  when the kernel does not support the scale. */
BoundKernel bindKernel(const Kernel &k, Scale scale = Scale::Ref);

/** Bind every kernel of @p suite supporting @p scale. */
std::vector<BoundKernel> bindSuite(const std::string &suite,
                                   Scale scale = Scale::Ref);

/** Bind all kernels of all suites supporting @p scale (presentation
 *  order). */
std::vector<BoundKernel> bindAll(Scale scale = Scale::Ref);

/**
 * Emulate @p bk to completion and verify its checksum against the C++
 * reference; fatal on mismatch. @return dynamic work executed.
 */
std::uint64_t checkKernel(const BoundKernel &bk, int inputSet = 0);

/**
 * Engine workload for @p bk's input set @p inputSet. The workload id
 * is the kernel name (suffixed "@long" or "@huge" for a scaled tier
 * and "#<set>" for alternate inputs), which is what the artifact
 * caches key on.
 */
EngineWorkload workload(const BoundKernel &bk, int inputSet = 0);

/**
 * A sweep row axis: every kernel of @p suite ("all" = all suites in
 * presentation order) supporting @p scale, as an engine workload.
 */
std::vector<EngineWorkload> suiteWorkloads(const std::string &suite = "all",
                                           int inputSet = 0,
                                           Scale scale = Scale::Ref);

/**
 * The paper's standard column axis: the 6-wide baseline followed by
 * the four Figure 6 mini-graph machines (int, int+coll, int-mem,
 * int-mem+coll).
 */
std::vector<SweepColumn> standardColumns();

} // namespace mg

#endif // MG_WORKLOADS_SUITES_HH
