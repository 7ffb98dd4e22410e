/**
 * @file
 * Benchmark kernels: hand-written MG-Alpha assembly implementations of
 * the algorithms the paper's four suites are known for, each paired
 * with a deterministic input generator and a C++ reference validator.
 *
 * These stand in for SPEC2000 / MediaBench / CommBench / MiBench
 * binaries, which are proprietary or unobtainable (see DESIGN.md's
 * substitution table). Every kernel writes a final checksum to its
 * `<name>_out` symbol; validation recomputes the checksum with a C++
 * mirror of the same algorithm over the same inputs.
 *
 * Kernels carry a *scale* (size-class) axis. `Scale::Ref` is the
 * tier-1 configuration every kernel supports: 50k-300k units of
 * dynamic work, sized so full kernel x configuration sweeps stay
 * cheap. `Scale::Long` is the M-scale tier (>= 1M units of work per
 * kernel, every kernel) that makes sampled-simulation error
 * measurable and exercises timing-dependent speculation state
 * (store-set training, congestion equilibria). `Scale::Huge` is the
 * 10M+-scale tier (a representative kernel per suite) long enough to
 * cross store-set clear intervals and stress fast-forward
 * scalability.
 *
 * A kernel has one setup and one validator, both taking the input
 * size; each tier is data, a `ScaleVariant` of {program text, input
 * size}. A scaled tier reuses the reference program text when only
 * its in-memory inputs and iteration counts grow, or runs an assembly
 * derived with scaledSource() when a buffer must be resized.
 */

#ifndef MG_WORKLOADS_KERNEL_HH
#define MG_WORKLOADS_KERNEL_HH

#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "emu/emulator.hh"
#include "isa/instruction.hh"

namespace mg {

/** Size class of a kernel run. */
enum class Scale
{
    Ref,    ///< tier-1 reference inputs (every kernel)
    Long,   ///< M-scale inputs, >= 1M units of work (every kernel)
    Huge,   ///< 10M+-scale inputs (one representative per suite)
};

/** The scales in size order, for iteration. */
constexpr Scale allScales[] = {Scale::Ref, Scale::Long, Scale::Huge};

/** Stable lowercase name ("ref" / "long" / "huge"). */
const char *scaleName(Scale s);

/** Parse a --scale value; fatal on anything but "ref"/"long"/"huge". */
Scale parseScale(const std::string &text);

/** One size class of a kernel. */
struct ScaleVariant
{
    /** Assembly at this scale; null = the Ref program is reused (the
     *  scaled inputs fit its buffers and only iteration counts grow). */
    const char *source = nullptr;
    /** Input size handed to setup/validate; 0 = unsupported scale. */
    int size = 0;
};

/** One benchmark kernel. */
struct Kernel
{
    const char *name;           ///< short id, e.g. "crc"
    const char *suite;          ///< SPECint-S, MediaBench-S, ...
    const char *description;

    /**
     * Write inputs into @p emu's memory (call after reset).
     * @param inputSet 0 = reference inputs, 1+ = alternate sets for
     *        the profile-robustness study
     * @param size the kernel's input size (a tier's ScaleVariant::size)
     */
    void (*setup)(Emulator &emu, int inputSet, int size);

    /** Check outputs against the C++ reference implementation. */
    bool (*validate)(const Emulator &emu, int inputSet, int size);

    /** Indexed by Scale; the Ref entry always carries a source. */
    ScaleVariant tiers[std::size(allScales)] = {};

    /** The tier table's entry for @p s. */
    const ScaleVariant &
    tier(Scale s) const
    {
        return tiers[static_cast<int>(s)];
    }

    /** Does the kernel support @p s? (Ref always.) */
    bool supports(Scale s) const { return tier(s).size != 0; }

    /** Assembly text executed at @p s. */
    const char *
    sourceFor(Scale s) const
    {
        const char *src = tier(s).source;
        return src ? src : tier(Scale::Ref).source;
    }

    /** Scale-dispatching setup; fatal when @p s is unsupported. */
    void setupAt(Emulator &emu, int inputSet, Scale s) const;

    /** Scale-dispatching validate; fatal when @p s is unsupported. */
    bool validateAt(const Emulator &emu, int inputSet, Scale s) const;
};

/** Every registered kernel, all suites. */
const std::vector<Kernel> &allKernels();

/** Lookup by name; fatal (listing every valid name) when unknown. */
const Kernel &findKernel(const std::string &name);

/** Kernels belonging to @p suite (in registration order). */
std::vector<const Kernel *> suiteKernels(const std::string &suite);

/** The four suite names in presentation order. */
const std::vector<std::string> &suiteNames();

/**
 * One-line-per-kernel discovery listing (name, suite, supported
 * scales, description) — what `--list-kernels` prints.
 */
std::string kernelListing();

/** Assemble a kernel's source for @p scale (cached per kernel+scale;
 *  scales sharing one source share one Program). */
const Program &kernelProgram(const Kernel &k, Scale scale = Scale::Ref);

/**
 * Derive a scale-variant assembly text: @p src with every (from, to)
 * replacement applied. Each `from` must occur exactly once — matching
 * a full `sym: .space N` line keeps substitutions unambiguous — and
 * the call is fatal otherwise. Callers format both sides from the
 * kernel's size constants, so a buffer and the input planted in it
 * cannot disagree. The returned storage lives for the process
 * (registration-time use).
 */
const char *scaledSource(
    const char *src,
    const std::vector<std::pair<std::string, std::string>> &subs);

// Registration hooks used by the per-suite translation units.
std::vector<Kernel> specintKernels();
std::vector<Kernel> mediaKernels();
std::vector<Kernel> commKernels();
std::vector<Kernel> mibenchKernels();

} // namespace mg

#endif // MG_WORKLOADS_KERNEL_HH
