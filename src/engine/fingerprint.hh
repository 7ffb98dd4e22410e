/**
 * @file
 * Canonical fingerprints for experiment inputs. The artifact caches
 * key on these strings, so two cells share a profile / prepared
 * program / timing result exactly when every field that influences
 * that artifact is identical. Display names (SimConfig::name) are
 * deliberately excluded: two columns with the same underlying machine
 * dedupe to one computation.
 */

#ifndef MG_ENGINE_FINGERPRINT_HH
#define MG_ENGINE_FINGERPRINT_HH

#include <cstdint>
#include <string>

#include "sim/config.hh"

namespace mg {

/** Accumulates tag=value pairs into a canonical string. */
class Fingerprint
{
  public:
    Fingerprint &add(const char *tag, std::uint64_t v);
    Fingerprint &add(const char *tag, int v);
    Fingerprint &add(const char *tag, bool v);
    Fingerprint &add(const char *tag, const std::string &v);

    const std::string &str() const { return text; }

  private:
    std::string text;
};

/**
 * Everything that shapes a functional profiling run of the workload
 * identified by @p workload (a unique id covering program + inputs).
 */
std::string profileFingerprint(const std::string &workload,
                               std::uint64_t budget);

/** Everything that shapes selection + rewrite (includes the profile). */
std::string prepareFingerprint(const std::string &profileFp,
                               const SelectionPolicy &policy,
                               const MgtMachine &machine, bool compress);

/** Everything that shapes a timing run (profile/prepare included). */
std::string cellFingerprint(const std::string &workload,
                            const SimConfig &cfg);

/**
 * Hash of what the emulator executes for @p prog with @p mgt: the
 * text (every field of every slot), the entry point, and each
 * template's body (ops, operands, immediates, output index). Machine
 * latencies and the data image are not part of it; the workload id
 * beside it covers the data and inputs.
 */
std::string binaryFingerprint(const Program &prog, const MgTable *mgt);

/**
 * Everything that shapes a functional sample summary: the executed
 * binary (@p variant is the workload id suffixed with the
 * binaryFingerprint of the program the config runs), the sampling
 * grid, and the work cap. Deliberately excludes the machine
 * configuration, which is what makes summaries shareable across sweep
 * columns.
 */
std::string summaryFingerprint(const std::string &variant,
                               const SamplingParams &sp,
                               std::uint64_t runBudget);

} // namespace mg

#endif // MG_ENGINE_FINGERPRINT_HH
