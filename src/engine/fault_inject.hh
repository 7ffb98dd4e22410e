/**
 * @file
 * Deterministic, site-addressed fault injection for the sweep
 * engine's robustness battery (the failure-path counterpart of the
 * checkpoint store's corruption battery).
 *
 * A fault spec — `--fault-inject SPEC` or `$MG_FAULT_SPEC` — is a
 * comma-separated list of rules:
 *
 *     site[@match][:p=P][:ms=M][:seed=S]
 *
 *   site   what the fault does; every site fires at cell start:
 *            fail         permanent exception
 *            alloc        std::bad_alloc
 *            stall        sleep M ms (deadline tests)
 *   match  substring the cell key ("<workload>|<column>") must
 *          contain; omitted = every key.
 *   p      fraction of matching keys the rule arms on, decided by a
 *          seeded hash of the key — the same keys fault in every run
 *          (default 1.0 = all).
 *   ms     stall duration (stall site only, default 1000).
 *   seed   seed of the p-hash (default 0).
 *
 * Everything is deterministic: whether a rule fires depends only on
 * (spec, site, key), never on thread schedule or wall clock, so a
 * faulted sweep is reproducible.
 */

#ifndef MG_ENGINE_FAULT_INJECT_HH
#define MG_ENGINE_FAULT_INJECT_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace mg {

/** Instrumented failure sites. */
enum class FaultSite : std::uint8_t
{
    CellFail,    ///< cell-start permanent exception
    Alloc,       ///< cell-start allocation failure
    Stall,       ///< cell-start wall-clock stall
};

/** One parsed spec rule. */
struct FaultRule
{
    FaultSite site = FaultSite::CellFail;
    std::string match;           ///< key substring; empty = all keys
    double p = 1.0;              ///< key-hash arming fraction
    std::uint32_t stallMs = 1000;
    std::uint64_t seed = 0;
};

/** The process-wide injector (disarmed by default: checks cost one
 *  relaxed atomic load until a spec is configured). */
class FaultInjector
{
  public:
    /** Parse and install @p spec ("" clears). fatal() on a malformed
     *  spec. */
    void configure(const std::string &spec);

    bool armed() const { return armed_.load(std::memory_order_relaxed); }

    /**
     * Fault check for @p site under @p key. Throws the site's
     * exception when a rule fires; stall sites sleep instead,
     * polling @p cancel every few ms and throwing CellTimeout when
     * the deadline watchdog fires mid-stall.
     */
    void at(FaultSite site, const std::string &key,
            const std::atomic<bool> *cancel = nullptr);

    /** The singleton every instrumented site consults. */
    static FaultInjector &global();

  private:
    std::atomic<bool> armed_{false};
    std::mutex mu_;
    std::vector<FaultRule> rules_;
};

/** Convenience wrapper over FaultInjector::global().at(). */
inline void
faultPoint(FaultSite site, const std::string &key,
           const std::atomic<bool> *cancel = nullptr)
{
    FaultInjector &fi = FaultInjector::global();
    if (fi.armed())
        fi.at(site, key, cancel);
}

} // namespace mg

#endif // MG_ENGINE_FAULT_INJECT_HH
