/**
 * @file
 * Failure-handling primitives shared by the fault-tolerant engine
 * layers.
 *
 * FailSoftGate is the warn-once fail-soft pattern the checkpoint
 * store introduced, promoted to a reusable helper: a component that
 * must never fail the simulation (an on-disk cache, the sweep
 * journal) latches its first unrecoverable error, warns exactly once,
 * and silently degrades to a no-op from then on.
 *
 * CellTimeout is what the timing loop throws when its cooperative
 * cancellation flag fires; the engine's per-cell failure domains
 * report it as a timed-out cell. Anything else that escapes a cell (a
 * bug that throws, an exhausted allocator) is a failure of that cell
 * alone. Both are reached only through a cell's own compute and
 * inputs.
 */

#ifndef MG_COMMON_FAILSOFT_HH
#define MG_COMMON_FAILSOFT_HH

#include <atomic>
#include <cstdarg>
#include <stdexcept>

#include "common/logging.hh"

namespace mg {

/** Thrown by a cancellation poll point once the cell's wall-clock
 *  deadline has fired. */
class CellTimeout : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Warn-once fail-soft latch. Starts open; the first fail() prints
 * its message via warn() and closes the gate, later fail()s are
 * silent. Callers guard their degradable operations with ok().
 *
 * Thread-safe: the latch is an atomic flag, so ok() may be polled
 * without the owner's lock (the checkpoint store reads it on its
 * store() fast path before locking) and concurrent fail()s elect
 * exactly one warner via exchange().
 */
class FailSoftGate
{
  public:
    // Relaxed is enough: the flag is a monotonic advisory latch, it
    // guards no other memory — whoever observes it closed only skips
    // work, and the mutex of the owning component orders the data.
    bool ok() const { return ok_.load(std::memory_order_relaxed); }

    /** Latch failure; exactly one call warns with @p fmt. */
    void
    fail(const char *fmt, ...)
    {
        // exchange() makes close-and-test one atomic step: among
        // racing fail()s only the one that flips true->false warns.
        if (ok_.exchange(false, std::memory_order_relaxed)) {
            va_list ap;
            va_start(ap, fmt);
            warn("%s", vstrfmt(fmt, ap).c_str());
            va_end(ap);
        }
    }

  private:
    std::atomic<bool> ok_{true};
};

} // namespace mg

#endif // MG_COMMON_FAILSOFT_HH
