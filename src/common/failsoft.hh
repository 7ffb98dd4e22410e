/**
 * @file
 * Failure-handling primitives shared by the fault-tolerant engine
 * layers.
 *
 * FailSoftGate is the warn-once fail-soft pattern the checkpoint
 * store introduced, promoted to a reusable helper: a component that
 * must never fail the simulation (the on-disk checkpoint store)
 * latches its first unrecoverable error, warns exactly once,
 * and silently degrades to a no-op from then on.
 *
 * CellDeadline is a cell's own wall-clock budget, and CellTimeout is
 * what a poll point in the timing loop or the functional pre-pass
 * throws once that budget is spent; the engine's per-cell failure
 * domains report it as a timed-out cell. Anything else that escapes a
 * cell (a bug that throws, an exhausted allocator) is a failure of
 * that cell alone. Both are reached only through a cell's own compute
 * and inputs.
 */

#ifndef MG_COMMON_FAILSOFT_HH
#define MG_COMMON_FAILSOFT_HH

#include <atomic>
#include <chrono>
#include <cstdarg>
#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace mg {

/** Thrown by a deadline poll point once the cell's wall-clock
 *  deadline has passed. */
class CellTimeout : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * A cell's wall-clock deadline: when the cell started and how many
 * seconds it may run. The cell's run loops call check() every 1024
 * (timing core) or 4096 (functional pre-pass) iterations, so the hot
 * path pays a counter increment, not a clock read, per step. Elapsed
 * time is compared as a double, so a timeout past what the clock can
 * represent (1e30 s) simply never fires. Each cell owns its deadline;
 * no other thread touches it.
 */
struct CellDeadline
{
    std::chrono::steady_clock::time_point start;
    double seconds = 0;

    /** Throw CellTimeout, naming @p where, once the deadline passed. */
    void
    check(const char *where) const
    {
        std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        if (elapsed.count() >= seconds)
            throw CellTimeout(std::string("cell deadline exceeded (") +
                              where + ")");
    }
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
