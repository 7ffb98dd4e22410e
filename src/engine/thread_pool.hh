/**
 * @file
 * The experiment engine's one threading primitive: a parallel loop
 * over cell indices. Results land in caller-owned slots indexed by
 * cell, never in completion order, so a sweep scatters cells and
 * gathers them deterministically.
 */

#ifndef MG_ENGINE_THREAD_POOL_HH
#define MG_ENGINE_THREAD_POOL_HH

#include <cstddef>
#include <functional>

namespace mg {

/** Scope of parallelFor; holds no state and has no instances. */
class ThreadPool
{
  public:
    ThreadPool() = delete;

    /**
     * Run @p fn(0..n-1), spreading indices over @p jobs workers.
     * With jobs <= 1 (or n <= 1) everything runs on the calling
     * thread — the serial reference a parallel sweep must match.
     * Otherwise exactly min(jobs, n) fresh threads claim indices from
     * a shared counter while the caller waits to join them, so each
     * call's per-thread state (thread_local trace rings) lives and
     * dies with it.
     *
     * A throwing index never aborts the loop: every index still runs,
     * and the exception from the lowest throwing index is rethrown on
     * the calling thread afterwards — identical behavior at every
     * jobs count, regardless of thread schedule. If a worker thread
     * fails to start, the workers already started finish the index
     * they hold and are joined, and the start failure is rethrown.
     */
    static void parallelFor(int jobs, std::size_t n,
                            const std::function<void(std::size_t)> &fn);
};

} // namespace mg

#endif // MG_ENGINE_THREAD_POOL_HH
