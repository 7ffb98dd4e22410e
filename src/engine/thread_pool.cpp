#include "engine/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace mg {

void
ThreadPool::parallelFor(int jobs, std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    // Per-index error capture: every index runs no matter what the
    // others throw, and the lowest throwing index's exception is the
    // one rethrown — the outcome is a pure function of fn, not of the
    // thread schedule (and matches the serial path bit for bit).
    std::mutex errLock;
    std::size_t errIndex = n;
    std::exception_ptr err;
    auto run = [&](std::size_t i) {
        try {
            fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> g(errLock);
            if (i < errIndex) {
                errIndex = i;
                err = std::current_exception();
            }
        }
    };

    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            run(i);
    } else {
        std::atomic<std::size_t> next{0};
        auto drain = [&] {
            for (std::size_t i; (i = next.fetch_add(1)) < n;)
                run(i);
        };
        std::vector<std::thread> workers;
        try {
            std::size_t count =
                std::min(static_cast<std::size_t>(jobs), n);
            workers.reserve(count);
            for (std::size_t t = 0; t < count; ++t)
                workers.emplace_back(drain);
        } catch (...) {
            // A thread failed to start: hand out no further indices,
            // join the workers that did start, and report the failure.
            next.store(n);
            for (std::thread &t : workers)
                t.join();
            throw;
        }
        for (std::thread &t : workers)
            t.join();
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace mg
