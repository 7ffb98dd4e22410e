/**
 * @file
 * Thread-safe once-per-key artifact memoisation. The first caller of a
 * key computes the artifact while later callers block on its future,
 * so a sweep never performs the same profile / prepare / timing run
 * twice no matter how its cells are scheduled. Values are immutable
 * once published (shared_ptr<const T>), which is what makes sharing
 * them across worker threads safe.
 */

#ifndef MG_ENGINE_ARTIFACT_CACHE_HH
#define MG_ENGINE_ARTIFACT_CACHE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace mg {

/** Keyed store of immutable artifacts with hit/compute counters. */
template <typename T>
class ArtifactCache
{
  public:
    /**
     * @return the artifact for @p key, computing it with @p make on
     *         first use. @p make must be deterministic in @p key.
     */
    std::shared_ptr<const T>
    get(const std::string &key, const std::function<T()> &make)
    {
        std::shared_future<std::shared_ptr<const T>> fut;
        std::promise<std::shared_ptr<const T>> mine;
        bool compute = false;
        {
            std::lock_guard<std::mutex> g(lock);
            auto it = entries.find(key);
            if (it == entries.end()) {
                compute = true;
                ++computes_;
                fut = mine.get_future().share();
                entries.emplace(key, fut);
            } else {
                ++hits_;
                fut = it->second;
            }
        }
        if (compute) {
            try {
                mine.set_value(std::make_shared<const T>(make()));
            } catch (...) {
                // Un-map the key before publishing the failure: the
                // exception must not be memoised, or a later sweep of
                // the same cell would re-throw the stale error forever
                // instead of recomputing. Callers already blocked on
                // this future share the failure (they asked for this
                // attempt); callers arriving later start a fresh
                // compute.
                {
                    std::lock_guard<std::mutex> g(lock);
                    entries.erase(key);
                }
                mine.set_exception(std::current_exception());
                throw;
            }
        }
        return fut.get();
    }

    std::uint64_t
    hits() const
    {
        std::lock_guard<std::mutex> g(lock);
        return hits_;
    }

    std::uint64_t
    computes() const
    {
        std::lock_guard<std::mutex> g(lock);
        return computes_;
    }

  private:
    mutable std::mutex lock;
    std::unordered_map<std::string,
                       std::shared_future<std::shared_ptr<const T>>>
        entries;
    std::uint64_t hits_ = 0;
    std::uint64_t computes_ = 0;
};

} // namespace mg

#endif // MG_ENGINE_ARTIFACT_CACHE_HH
