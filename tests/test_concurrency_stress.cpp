/**
 * @file
 * Concurrency stress battery for the engine's shared components, built
 * to run under ThreadSanitizer (ctest -L analysis in the MG_TSAN
 * build). Each test hammers one shared structure from many threads at
 * once — ThreadPool::parallelFor, ArtifactCache memoisation, the
 * checkpoint store (whose writes and reads run
 * outside its lock, and whose fail-soft write gate's warn-once latch
 * is read there too), and
 * FailSoftGate itself. The assertions check the determinism contract
 * (once-per-key computes, exact aggregate sums, warn-once latching);
 * TSan checks the memory model underneath.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/failsoft.hh"
#include "engine/artifact_cache.hh"
#include "engine/checkpoint_store.hh"
#include "engine/thread_pool.hh"

using namespace mg;
namespace fs = std::filesystem;

namespace {

/** Fresh per-test scratch directory (removed on destruction). */
struct ScratchDir
{
    fs::path path;

    explicit ScratchDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("mg-stress-test-" + tag + "-" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
    std::string str() const { return path.string(); }
};

/// Worker counts high enough to force real interleaving even on a
/// single hardware thread (the pool oversubscribes happily).
constexpr int kJobs = 8;

TEST(StressThreadPool, ParallelForSumsExactlyOnce)
{
    const std::thread::id caller = std::this_thread::get_id();
    // The thread layout is part of the contract: at most min(jobs, n)
    // workers, never the caller, and jobs = 1 runs on the caller alone
    // (per-thread trace rings and peak memory scale with it).
    for (auto [jobs, n] : {std::pair<int, std::size_t>{kJobs, 20000},
                           {kJobs, 3}, {1, 64}}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs) + " n " +
                     std::to_string(n));
        std::vector<std::uint8_t> hit(n, 0);
        std::vector<std::thread::id> ran(n);
        std::atomic<std::uint64_t> sum{0};
        ThreadPool::parallelFor(jobs, n, [&](std::size_t i) {
            hit[i]++;   // distinct slots: racy only if indices collide
            ran[i] = std::this_thread::get_id();
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), n * (n - 1) / 2);
        EXPECT_TRUE(std::all_of(hit.begin(), hit.end(),
                                [](std::uint8_t h) { return h == 1; }));

        std::set<std::thread::id> ids(ran.begin(), ran.end());
        if (jobs == 1) {
            EXPECT_EQ(ids, std::set<std::thread::id>{caller});
        } else {
            EXPECT_LE(ids.size(),
                      std::min(static_cast<std::size_t>(jobs), n));
            EXPECT_EQ(ids.count(caller), 0u);
        }
    }
}

TEST(StressThreadPool, ThrowingIndicesStillRunEveryIndex)
{
    constexpr std::size_t n = 4096;
    std::atomic<std::uint64_t> ran{0};
    try {
        ThreadPool::parallelFor(kJobs, n, [&](std::size_t i) {
            ran.fetch_add(1, std::memory_order_relaxed);
            if (i % 97 == 3)
                throw std::runtime_error("index " + std::to_string(i));
        });
        FAIL() << "expected the lowest-index exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "index 3");
    }
    EXPECT_EQ(ran.load(), n);
}

TEST(StressArtifactCache, OncePerKeyUnderContention)
{
    ArtifactCache<std::uint64_t> cache;
    constexpr int keys = 16;
    constexpr std::size_t n = 2048;
    std::atomic<std::uint64_t> made{0};
    std::vector<std::uint64_t> got(n, 0);
    ThreadPool::parallelFor(kJobs, n, [&](std::size_t i) {
        int k = static_cast<int>(i) % keys;
        auto v = cache.get("key" + std::to_string(k), [&] {
            made.fetch_add(1, std::memory_order_relaxed);
            return std::uint64_t(k) * 1000003u;
        });
        got[i] = *v;
    });
    // Exactly one compute per key no matter the schedule; everyone
    // observed the published (immutable) value.
    EXPECT_EQ(made.load(), static_cast<std::uint64_t>(keys));
    EXPECT_EQ(cache.computes(), static_cast<std::uint64_t>(keys));
    EXPECT_EQ(cache.hits(), n - keys);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(got[i], (i % keys) * 1000003u);
}

TEST(StressArtifactCache, FailedComputeIsNotMemoised)
{
    ArtifactCache<int> cache;
    std::atomic<int> attempts{0};
    constexpr std::size_t n = 512;
    std::atomic<std::uint64_t> failures{0}, successes{0};
    ThreadPool::parallelFor(kJobs, n, [&](std::size_t) {
        try {
            // First attempt per arrival order may throw; the error
            // must never stick to the key.
            auto v = cache.get("flaky", [&] {
                if (attempts.fetch_add(1, std::memory_order_relaxed) == 0)
                    throw std::runtime_error("transient");
                return 7;
            });
            EXPECT_EQ(*v, 7);
            successes.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::runtime_error &) {
            failures.fetch_add(1, std::memory_order_relaxed);
        }
    });
    EXPECT_EQ(failures.load() + successes.load(), n);
    EXPECT_GT(successes.load(), 0u);
    // Post-storm, the key serves the memoised success.
    auto v = cache.get("flaky", [] { return 7; });
    EXPECT_EQ(*v, 7);
}

TEST(StressCheckpointStore, ConcurrentStoreLoadRoundTrips)
{
    ScratchDir dir("store");
    CheckpointStore store({dir.str()});
    ASSERT_TRUE(store.enabled());
    constexpr std::size_t n = 128;
    auto payloadFor = [](std::size_t i) {
        std::vector<std::uint8_t> p(512 + i);
        for (std::size_t b = 0; b < p.size(); ++b)
            p[b] = static_cast<std::uint8_t>((b * 131 + i) & 0xff);
        return p;
    };
    // Mixed readers and writers over a shared key space.
    ThreadPool::parallelFor(kJobs, n * 2, [&](std::size_t slot) {
        std::size_t i = slot % n;
        std::string key = "cell" + std::to_string(i);
        if (slot < n) {
            store.store(key, payloadFor(i));
        } else {
            std::vector<std::uint8_t> got;
            if (store.load(key, got)) {
                EXPECT_EQ(got, payloadFor(i));
            }
        }
    });
    // Quiesced: every record reads back verified.
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<std::uint8_t> got;
        ASSERT_TRUE(store.load("cell" + std::to_string(i), got)) << i;
        EXPECT_EQ(got, payloadFor(i));
    }
    EXPECT_EQ(store.counters().writebacks, n);
}

TEST(StressCheckpointStore, SameKeyWritersAndReadersNeverCollide)
{
    // Writers build and rename records outside the store lock, each
    // through its own temp file; readers verify outside it too. Every
    // load that hits must see a complete record, and no writer may
    // truncate or strand another's temp file.
    ScratchDir dir("samekey");
    CheckpointStore store({dir.str()});
    ASSERT_TRUE(store.enabled());
    std::vector<std::uint8_t> payload(64 * 1024);
    for (std::size_t b = 0; b < payload.size(); ++b)
        payload[b] = b % 9 ? 0 : static_cast<std::uint8_t>(b * 13);
    constexpr std::size_t stores = 64;
    constexpr std::size_t loads = 64;
    std::atomic<std::uint64_t> badLoads{0};
    ThreadPool::parallelFor(kJobs, stores + loads, [&](std::size_t i) {
        if (i % 2 == 0 && i / 2 < stores) {
            store.store("viol|same", payload);
        } else {
            std::vector<std::uint8_t> got;
            if (store.load("viol|same", got) && got != payload)
                badLoads.fetch_add(1, std::memory_order_relaxed);
        }
    });
    EXPECT_EQ(badLoads.load(), 0u);
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(store.load("viol|same", got));
    EXPECT_EQ(got, payload);
    CheckpointStoreCounters c = store.counters();
    EXPECT_EQ(c.writebacks, stores);
    EXPECT_EQ(c.corrupt, 0u);
    std::size_t records = 0;
    for (const auto &e : fs::directory_iterator(dir.path)) {
        std::string name = e.path().filename().string();
        EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
        records += e.path().extension() == ".mgck";
    }
    EXPECT_EQ(records, 1u);
}

TEST(StressCheckpointStore, WriteGateLatchRacesAreBenign)
{
    // Remove the directory out from under the store so every write
    // fails: racing store() calls all hit the fail-soft gate, whose
    // latch is intentionally read outside the store lock. TSan proves
    // the latch is well-ordered; the assertion proves it closed.
    ScratchDir dir("gate");
    CheckpointStore store({dir.str()});
    ASSERT_TRUE(store.enabled());
    fs::remove_all(dir.path);
    constexpr std::size_t n = 256;
    ThreadPool::parallelFor(kJobs, n, [&](std::size_t i) {
        std::string key = "k";
        key += std::to_string(i);
        store.store(key, std::vector<std::uint8_t>(64, 0xab));
    });
    EXPECT_FALSE(store.writable());
    EXPECT_EQ(store.counters().writebacks, 0u);
    fs::create_directories(dir.path);   // let ~ScratchDir clean up
}

TEST(StressFailSoftGate, ManyThreadsLatchExactlyOnce)
{
    for (int round = 0; round < 64; ++round) {
        FailSoftGate gate;
        EXPECT_TRUE(gate.ok());
        std::atomic<int> go{0};
        std::vector<std::thread> threads;
        threads.reserve(4);
        for (int t = 0; t < 4; ++t)
            threads.emplace_back([&] {
                go.fetch_add(1, std::memory_order_relaxed);
                while (go.load(std::memory_order_relaxed) < 4) {
                    // spin: all threads release together
                }
                gate.fail("stress-test gate closed (expected, once)");
            });
        for (auto &th : threads)
            th.join();
        EXPECT_FALSE(gate.ok());
    }
}

} // namespace
