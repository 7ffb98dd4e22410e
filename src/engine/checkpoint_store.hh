/**
 * @file
 * Content-addressed, on-disk checkpoint store.
 *
 * Records are small byte payloads addressed by a content key (the
 * engine composes keys from its canonical fingerprints — see
 * docs/ARCHITECTURE.md for the schema): each binary's sample summary
 * and each sampled cell's discovered violation pairs, a few KB each.
 * Each record is one file named by the FNV-1a 64 hash of its key,
 * holding a versioned header, the full key string (a collision guard:
 * a hash-colliding record of a different key reads as a miss, never
 * as wrong data), a checksum of the payload (recordChecksum), and the
 * payload itself.
 *
 * The store never fails the simulation: an unusable directory, a
 * write error (ENOSPC included), or a corrupt/stale/truncated record
 * degrades to a warn-once miss and the caller recomputes what it
 * wanted to load. Writes are atomic: each goes to its own temp file
 * (`<record>.tmp.<pid>.<seq>`, unique per process and per write, so
 * writers in different processes sharing a directory never truncate
 * each other's files) and is renamed over the record, so readers
 * never observe half-written records. (A process killed mid-write
 * leaves its temp file behind; it is never read.)
 *
 * All entry points are thread-safe (engine cells run on a worker
 * pool). The lock covers only the counters: store() checksums, writes
 * and renames, and load() reads and verifies, outside it, so workers
 * never queue behind another's file I/O. The races this leaves are
 * benign — each ends in a counted miss and a recompute, never in
 * wrong data:
 *  - a load that rejects a defective record unlinks the path, which
 *    may by then hold a fresh writeback of the same key;
 *  - two writers of one key race their renames; either complete
 *    record wins.
 */

#ifndef MG_ENGINE_CHECKPOINT_STORE_HH
#define MG_ENGINE_CHECKPOINT_STORE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/failsoft.hh"

namespace mg {

class CellCheckpointClient;   // sim/simulator.hh

/** Store location. */
struct CheckpointStoreConfig
{
    std::string dir;   ///< cache directory
};

/** Effectiveness/health counters (monotonic over the store's life). */
struct CheckpointStoreCounters
{
    std::uint64_t hits = 0;        ///< loads served from disk
    std::uint64_t misses = 0;      ///< loads that found nothing usable
    std::uint64_t writebacks = 0;  ///< records written
    std::uint64_t corrupt = 0;     ///< records rejected (checksum,
                                   ///< truncation, stale version)

    CheckpointStoreCounters
    operator-(const CheckpointStoreCounters &o) const
    {
        return {hits - o.hits, misses - o.misses,
                writebacks - o.writebacks, corrupt - o.corrupt};
    }
};

/** The store. */
class CheckpointStore
{
  public:
    /** Bumped whenever any serialized layout changes: a version
     *  mismatch reads as corruption (reject, recompute, overwrite). */
    static constexpr std::uint32_t formatVersion = 3;

    /** Opens (creating if needed) the cache directory; on failure the
     *  store warns once and every operation becomes a no-op. */
    explicit CheckpointStore(CheckpointStoreConfig cfg);

    /**
     * Load the record for @p key into @p payload.
     * @return true on a verified hit; false on miss or any defect
     *         (defective records are unlinked so a writeback heals
     *         them).
     */
    bool load(const std::string &key, std::vector<std::uint8_t> &payload);

    /** Write (or replace) the record for @p key. Failures degrade to
     *  a warn-once no-op. */
    void store(const std::string &key,
               const std::vector<std::uint8_t> &payload);

    /** Reject the record for @p key, which load() returned but the
     *  caller could not parse (@p why): unlink it so a writeback heals
     *  it, and count it corrupt and the load a miss, not a hit. */
    void reject(const std::string &key, const char *why);

    /** False when the directory was unusable at construction. */
    bool enabled() const { return dirOk_; }

    /** False after a write error disabled further writebacks. */
    bool writable() const { return dirOk_ && writeGate_.ok(); }

    const std::string &dir() const { return cfg_.dir; }

    CheckpointStoreCounters counters() const;

  private:
    std::string pathOf(const std::string &key) const;
    /** Unlink a defective record and count it corrupt and its load a
     *  miss (@p wasHit: withdrawing the hit load() counted). */
    void rejectPath(const std::string &path, const char *why,
                    bool wasHit);
    void writeFailed(const char *what, const std::string &path);

    CheckpointStoreConfig cfg_;
    bool dirOk_ = false;
    /** Warn-once writeback latch (common/failsoft.hh): the first
     *  failed write disables further writebacks, loads continue. */
    FailSoftGate writeGate_;
    mutable std::mutex mu_;
    CheckpointStoreCounters ctr_;
};

/** The payload checksum of a record (exposed for the format tests):
 *  seeded with the FNV-1a offset basis xor @p len, each little-endian
 *  64-bit word (the tail word zero-padded) is xored in, multiplied by
 *  the FNV prime and rotated left 29 bits. Every step is a bijection,
 *  so a record differing in one word always fails it; the rotate
 *  spreads high-bit flips into the low bits the multiply cannot
 *  reach. */
std::uint64_t recordChecksum(const void *data, std::size_t len);

/**
 * Adapt @p store into the per-cell client runCellSampled consumes.
 * @p cellKey must uniquely identify the cell (the engine passes its
 * cell fingerprint); the adapter derives the record key
 * "viol|<cellKey>" from it. The adapter holds a reference to
 * @p store, which must outlive it.
 */
std::unique_ptr<CellCheckpointClient>
makeCellClient(CheckpointStore &store, const std::string &cellKey);

} // namespace mg

#endif // MG_ENGINE_CHECKPOINT_STORE_HH
