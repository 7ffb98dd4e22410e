#include "engine/checkpoint_store.hh"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/logging.hh"
#include "common/serial.hh"
#include "sim/simulator.hh"

namespace fs = std::filesystem;

namespace mg {

namespace {

constexpr std::uint32_t storeMagic = 0x4b43474d;   // "MGCK"
constexpr const char *storeExt = ".mgck";

/** Per-process sequence for temp-file names (with the pid, unique
 *  across every writer that can share a directory). */
std::atomic<std::uint64_t> tmpSeq{0};

std::uint64_t
load64(const std::uint8_t *p)
{
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
}

} // namespace

std::uint64_t
recordChecksum(const void *data, std::size_t len)
{
    constexpr std::uint64_t prime = 0x100000001b3ull;
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = 0xcbf29ce484222325ull ^ len;
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8)
        h = std::rotl((h ^ load64(p + i)) * prime, 29);
    if (i < len) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + i, len - i);
        h = std::rotl((h ^ w) * prime, 29);
    }
    return h;
}

CheckpointStore::CheckpointStore(CheckpointStoreConfig cfg)
    : cfg_(std::move(cfg))
{
    std::error_code ec;
    fs::create_directories(cfg_.dir, ec);
    if (ec || !fs::is_directory(cfg_.dir, ec) || ec) {
        warn("checkpoint store: cannot use directory '%s' (%s); "
             "store disabled, sampled runs proceed storeless",
             cfg_.dir.c_str(),
             ec ? ec.message().c_str() : "not a directory");
        return;
    }
    dirOk_ = true;
}

std::string
CheckpointStore::pathOf(const std::string &key) const
{
    char name[32];
    std::snprintf(name, sizeof name, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(key.data(), key.size())));
    return cfg_.dir + "/" + name + storeExt;
}

namespace {

/** parseRecord's verdict on a well-formed record of another key (a
 *  file-name collision). */
constexpr const char *foreignKey = "foreign key";

/** Verify a record file's bytes for @p key.
 *  @return nullptr when @p payload holds the verified payload,
 *          foreignKey, or why the record is defective. */
const char *
parseRecord(const std::vector<std::uint8_t> &raw, const std::string &key,
            std::vector<std::uint8_t> &payload)
{
    SerialReader r(raw);
    if (r.u32() != storeMagic)
        return "bad magic";
    if (r.u32() != CheckpointStore::formatVersion)
        return "stale format version";
    std::string storedKey = r.str();
    std::uint64_t checksum = r.u64();
    if (!r.ok())
        return "truncated header";
    if (storedKey != key)
        return foreignKey;
    // The payload is the rest of the file; the checksum (seeded with
    // the length) catches a truncated one.
    payload.assign(raw.begin() + static_cast<std::ptrdiff_t>(r.pos()),
                   raw.end());
    if (recordChecksum(payload.data(), payload.size()) != checksum)
        return "checksum mismatch";
    return nullptr;
}

/** Read the whole of @p f into @p raw. */
bool
readAll(std::FILE *f, std::vector<std::uint8_t> &raw)
{
    if (std::fseek(f, 0, SEEK_END) != 0)
        return false;
    long size = std::ftell(f);
    if (size < 0 || std::fseek(f, 0, SEEK_SET) != 0)
        return false;
    raw.resize(static_cast<std::size_t>(size));
    return std::fread(raw.data(), 1, raw.size(), f) == raw.size();
}

} // namespace

bool
CheckpointStore::load(const std::string &key,
                      std::vector<std::uint8_t> &payload)
{
    if (!dirOk_)
        return false;
    std::string path = pathOf(key);

    // Read and verify without the lock: records are replaced
    // by rename, so an open file is one writer's complete record.
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        std::lock_guard<std::mutex> lock(mu_);
        ++ctr_.misses;
        return false;
    }
    std::vector<std::uint8_t> raw;
    bool readOk = readAll(f, raw);
    std::fclose(f);
    const char *why =
        readOk ? parseRecord(raw, key, payload) : "read error";

    if (why == foreignKey) {
        // Not our record. Leave it alone (it is valid for its own
        // key); the next store() for our key overwrites it — last
        // writer wins.
        std::lock_guard<std::mutex> lock(mu_);
        ++ctr_.misses;
        return false;
    }
    if (why) {
        rejectPath(path, why, false);
        return false;
    }

    std::lock_guard<std::mutex> lock(mu_);
    ++ctr_.hits;
    return true;
}

void
CheckpointStore::writeFailed(const char *what, const std::string &path)
{
    writeGate_.fail("checkpoint store: %s failed for '%s'; disabling "
                    "writebacks (loads continue, runs stay correct)",
                    what, path.c_str());
    std::error_code ec;
    fs::remove(path, ec);
}

void
CheckpointStore::store(const std::string &key,
                       const std::vector<std::uint8_t> &payload)
{
    if (!dirOk_ || !writeGate_.ok())
        return;
    std::string path = pathOf(key);
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                      std::to_string(tmpSeq.fetch_add(1));

    // Build, write and publish the record without the lock; only the
    // counter update below touches shared state.
    SerialWriter rec;
    rec.u32(storeMagic);
    rec.u32(formatVersion);
    rec.str(key);
    rec.u64(recordChecksum(payload.data(), payload.size()));
    rec.bytes(payload.data(), payload.size());

    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        writeFailed("open", tmp);
        return;
    }
    bool ok =
        std::fwrite(rec.data().data(), 1, rec.size(), f) == rec.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        writeFailed("write", tmp);
        return;
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        writeFailed("rename", tmp);
        return;
    }

    std::lock_guard<std::mutex> lock(mu_);
    ++ctr_.writebacks;
}

void
CheckpointStore::reject(const std::string &key, const char *why)
{
    if (dirOk_)
        rejectPath(pathOf(key), why, true);
}

void
CheckpointStore::rejectPath(const std::string &path, const char *why,
                            bool wasHit)
{
    // Unlink the defective record so a writeback heals it.
    warn("checkpoint store: rejecting '%s' (%s); recomputing",
         path.c_str(), why);
    std::error_code ec;
    fs::remove(path, ec);
    std::lock_guard<std::mutex> lock(mu_);
    ++ctr_.corrupt;
    ++ctr_.misses;
    ctr_.hits -= wasHit;
}

CheckpointStoreCounters
CheckpointStore::counters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ctr_;
}

namespace {

/** The engine's CellCheckpointClient: derives the record key from the
 *  cell fingerprint and (de)serializes the violation-pair seed. */
class StoreCellClient : public CellCheckpointClient
{
  public:
    StoreCellClient(CheckpointStore &store, const std::string &cellKey)
        : store_(store), key_("viol|" + cellKey)
    {}

    bool
    loadViolPairs(std::vector<std::pair<Addr, Addr>> &out) override
    {
        std::vector<std::uint8_t> raw;
        if (!store_.load(key_, raw))
            return false;
        SerialReader r(raw);
        std::uint64_t n = r.u64();
        std::vector<std::pair<Addr, Addr>> pairs;
        if (r.ok() && n <= r.remaining() / 16) {
            pairs.reserve(static_cast<std::size_t>(n));
            for (std::uint64_t i = 0; i < n; ++i) {
                Addr a = r.u64();
                Addr b = r.u64();
                pairs.emplace_back(a, b);
            }
        } else {
            r.fail();
        }
        // An exact-length record: trailing bytes (an older layout) are
        // malformed, not ignored.
        if (!r.ok() || r.remaining() != 0) {
            store_.reject(key_, "malformed violation pairs");
            return false;
        }
        out = std::move(pairs);
        return true;
    }

    void
    storeViolPairs(
        const std::vector<std::pair<Addr, Addr>> &pairs) override
    {
        SerialWriter w;
        w.u64(pairs.size());
        for (const auto &[a, b] : pairs) {
            w.u64(a);
            w.u64(b);
        }
        store_.store(key_, w.data());
    }

  private:
    CheckpointStore &store_;
    std::string key_;
};

} // namespace

std::unique_ptr<CellCheckpointClient>
makeCellClient(CheckpointStore &store, const std::string &cellKey)
{
    return std::make_unique<StoreCellClient>(store, cellKey);
}

} // namespace mg
