#include "engine/checkpoint_store.hh"

#include <unistd.h>

#include <algorithm>
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

void
store64(std::uint8_t *p, std::uint64_t w)
{
    std::memcpy(p, &w, 8);
}

/** 0x80 in every zero byte of @p w, 0x00 in every other (exact: the
 *  per-byte sums below cannot carry across bytes). */
constexpr std::uint64_t
zeroMask(std::uint64_t w)
{
    constexpr std::uint64_t low7 = 0x7f7f7f7f7f7f7f7full;
    return ~(((w & low7) + low7) | w | low7);
}

/** Bytes before the first flagged byte of a zeroMask-style @p mask
 *  (8 when none is flagged). */
unsigned
bytesBeforeFlag(std::uint64_t mask)
{
    return mask ? static_cast<unsigned>(std::countr_zero(mask)) / 8 : 8;
}

} // namespace

void
rleEncode(const std::uint8_t *in, std::size_t n,
          std::vector<std::uint8_t> &out)
{
    // Worst case is alternating 00 xx (every zero costs two bytes),
    // plus slack for the speculative stores below.
    std::size_t at = out.size();
    out.resize(at + n + n / 2 + 2 + 8);
    std::uint8_t *o = out.data() + at;
    // The pending zero run stays below 255: a run is emitted as soon
    // as it reaches 255, which splits long runs exactly as a greedy
    // byte-wise encoder does.
    unsigned zeros = 0;
    auto flush = [&] {
        o[0] = 0;
        o[1] = static_cast<std::uint8_t>(zeros);
        o += zeros ? 2 : 0;
        zeros = 0;
    };
    // One byte without branches: the run header and the literal are
    // stored unconditionally and kept by advancing the cursor.
    auto put = [&](std::uint8_t v) {
        bool lit = v != 0;
        o[0] = 0;
        o[1] = static_cast<std::uint8_t>(zeros);
        o += lit && zeros ? 2 : 0;
        *o = v;
        o += lit;
        zeros = lit ? 0 : zeros + 1;
        bool full = zeros == 255;
        o[0] = 0;
        o[1] = 255;
        o += full ? 2 : 0;
        zeros = full ? 0 : zeros;
    };
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w = load64(in + i);
        if (w == 0) {
            zeros += 8;
            if (zeros >= 255) {
                o[0] = 0;
                o[1] = 255;
                o += 2;
                zeros -= 255;
            }
        } else if (zeroMask(w) == 0) {
            flush();
            store64(o, w);
            o += 8;
        } else {
            for (int b = 0; b < 8; ++b)
                put(static_cast<std::uint8_t>(w >> (8 * b)));
        }
    }
    for (; i < n; ++i)
        put(in[i]);
    flush();
    out.resize(static_cast<std::size_t>(o - out.data()));
}

bool
rleDecode(const std::uint8_t *in, std::size_t len,
          std::vector<std::uint8_t> &out, std::size_t expect)
{
    // Slack for whole-word literal stores, trimmed on success.
    out.resize(expect + 8);
    std::uint8_t *o = out.data();
    std::size_t pos = 0;
    for (std::size_t i = 0; i < len;) {
        if (in[i] == 0) {
            if (i + 1 >= len)
                return false;
            std::size_t run = in[i + 1];
            if (run == 0 || run > expect - pos)
                return false;
            std::memset(o + pos, 0, run);
            pos += run;
            i += 2;
            continue;
        }
        // A literal run: whole words up to the next zero byte.
        while (i + 8 <= len) {
            std::uint64_t w = load64(in + i);
            unsigned lit = bytesBeforeFlag(zeroMask(w));
            if (lit > expect - pos)
                return false;
            store64(o + pos, w);
            pos += lit;
            i += lit;
            if (lit < 8)
                break;
        }
        if (i + 8 > len) {
            for (; i < len && in[i] != 0; ++i) {
                if (pos == expect)
                    return false;
                o[pos++] = in[i];
            }
        }
    }
    out.resize(expect);
    return pos == expect;
}

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
             "store disabled, runs fall back to functional warming",
             cfg_.dir.c_str(),
             ec ? ec.message().c_str() : "not a directory");
        return;
    }
    dirOk_ = true;
    scanDir();
}

void
CheckpointStore::scanDir()
{
    std::error_code ec;
    // Seed LRU recency from on-disk mtimes so eviction order survives
    // across sessions; within this session, touches use a monotonic
    // stamp above everything scanned.
    std::vector<std::pair<std::int64_t, std::string>> found;
    for (fs::directory_iterator it(cfg_.dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        const fs::directory_entry &e = *it;
        if (!e.is_regular_file(ec) || ec)
            continue;
        std::string p = e.path().string();
        if (p.size() < 5 || p.compare(p.size() - 5, 5, storeExt) != 0)
            continue;
        std::uint64_t sz = e.file_size(ec);
        if (ec)
            continue;
        auto m = e.last_write_time(ec);
        std::int64_t mt =
            ec ? 0 : m.time_since_epoch().count();
        found.emplace_back(mt, std::move(p));
        index_[found.back().second].size = sz;
        totalBytes_ += sz;
    }
    std::sort(found.begin(), found.end());
    for (const auto &[mt, p] : found)
        index_[p].stamp = ++stampSeq_;
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

/** Decode and verify a record file's bytes for @p key.
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
    std::uint8_t encoding = r.u8();
    std::string storedKey = r.str();
    std::uint64_t payloadLen = r.u64();
    std::uint64_t checksum = r.u64();
    if (!r.ok())
        return "truncated header";
    if (storedKey != key)
        return foreignKey;
    if (encoding == 1) {
        // A two-byte run decodes to at most 255 bytes: a larger length
        // is a corrupt header, not an allocation to attempt.
        if (payloadLen / 128 > r.remaining())
            return "truncated payload";
        if (!rleDecode(raw.data() + r.pos(), r.remaining(), payload,
                       static_cast<std::size_t>(payloadLen)))
            return "truncated payload";
    } else if (encoding == 0) {
        if (r.remaining() != payloadLen)
            return "truncated payload";
        payload.assign(raw.begin() +
                           static_cast<std::ptrdiff_t>(r.pos()),
                       raw.end());
    } else {
        return "unknown encoding";
    }
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

    // Read, decode and verify without the lock: records are replaced
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
        // Unlink the defective record so a writeback heals it.
        warn("checkpoint store: rejecting '%s' (%s); recomputing",
             path.c_str(), why);
        std::error_code ec;
        fs::remove(path, ec);
        std::lock_guard<std::mutex> lock(mu_);
        ++ctr_.corrupt;
        ++ctr_.misses;
        auto it = index_.find(path);
        if (it != index_.end()) {
            totalBytes_ -= std::min(totalBytes_, it->second.size);
            index_.erase(it);
        }
        return false;
    }

    // Refresh the on-disk mtime so cross-session eviction order sees
    // this use; best-effort (recency is an optimization, not
    // correctness).
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    std::lock_guard<std::mutex> lock(mu_);
    ++ctr_.hits;
    auto it = index_.find(path);
    if (it != index_.end())
        it->second.stamp = ++stampSeq_;
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
    // index update below touches shared state.
    SerialWriter hdr;
    hdr.u32(storeMagic);
    hdr.u32(formatVersion);
    hdr.u8(1);   // zero-RLE payload
    hdr.str(key);
    hdr.u64(payload.size());
    hdr.u64(recordChecksum(payload.data(), payload.size()));
    std::vector<std::uint8_t> rec = hdr.take();
    rleEncode(payload.data(), payload.size(), rec);

    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        writeFailed("open", tmp);
        return;
    }
    bool ok = std::fwrite(rec.data(), 1, rec.size(), f) == rec.size();
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
    auto [it, inserted] = index_.try_emplace(path);
    if (!inserted)
        totalBytes_ -= std::min(totalBytes_, it->second.size);
    it->second.size = rec.size();
    it->second.stamp = ++stampSeq_;
    totalBytes_ += rec.size();
    ++ctr_.writebacks;
    evictUnderLock();
}

void
CheckpointStore::evictUnderLock()
{
    if (totalBytes_ <= cfg_.capBytes)
        return;
    std::vector<std::pair<std::uint64_t, std::string>> byAge;
    byAge.reserve(index_.size());
    // Eviction order is stamp order, never hash order.
    // mglint:allow(unordered-iter): pairs copied then sorted below
    for (const auto &[path, e] : index_)
        byAge.emplace_back(e.stamp, path);
    std::sort(byAge.begin(), byAge.end());
    for (const auto &[stamp, path] : byAge) {
        if (totalBytes_ <= cfg_.capBytes)
            break;
        std::error_code ec;
        fs::remove(path, ec);
        auto it = index_.find(path);
        totalBytes_ -= std::min(totalBytes_, it->second.size);
        index_.erase(it);
        ++ctr_.evictions;
    }
}

CheckpointStoreCounters
CheckpointStore::counters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ctr_;
}

namespace {

/** The engine's CellCheckpointClient: derives record keys from the
 *  cell fingerprint and (de)serializes the violation-pair seed. */
class StoreCellClient : public CellCheckpointClient
{
  public:
    StoreCellClient(CheckpointStore &store, std::string cellKey)
        : store_(store), cellKey_(std::move(cellKey))
    {}

    bool
    loadWarm(std::uint64_t pos, std::uint64_t seedHash,
             std::vector<std::uint8_t> &bytes) override
    {
        return store_.load(warmKey(pos, seedHash), bytes);
    }

    void
    storeWarm(std::uint64_t pos, std::uint64_t seedHash,
              const std::vector<std::uint8_t> &bytes) override
    {
        store_.store(warmKey(pos, seedHash), bytes);
    }

    bool
    loadViolPairs(std::vector<std::pair<Addr, Addr>> &out) override
    {
        std::vector<std::uint8_t> raw;
        if (!store_.load("viol|" + cellKey_, raw))
            return false;
        SerialReader r(raw);
        std::uint64_t n = r.u64();
        if (n > r.remaining() / 16)
            return false;   // malformed; treat as absent
        out.clear();
        out.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
            Addr a = r.u64();
            Addr b = r.u64();
            out.emplace_back(a, b);
        }
        return r.ok();
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
        store_.store("viol|" + cellKey_, w.data());
    }

  private:
    std::string
    warmKey(std::uint64_t pos, std::uint64_t seedHash) const
    {
        char suffix[64];
        std::snprintf(suffix, sizeof suffix, "|s%016llx|p%llu",
                      static_cast<unsigned long long>(seedHash),
                      static_cast<unsigned long long>(pos));
        return "warm|" + cellKey_ + suffix;
    }

    CheckpointStore &store_;
    std::string cellKey_;
};

} // namespace

std::unique_ptr<CellCheckpointClient>
makeCellClient(CheckpointStore &store, const std::string &cellKey)
{
    return std::make_unique<StoreCellClient>(store, cellKey);
}

} // namespace mg
