#include "engine/checkpoint_store.hh"

#include <algorithm>
#include <cstdio>
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

/** Zero-run-length encode: 0x00 becomes 0x00 + run length (1-255);
 *  other bytes pass through. Cache tag arrays and sparse pages are
 *  zero-heavy, so this typically shrinks records several-fold at
 *  memcpy-like speed. */
std::vector<std::uint8_t>
rleEncode(const std::vector<std::uint8_t> &in)
{
    std::vector<std::uint8_t> out;
    out.reserve(in.size() / 2 + 16);
    for (std::size_t i = 0; i < in.size();) {
        std::uint8_t b = in[i];
        if (b != 0) {
            out.push_back(b);
            ++i;
            continue;
        }
        std::size_t run = 1;
        while (run < 255 && i + run < in.size() && in[i + run] == 0)
            ++run;
        out.push_back(0);
        out.push_back(static_cast<std::uint8_t>(run));
        i += run;
    }
    return out;
}

/** @return false when the stream is malformed or decodes past
 *  @p expect bytes. */
bool
rleDecode(const std::uint8_t *in, std::size_t len,
          std::vector<std::uint8_t> &out, std::size_t expect)
{
    out.clear();
    out.reserve(expect);
    for (std::size_t i = 0; i < len;) {
        std::uint8_t b = in[i++];
        if (b != 0) {
            out.push_back(b);
        } else {
            if (i >= len)
                return false;
            std::uint8_t run = in[i++];
            if (run == 0 || out.size() + run > expect)
                return false;
            out.insert(out.end(), run, 0);
        }
        if (out.size() > expect)
            return false;
    }
    return out.size() == expect;
}

} // namespace

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

bool
CheckpointStore::load(const std::string &key,
                      std::vector<std::uint8_t> &payload)
{
    if (!dirOk_)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::string path = pathOf(key);

    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        ++ctr_.misses;
        return false;
    }
    std::vector<std::uint8_t> raw;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        raw.insert(raw.end(), buf, buf + n);
    bool readOk = !std::ferror(f);
    std::fclose(f);

    auto reject = [&](const char *why) {
        ++ctr_.corrupt;
        ++ctr_.misses;
        warn("checkpoint store: rejecting '%s' (%s); recomputing",
             path.c_str(), why);
        std::error_code ec;
        fs::remove(path, ec);
        auto it = index_.find(path);
        if (it != index_.end()) {
            totalBytes_ -= std::min(totalBytes_, it->second.size);
            index_.erase(it);
        }
        return false;
    };

    if (!readOk)
        return reject("read error");
    SerialReader r(raw);
    if (r.u32() != storeMagic)
        return reject("bad magic");
    if (r.u32() != formatVersion)
        return reject("stale format version");
    std::uint8_t encoding = r.u8();
    std::string storedKey = r.str();
    std::uint64_t payloadLen = r.u64();
    std::uint64_t checksum = r.u64();
    if (!r.ok())
        return reject("truncated header");
    if (storedKey != key) {
        // A different key hashed to this file name: not our record.
        // Leave it alone (it is valid for its own key); the next
        // store() for our key overwrites it — last writer wins.
        ++ctr_.misses;
        return false;
    }
    if (encoding == 1) {
        if (!rleDecode(raw.data() + r.pos(), r.remaining(), payload,
                       static_cast<std::size_t>(payloadLen)))
            return reject("truncated payload");
    } else if (encoding == 0) {
        if (r.remaining() != payloadLen)
            return reject("truncated payload");
        payload.assign(raw.begin() +
                           static_cast<std::ptrdiff_t>(r.pos()),
                       raw.end());
    } else {
        return reject("unknown encoding");
    }
    if (fnv1a64(payload.data(), payload.size()) != checksum)
        return reject("checksum mismatch");

    ++ctr_.hits;
    touch(path);
    return true;
}

void
CheckpointStore::touch(const std::string &path)
{
    auto it = index_.find(path);
    if (it != index_.end())
        it->second.stamp = ++stampSeq_;
    // Refresh the on-disk mtime so cross-session eviction order sees
    // this use; best-effort (recency is an optimization, not
    // correctness).
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
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
    std::lock_guard<std::mutex> lock(mu_);
    if (!writeGate_.ok())
        return;
    std::string path = pathOf(key);
    std::string tmp = path + ".tmp";

    SerialWriter hdr;
    hdr.u32(storeMagic);
    hdr.u32(formatVersion);
    hdr.u8(1);   // zero-RLE payload
    hdr.str(key);
    hdr.u64(payload.size());
    hdr.u64(fnv1a64(payload.data(), payload.size()));
    std::vector<std::uint8_t> body = rleEncode(payload);

    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        writeFailed("open", tmp);
        return;
    }
    bool ok =
        std::fwrite(hdr.data().data(), 1, hdr.size(), f) == hdr.size() &&
        (body.empty() ||
         std::fwrite(body.data(), 1, body.size(), f) == body.size());
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

    std::uint64_t size = hdr.size() + body.size();
    auto [it, inserted] = index_.try_emplace(path);
    if (!inserted)
        totalBytes_ -= std::min(totalBytes_, it->second.size);
    it->second.size = size;
    it->second.stamp = ++stampSeq_;
    totalBytes_ += size;
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
