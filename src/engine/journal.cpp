#include "engine/journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <vector>

#include "common/logging.hh"
#include "common/serial.hh"

namespace fs = std::filesystem;

namespace mg {

namespace {

constexpr std::uint32_t journalMagic = 0x4a53474d;   // "MGSJ"
constexpr std::uint32_t journalVersion = 3;
constexpr std::size_t headerBytes = 4 + 4 + 8;
/** Sanity cap on a record's length field: a SweepCell record is a few
 *  hundred bytes; anything huge is corruption, not data. */
constexpr std::uint32_t maxRecordBytes = 1u << 20;

} // namespace

bool
SweepJournal::open(const std::string &dir, std::uint64_t specFp)
{
    std::lock_guard<std::mutex> lock(mu_);
    closeFd();
    cells_.clear();
    replayed_ = 0;

    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec || !fs::is_directory(dir, ec) || ec) {
        gate_.fail("sweep journal: cannot use directory '%s' (%s); "
                   "running without a journal",
                   dir.c_str(),
                   ec ? ec.message().c_str() : "not a directory");
        return false;
    }
    path_ = dir + "/" + strfmt("%016llx",
                               static_cast<unsigned long long>(specFp)) +
        ".mgsj";

    // Read and replay whatever survives in an existing file.
    std::vector<std::uint8_t> raw;
    if (std::FILE *f = std::fopen(path_.c_str(), "rb")) {
        char buf[1 << 16];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            raw.insert(raw.end(), buf, buf + n);
        bool readOk = !std::ferror(f);
        std::fclose(f);
        if (!readOk) {
            gate_.fail("sweep journal: read error on '%s'; running "
                       "without a journal", path_.c_str());
            return false;
        }
    }

    std::size_t good = 0;   ///< bytes proven valid; truncate past here
    if (raw.size() >= headerBytes) {
        SerialReader r(raw);
        if (r.u32() != journalMagic || r.u32() != journalVersion ||
            r.u64() != specFp) {
            // Foreign or stale file under our name: start over. The
            // fingerprint names the file, so this is corruption, not
            // another spec's journal.
            warn("sweep journal: '%s' has a bad header; restarting it",
                 path_.c_str());
        } else {
            good = headerBytes;
            std::size_t pos = headerBytes;
            while (raw.size() - pos >= 12) {
                SerialReader rh(raw.data() + pos, 12);
                std::uint32_t len = rh.u32();
                std::uint64_t sum = rh.u64();
                if (len == 0 || len > maxRecordBytes ||
                    len > raw.size() - pos - 12)
                    break;       // torn or corrupt tail
                const std::uint8_t *payload = raw.data() + pos + 12;
                if (fnv1a64(payload, len) != sum)
                    break;
                SerialReader pr(payload, len);
                std::uint64_t cellFp = pr.u64();
                SweepCell cell;
                if (!deserializeSweepCell(pr, cell))
                    break;
                cells_.emplace(cellFp, std::move(cell));
                pos += 12 + len;
                good = pos;
            }
            replayed_ = cells_.size();
        }
    } else if (!raw.empty()) {
        warn("sweep journal: '%s' is truncated mid-header; "
             "restarting it", path_.c_str());
    }

    if (good == 0) {
        // Fresh (or unusable) file: write a new header atomically via
        // O_TRUNC, then fsync.
        fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd_ < 0) {
            gate_.fail("sweep journal: cannot open '%s' (%s); running "
                       "without a journal", path_.c_str(),
                       std::strerror(errno));
            return false;
        }
        SerialWriter h;
        h.u32(journalMagic);
        h.u32(journalVersion);
        h.u64(specFp);
        if (::write(fd_, h.data().data(), h.size()) !=
                static_cast<ssize_t>(h.size()) ||
            ::fsync(fd_) != 0) {
            gate_.fail("sweep journal: cannot write header of '%s' "
                       "(%s); running without a journal", path_.c_str(),
                       std::strerror(errno));
            closeFd();
            return false;
        }
        return true;
    }

    // Truncate any torn tail, then append after the good prefix.
    if (good < raw.size()) {
        warn("sweep journal: '%s' has a torn tail (%zu of %zu bytes "
             "valid); truncating and resuming",
             path_.c_str(), good, raw.size());
        if (::truncate(path_.c_str(),
                       static_cast<off_t>(good)) != 0) {
            gate_.fail("sweep journal: cannot truncate '%s' (%s); "
                       "running without a journal", path_.c_str(),
                       std::strerror(errno));
            return false;
        }
    }
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND, 0644);
    if (fd_ < 0) {
        gate_.fail("sweep journal: cannot reopen '%s' (%s); running "
                   "without a journal", path_.c_str(),
                   std::strerror(errno));
        return false;
    }
    return true;
}

bool
SweepJournal::attached() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return fd_ >= 0 && gate_.ok();
}

bool
SweepJournal::lookup(std::uint64_t cellFp, SweepCell &out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cells_.find(cellFp);
    if (it == cells_.end())
        return false;
    out = it->second;
    out.journalHit = true;
    return true;
}

void
SweepJournal::record(std::uint64_t cellFp, const SweepCell &cell)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0 || !gate_.ok())
        return;             // detached: hold nothing, serve nothing
    if (!cells_.emplace(cellFp, cell).second)
        return;             // already journaled (replayed hit)

    SerialWriter payload;
    payload.u64(cellFp);
    serializeSweepCell(cell, payload);
    SerialWriter rec;
    rec.u32(static_cast<std::uint32_t>(payload.size()));
    rec.u64(fnv1a64(payload.data().data(), payload.size()));
    rec.bytes(payload.data().data(), payload.size());

    // One write + one fsync per cell: the record is durable before the
    // sweep moves on, so a SIGKILL can tear at most the final append
    // (which replay truncates).
    if (::write(fd_, rec.data().data(), rec.size()) !=
            static_cast<ssize_t>(rec.size()) ||
        ::fsync(fd_) != 0) {
        gate_.fail("sweep journal: append to '%s' failed (%s); "
                   "journaling disabled for this sweep (results stay "
                   "correct)", path_.c_str(), std::strerror(errno));
        closeFd();
    }
}

std::uint64_t
SweepJournal::recorded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return cells_.size();
}

std::uint64_t
SweepJournal::replayed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return replayed_;
}

void
SweepJournal::closeFd()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

SweepJournal::~SweepJournal()
{
    std::lock_guard<std::mutex> lock(mu_);
    closeFd();
}

} // namespace mg
