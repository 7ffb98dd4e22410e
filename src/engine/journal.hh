/**
 * @file
 * Crash-safe sweep journal: an append-only, checksummed record of
 * finished sweep cells, fsync'd per append, so a killed sweep rerun
 * with the same spec resumes where it died instead of starting over.
 *
 * One file per sweep spec — `<dir>/<spec-fingerprint>.mgsj` — holding
 * a fixed header plus a sequence of per-cell records keyed by the
 * cell fingerprint. Only Ok cells are journaled: failed or timed-out
 * cells re-simulate on resume (the failure may have been transient),
 * and a resumed sweep therefore converges to exactly the cells an
 * uninterrupted one produces — bit-identical final JSON.
 *
 * Crash safety is torn-tail truncation: a record is only trusted if
 * its length field fits the file and its FNV-1a-64 checksum matches,
 * and the first bad record truncates the file there (everything
 * before it is intact because appends are fsync'd in order). Like the
 * checkpoint store, the journal is fail-soft — any I/O error warns
 * once and degrades to journal-less execution; it never fails a
 * sweep.
 */

#ifndef MG_ENGINE_JOURNAL_HH
#define MG_ENGINE_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/failsoft.hh"
#include "sim/report.hh"

namespace mg {

class SweepJournal
{
  public:
    /**
     * Attach to `<dir>/<hex16(specFp)>.mgsj`, creating @p dir as
     * needed, and replay any surviving records (truncating a torn
     * tail). @return false — with the gate latched — when the
     * directory or file is unusable; the journal is then a no-op.
     */
    bool open(const std::string &dir, std::uint64_t specFp);

    /** A usable file is attached (open() succeeded, no error since). */
    bool attached() const;

    /** Fetch the journaled cell for @p cellFp. */
    bool lookup(std::uint64_t cellFp, SweepCell &out) const;

    /**
     * Append @p cell under @p cellFp and fsync. Callers only record
     * Ok cells; re-recording a fingerprint is idempotent (replay
     * keeps the first occurrence, appends of already-known cells are
     * skipped).
     */
    void record(std::uint64_t cellFp, const SweepCell &cell);

    /** Cells the journal holds now (replayed + appended) — the
     *  resume-invariant total the report emits. */
    std::uint64_t recorded() const;

    /** Cells replayed from disk by open() (test introspection;
     *  resume-variant, never reported). */
    std::uint64_t replayed() const;

    SweepJournal() = default;
    ~SweepJournal();
    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

  private:
    void closeFd();

    mutable std::mutex mu_;
    FailSoftGate gate_;
    int fd_ = -1;
    std::string path_;
    std::unordered_map<std::uint64_t, SweepCell> cells_;
    std::uint64_t replayed_ = 0;
};

} // namespace mg

#endif // MG_ENGINE_JOURNAL_HH
