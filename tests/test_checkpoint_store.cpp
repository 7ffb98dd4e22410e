/**
 * @file
 * Checkpoint store battery.
 *
 * Three layers, innermost out:
 *  - the record codec: serial primitives and golden writer bytes, and
 *    the word-wise payload checksum;
 *  - the on-disk store's file format defenses: truncation, flipped
 *    bytes, stale version headers, summary and violation-pair records
 *    with trailing bytes, hash-slot collisions, unusable directories,
 *    and mid-session write failures all degrade to misses — never
 *    crash, never return wrong data;
 *  - end-to-end: a cold sampled session writes exactly its summary
 *    and violation-pair records, a warm session loads them and
 *    reproduces the cold session bit for bit (and a whole sweep's
 *    JSON matches a storeless sweep's); corrupting every record
 *    between the two sessions forces the warm session back onto the
 *    recompute path and it must still produce the cold session's
 *    exact stats (the never-silently-mis-simulate contract).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "engine/checkpoint_store.hh"
#include "engine/engine.hh"
#include "workloads/suites.hh"

using namespace mg;
namespace fs = std::filesystem;

namespace {

/** Fresh per-test scratch directory (removed on destruction). */
struct ScratchDir
{
    fs::path path;

    explicit ScratchDir(const std::string &tag)
        : path(fs::temp_directory_path() /
               ("mg-store-test-" + tag + "-" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
    std::string str() const { return path.string(); }
};

/** All record files currently in @p dir. */
std::vector<fs::path>
recordFiles(const fs::path &dir)
{
    std::vector<fs::path> out;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".mgck")
            out.push_back(e.path());
    return out;
}

/** The key string a record file carries (the collision guard field:
 *  magic u32, version u32, then a length-prefixed key). */
std::string
recordKey(const fs::path &file)
{
    std::ifstream in(file, std::ios::binary);
    std::vector<char> buf(8 + 8);
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    std::uint64_t len = 0;
    for (int i = 0; i < 8; ++i)
        len |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(buf[8 + i]))
            << (8 * i);
    std::string key(len, '\0');
    in.read(key.data(), static_cast<std::streamsize>(len));
    return key;
}

/** The key prefixes ("summ|", "viol|", ...) of every record in @p dir,
 *  sorted. */
std::vector<std::string>
recordKinds(const fs::path &dir)
{
    std::vector<std::string> out;
    for (const fs::path &f : recordFiles(dir)) {
        std::string key = recordKey(f);
        out.push_back(key.substr(0, key.find('|') + 1));
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** Overwrite one byte at @p off (negative: from the end). */
void
flipByte(const fs::path &file, long long off)
{
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    if (off < 0)
        f.seekp(off, std::ios::end);
    else
        f.seekp(off, std::ios::beg);
    char c = 0;
    f.seekg(f.tellp());
    f.get(c);
    f.seekp(-1, std::ios::cur);
    c = static_cast<char>(c ^ 0x5a);
    f.put(c);
}

/** Small-sampling config the unit tier can afford: enough periods on
 *  a ref-scale kernel to exercise fast-forward gaps and violation
 *  seeding without degenerating to an exact run. */
SimConfig
sampledSmall(SimConfig cfg)
{
    cfg.sampling.enabled = true;
    cfg.sampling.interval = 200;
    cfg.sampling.period = 2400;
    cfg.sampling.warmup = 400;
    return cfg;
}

} // namespace

// ---------------------------------------------------------- serial layer

TEST(StoreSerial, PrimitivesRoundTripAndTruncationLatches)
{
    SerialWriter w;
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.str("viol|key");

    const std::vector<std::uint8_t> &bytes = w.data();
    {
        SerialReader r(bytes);
        EXPECT_EQ(r.u32(), 0xdeadbeefu);
        EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
        EXPECT_EQ(r.str(), "viol|key");
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.remaining(), 0u);
    }
    // Any truncation point must trip ok(), never read past the end.
    for (std::size_t cut : {std::size_t(0), bytes.size() / 2,
                            bytes.size() - 1}) {
        SerialReader r(bytes.data(), cut);
        r.u32();
        r.u64();
        r.str();
        EXPECT_FALSE(r.ok()) << "cut at " << cut;
    }
}

TEST(StoreSerial, WriterGoldenBytes)
{
    SerialWriter w;
    w.u32(0x11223344);
    w.u64(0x0102030405060708ull);
    w.str("ab");
    const std::vector<std::uint8_t> golden = {
        0x44, 0x33, 0x22, 0x11,                            // u32
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,    // u64
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,    // str len
        'a', 'b',
    };
    EXPECT_EQ(w.data(), golden);

    SerialReader r(golden);
    EXPECT_EQ(r.u32(), 0x11223344u);
    EXPECT_EQ(r.u64(), 0x0102030405060708ull);
    EXPECT_EQ(r.str(), "ab");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

// ----------------------------------------------------------- codec layer

TEST(StoreCodec, RecordChecksumCatchesWordAndHighBitFlips)
{
    std::vector<std::uint8_t> p(1003);
    for (std::size_t i = 0; i < p.size(); ++i)
        p[i] = static_cast<std::uint8_t>(i * 37 + 1);
    const std::uint64_t base = recordChecksum(p.data(), p.size());
    EXPECT_EQ(recordChecksum(p.data(), p.size()), base);
    // Length is mixed in: a zero-padded tail is not the same payload.
    std::vector<std::uint8_t> padded = p;
    padded.push_back(0);
    EXPECT_NE(recordChecksum(padded.data(), padded.size()), base);
    // Every single-byte change, head, middle, and partial tail word.
    for (std::size_t at : {std::size_t(0), std::size_t(500),
                           p.size() - 1}) {
        std::vector<std::uint8_t> q = p;
        q[at] ^= 0x01;
        EXPECT_NE(recordChecksum(q.data(), q.size()), base) << at;
    }
    // The top bit of two words flipped together: a bare FNV-prime
    // multiply only carries bits upward, so these would cancel.
    std::vector<std::uint8_t> q = p;
    q[7] ^= 0x80;
    q[8 * 40 + 7] ^= 0x80;
    EXPECT_NE(recordChecksum(q.data(), q.size()), base);
}

// ------------------------------------------------------------ file layer

TEST(StoreFiles, RoundTripCountersAndPersistence)
{
    ScratchDir dir("roundtrip");
    std::vector<std::uint8_t> payload;
    for (int i = 0; i < 4096; ++i)
        payload.push_back(static_cast<std::uint8_t>(i % 11 ? 0 : i));

    {
        CheckpointStore s({dir.str()});
        ASSERT_TRUE(s.enabled());
        std::vector<std::uint8_t> out;
        EXPECT_FALSE(s.load("rec|a|0", out));
        s.store("rec|a|0", payload);
        ASSERT_TRUE(s.load("rec|a|0", out));
        EXPECT_EQ(out, payload);
        CheckpointStoreCounters c = s.counters();
        EXPECT_EQ(c.hits, 1u);
        EXPECT_EQ(c.misses, 1u);
        EXPECT_EQ(c.writebacks, 1u);
        EXPECT_EQ(c.corrupt, 0u);
    }
    // A second store instance over the same directory sees the record
    // (the content-addressed contract: the key, not the session, owns
    // the data).
    CheckpointStore s2({dir.str()});
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(s2.load("rec|a|0", out));
    EXPECT_EQ(out, payload);
}

TEST(StoreFiles, TruncatedRecordRejectedAndHealedByWriteback)
{
    ScratchDir dir("truncate");
    CheckpointStore s({dir.str()});
    std::vector<std::uint8_t> payload(1000, 7);
    s.store("rec|t|0", payload);

    auto files = recordFiles(dir.path);
    ASSERT_EQ(files.size(), 1u);
    fs::resize_file(files[0], fs::file_size(files[0]) / 2);

    std::vector<std::uint8_t> out;
    EXPECT_FALSE(s.load("rec|t|0", out));
    EXPECT_EQ(s.counters().corrupt, 1u);
    // Defective records are unlinked so the next writeback heals.
    EXPECT_TRUE(recordFiles(dir.path).empty());
    s.store("rec|t|0", payload);
    EXPECT_TRUE(s.load("rec|t|0", out));
    EXPECT_EQ(out, payload);
}

TEST(StoreFiles, FlippedPayloadByteFailsChecksum)
{
    ScratchDir dir("flip");
    CheckpointStore s({dir.str()});
    std::vector<std::uint8_t> payload(512);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i);
    s.store("rec|f|0", payload);

    auto files = recordFiles(dir.path);
    ASSERT_EQ(files.size(), 1u);
    flipByte(files[0], -17);    // inside the payload

    std::vector<std::uint8_t> out;
    EXPECT_FALSE(s.load("rec|f|0", out));
    EXPECT_EQ(s.counters().corrupt, 1u);
}

TEST(StoreFiles, StaleVersionHeaderRejected)
{
    ScratchDir dir("stale");
    CheckpointStore s({dir.str()});
    s.store("rec|v|0", std::vector<std::uint8_t>(64, 3));

    auto files = recordFiles(dir.path);
    ASSERT_EQ(files.size(), 1u);
    flipByte(files[0], 4);      // the format-version field

    std::vector<std::uint8_t> out;
    EXPECT_FALSE(s.load("rec|v|0", out));
    EXPECT_EQ(s.counters().corrupt, 1u);
}

TEST(StoreFiles, CorruptKeyLengthFieldIsRejectedWithoutAllocating)
{
    ScratchDir dir("hugelen");
    CheckpointStore s({dir.str()});
    const std::string key = "rec|len|0";
    s.store(key, std::vector<std::uint8_t>(256, 4));
    auto files = recordFiles(dir.path);
    ASSERT_EQ(files.size(), 1u);
    {
        // The key's length prefix follows magic and version.
        std::fstream f(files[0],
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(4 + 4);
        for (int i = 0; i < 8; ++i)
            f.put(static_cast<char>(0x7f));
    }
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(s.load(key, out));
    EXPECT_EQ(s.counters().corrupt, 1u);
}

TEST(StoreFiles, FormatVersionOneRecordIsStaleAndHealed)
{
    ScratchDir dir("v1");
    CheckpointStore s({dir.str()});
    const std::string key = "rec|v1|0";
    std::vector<std::uint8_t> payload(300, 0);
    payload[10] = 5;
    s.store(key, payload);
    auto files = recordFiles(dir.path);
    ASSERT_EQ(files.size(), 1u);

    // Replace the record with a well-formed version-1 record of the
    // same key: byte-wise FNV-1a checksum, raw (unencoded) payload.
    SerialWriter v1;
    v1.u32(0x4b43474d);   // "MGCK"
    v1.u32(1);
    const std::uint8_t v1Flags = 0;
    v1.bytes(&v1Flags, 1);
    v1.str(key);
    v1.u64(payload.size());
    v1.u64(fnv1a64(payload.data(), payload.size()));
    v1.bytes(payload.data(), payload.size());
    {
        std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(v1.data().data()),
                  static_cast<std::streamsize>(v1.size()));
    }

    std::vector<std::uint8_t> out;
    EXPECT_FALSE(s.load(key, out));
    EXPECT_EQ(s.counters().corrupt, 1u);
    EXPECT_TRUE(recordFiles(dir.path).empty());
    s.store(key, payload);
    ASSERT_TRUE(s.load(key, out));
    EXPECT_EQ(out, payload);
    EXPECT_EQ(s.counters().corrupt, 1u);
}

TEST(StoreFiles, SummaryRecordWithTrailingBytesIsRejectedAndRecomputed)
{
    // Both kinds of small record, the summary and the violation
    // pairs, must parse to their exact length.
    EngineWorkload w = workload(bindKernel(findKernel("gzip")));
    SimConfig sc = sampledSmall(SimConfig::intMemMg());
    for (const std::string kind : {"summ|", "viol|"}) {
        SCOPED_TRACE(kind);
        ScratchDir dir("tail-" + kind.substr(0, 4));
        auto openStore = [&] {
            return std::make_shared<CheckpointStore>(
                CheckpointStoreConfig{dir.str()});
        };
        ExperimentEngine cold(1);
        cold.setCheckpointStore(openStore());
        SampledStats a = cold.cellSampled(w, sc);

        // Rewrite the record with one byte appended to its payload: a
        // well-formed record (valid checksum) holding a longer layout
        // than this build writes, as an older build's record would.
        // It must be rejected, not half-parsed.
        std::string key;
        for (const fs::path &f : recordFiles(dir.path)) {
            if (recordKey(f).rfind(kind, 0) == 0)
                key = recordKey(f);
        }
        ASSERT_FALSE(key.empty());
        {
            CheckpointStore s({dir.str()});
            std::vector<std::uint8_t> payload;
            ASSERT_TRUE(s.load(key, payload));
            payload.push_back(0);
            s.store(key, payload);
        }

        ExperimentEngine warm(1);
        warm.setCheckpointStore(openStore());
        SampledStats b = warm.cellSampled(w, sc);
        CheckpointStoreCounters c = warm.checkpointStore()->counters();
        // The record was rejected, recomputed and written back; the
        // other record still hit.
        EXPECT_EQ(c.corrupt, 1u);
        EXPECT_EQ(c.hits, 1u);
        EXPECT_EQ(c.writebacks, 1u);
        EXPECT_EQ(b.est, a.est);
        EXPECT_EQ(b.intervals, a.intervals);
        EXPECT_EQ(b.ipcHat, a.ipcHat);
        EXPECT_EQ(b.ipcRelCi95, a.ipcRelCi95);

        // The rewritten record is clean again.
        ExperimentEngine healed(1);
        healed.setCheckpointStore(openStore());
        EXPECT_EQ(healed.cellSampled(w, sc).est, a.est);
        CheckpointStoreCounters h = healed.checkpointStore()->counters();
        EXPECT_EQ(h.corrupt, 0u);
        EXPECT_EQ(h.hits, 2u);
        EXPECT_EQ(h.writebacks, 0u);
    }
}

TEST(StoreFiles, HashSlotHoldingAnotherKeyReadsAsMiss)
{
    ScratchDir dir("collide");
    CheckpointStore s({dir.str()});
    s.store("rec|x|0", std::vector<std::uint8_t>(64, 1));
    s.store("rec|y|0", std::vector<std::uint8_t>(64, 2));

    // Simulate an FNV collision: plant x's (well-formed!) record in
    // y's file slot. The embedded key string must read as a miss for
    // y — never as x's data.
    auto files = recordFiles(dir.path);
    ASSERT_EQ(files.size(), 2u);
    fs::path xFile =
        recordKey(files[0]) == "rec|x|0" ? files[0] : files[1];
    fs::path yFile = xFile == files[0] ? files[1] : files[0];
    fs::copy_file(xFile, yFile, fs::copy_options::overwrite_existing);

    std::uint64_t corruptBefore = s.counters().corrupt;
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(s.load("rec|y|0", out));
    // A key mismatch is a plain miss, not corruption.
    EXPECT_EQ(s.counters().corrupt, corruptBefore);
    // x itself still loads.
    EXPECT_TRUE(s.load("rec|x|0", out));
    EXPECT_EQ(out, std::vector<std::uint8_t>(64, 1));
}

TEST(StoreFiles, UnusableDirectoryDegradesToNoOp)
{
    // The directory path runs *through* a regular file: mkdir fails.
    ScratchDir dir("unwritable");
    fs::path blocker = dir.path / "blocker";
    std::ofstream(blocker).put('x');
    CheckpointStore s({(blocker / "cache").string()});
    EXPECT_FALSE(s.enabled());
    EXPECT_FALSE(s.writable());

    // Every operation is a safe no-op.
    std::vector<std::uint8_t> out;
    s.store("rec|u|0", std::vector<std::uint8_t>(8, 1));
    EXPECT_FALSE(s.load("rec|u|0", out));
    EXPECT_EQ(s.counters().writebacks, 0u);
}

TEST(StoreFiles, WriteFailureMidSessionDegradesWrites)
{
    ScratchDir dir("enospc");
    fs::path sub = dir.path / "cache";
    fs::create_directories(sub);
    CheckpointStore s({sub.string()});
    ASSERT_TRUE(s.enabled());
    s.store("rec|w|0", std::vector<std::uint8_t>(128, 9));
    EXPECT_EQ(s.counters().writebacks, 1u);

    // Yank the directory out from under the store: the next write
    // cannot create its temp file (the ENOSPC-class failure mode) and
    // must degrade writes without failing the caller.
    fs::remove_all(sub);
    s.store("rec|w|1", std::vector<std::uint8_t>(128, 9));
    EXPECT_FALSE(s.writable());
    EXPECT_EQ(s.counters().writebacks, 1u);
    // Further stores stay no-ops; the object remains safe to use.
    s.store("rec|w|2", std::vector<std::uint8_t>(128, 9));
    EXPECT_EQ(s.counters().writebacks, 1u);
}

// ------------------------------------------------------- end-to-end layer

TEST(StoreEndToEnd, ColdPopulatesWarmReloadsBitIdentically)
{
    ScratchDir dir("e2e");
    BoundKernel bk = bindKernel(findKernel("gzip"));
    EngineWorkload w = workload(bk);
    SimConfig sc = sampledSmall(SimConfig::intMemMg());

    SampledStats none = ExperimentEngine(1).cellSampled(w, sc);

    ExperimentEngine cold(1);
    cold.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats a = cold.cellSampled(w, sc);
    ASSERT_FALSE(a.exact) << "kernel too small to exercise sampling";
    CheckpointStoreCounters cc = cold.checkpointStore()->counters();
    EXPECT_EQ(cc.misses, 2u);
    EXPECT_EQ(cc.writebacks, 2u);
    // A cold sampled session writes only the small records: the
    // binary's sample summary and the cell's violation pairs.
    EXPECT_EQ(recordKinds(dir.path),
              (std::vector<std::string>{"summ|", "viol|"}));

    ExperimentEngine warm(1);
    warm.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats b = warm.cellSampled(w, sc);
    CheckpointStoreCounters wc = warm.checkpointStore()->counters();
    EXPECT_EQ(wc.hits, 2u);
    EXPECT_EQ(wc.misses, 0u);
    EXPECT_EQ(wc.writebacks, 0u);

    // Storeless, cold and warm sessions agree bit for bit.
    for (const SampledStats *s : {&a, &b}) {
        EXPECT_EQ(s->est, none.est);
        EXPECT_EQ(s->intervals, none.intervals);
        EXPECT_EQ(s->measuredCycles, none.measuredCycles);
        EXPECT_EQ(s->ipcHat, none.ipcHat);
        EXPECT_EQ(s->ipcRelCi95, none.ipcRelCi95);
    }
}

TEST(StoreEndToEnd, StorelessColdAndWarmSweepsReportIdenticalJson)
{
    // reed's sampled int-mem cell discovers store-set violations, so
    // it runs the seeded second pass; gzip's is a plain sampled cell.
    // A store only memoizes: a whole sweep's report, store traffic
    // aside, is the same with no store, a cold one and a warm one.
    SweepSpec spec;
    spec.title = "store modes";
    for (const char *name : {"reed", "gzip"})
        spec.workloads.push_back(workload(bindKernel(findKernel(name))));
    spec.columns = {{"int-mem", sampledSmall(SimConfig::intMemMg()), true}};

    SweepResult none = ExperimentEngine(2).sweep(spec);

    ScratchDir dir("e2e-sweep");
    auto storeSweep = [&] {
        ExperimentEngine e(2);
        e.setCheckpointStore(std::make_shared<CheckpointStore>(
            CheckpointStoreConfig{dir.str()}));
        return e.sweep(spec);
    };
    SweepResult cold = storeSweep();
    SweepResult warm = storeSweep();
    EXPECT_EQ(cold.storeHits, 0u);
    EXPECT_GT(warm.storeHits, 0u);
    EXPECT_EQ(warm.storeMisses, 0u);

    // The checkpoint_store block says how a result was reached, not
    // what it is, so it is set aside.
    cold.storeAttached = false;
    warm.storeAttached = false;
    std::string want = sweepJson(none, "modes");
    EXPECT_EQ(sweepJson(cold, "modes"), want);
    EXPECT_EQ(sweepJson(warm, "modes"), want);
}

TEST(StoreEndToEnd, CollapsingColumnHitsTheSharedSummaryRecord)
{
    // The summary record is keyed by the binary, so a later session
    // running the collapsing sibling loads the record the
    // non-collapsing cell wrote, and still reports storeless stats.
    ScratchDir dir("e2e-shared");
    EngineWorkload w = workload(bindKernel(findKernel("gzip")));
    SimConfig plain = sampledSmall(SimConfig::intMemMg());
    SimConfig coll = sampledSmall(SimConfig::intMemMg(true));
    auto openStore = [&] {
        return std::make_shared<CheckpointStore>(
            CheckpointStoreConfig{dir.str()});
    };

    ExperimentEngine cold(1);
    cold.setCheckpointStore(openStore());
    cold.cellSampled(w, plain);

    ExperimentEngine warm(1);
    warm.setCheckpointStore(openStore());
    SampledStats b = warm.cellSampled(w, coll);
    CheckpointStoreCounters c = warm.checkpointStore()->counters();
    EXPECT_EQ(c.hits, 1u);          // the shared summ| record
    EXPECT_EQ(c.misses, 1u);        // this cell's own viol| record
    EXPECT_EQ(c.writebacks, 1u);
    ASSERT_FALSE(b.exact) << "kernel too small to exercise sampling";

    SampledStats none = ExperimentEngine(1).cellSampled(w, coll);
    EXPECT_EQ(b.est, none.est);
    EXPECT_EQ(b.intervals, none.intervals);
    EXPECT_EQ(b.measuredCycles, none.measuredCycles);
    EXPECT_EQ(b.ipcHat, none.ipcHat);
    EXPECT_EQ(b.ipcRelCi95, none.ipcRelCi95);
}

TEST(StoreEndToEnd, CorruptedRecordsFallBackToIdenticalRecompute)
{
    ScratchDir dir("e2e-corrupt");
    BoundKernel bk = bindKernel(findKernel("gzip"));
    EngineWorkload w = workload(bk);
    SimConfig sc = sampledSmall(SimConfig::intMemMg());

    ExperimentEngine cold(1);
    cold.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats a = cold.cellSampled(w, sc);
    ASSERT_FALSE(a.exact);
    ASSERT_EQ(recordKinds(dir.path),
              (std::vector<std::string>{"summ|", "viol|"}));

    // Flip a byte near the end of every record on disk: the summary
    // and the violation pairs alike.
    for (const fs::path &f : recordFiles(dir.path))
        flipByte(f, -3);

    ExperimentEngine warm(1);
    warm.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats b = warm.cellSampled(w, sc);

    // Nothing loadable: the session must recompute everything and
    // land on the cold session's exact stats — corruption can cost
    // time, never correctness.
    CheckpointStoreCounters wc = warm.checkpointStore()->counters();
    EXPECT_EQ(wc.corrupt, 2u);
    EXPECT_EQ(wc.hits, 0u);
    EXPECT_EQ(wc.writebacks, 2u);
    EXPECT_EQ(b.est, a.est);
    EXPECT_EQ(b.intervals, a.intervals);
    // The rejected records were unlinked and rewritten: a third
    // session loads both again.
    ExperimentEngine healed(1);
    healed.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats c = healed.cellSampled(w, sc);
    CheckpointStoreCounters hc = healed.checkpointStore()->counters();
    EXPECT_EQ(hc.hits, 2u);
    EXPECT_EQ(hc.corrupt, 0u);
    EXPECT_EQ(c.est, a.est);
}

TEST(StoreEndToEnd, UnusableDirectoryStillSimulatesStoreless)
{
    ScratchDir dir("e2e-baddir");
    fs::path blocker = dir.path / "blocker";
    std::ofstream(blocker).put('x');

    BoundKernel bk = bindKernel(findKernel("adpcm.enc"));
    EngineWorkload w = workload(bk);
    SimConfig sc = sampledSmall(SimConfig::intMemMg());

    ExperimentEngine plain(1);
    SampledStats ref = plain.cellSampled(w, sc);

    ExperimentEngine broken(1);
    broken.setCheckpointStore(std::make_shared<CheckpointStore>(
        CheckpointStoreConfig{(blocker / "cache").string()}));
    SampledStats got = broken.cellSampled(w, sc);

    // A disabled store must not change a single bit of the result.
    EXPECT_EQ(got.est, ref.est);
    EXPECT_EQ(got.intervals, ref.intervals);
    EXPECT_EQ(broken.checkpointStore()->counters().writebacks, 0u);
}
