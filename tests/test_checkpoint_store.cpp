/**
 * @file
 * Warm-checkpoint store battery.
 *
 * Three layers, innermost out:
 *  - serialization round trips for every warmable structure (the
 *    functional oracle, the cache hierarchy, the branch predictor,
 *    the store sets), including geometry/shape-mismatch rejection;
 *  - the record codec: golden writer bytes, zero-RLE output pinned
 *    byte for byte to a reference byte-wise encoder, the word-wise
 *    payload checksum;
 *  - the on-disk store's file format defenses: truncation, flipped
 *    bytes, stale version headers, hash-slot collisions, LRU
 *    eviction, unusable directories, and mid-session write failures
 *    all degrade to misses — never crash, never return wrong data;
 *  - end-to-end: a cold sampled session populates the store, a warm
 *    session restores from it bit-identically; corrupting every
 *    record between the two sessions forces the warm session back
 *    onto the recompute path and it must still produce the cold
 *    session's exact stats (the never-silently-mis-simulate
 *    contract).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "engine/checkpoint_store.hh"
#include "engine/engine.hh"
#include "memsys/hierarchy.hh"
#include "uarch/branch_pred.hh"
#include "uarch/store_sets.hh"
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
 *  magic u32, version u32, encoding u8, then a length-prefixed key). */
std::string
recordKey(const fs::path &file)
{
    std::ifstream in(file, std::ios::binary);
    std::vector<char> buf(9 + 8);
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    std::uint64_t len = 0;
    for (int i = 0; i < 8; ++i)
        len |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(buf[9 + i]))
            << (8 * i);
    std::string key(len, '\0');
    in.read(key.data(), static_cast<std::streamsize>(len));
    return key;
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
 *  a ref-scale kernel to exercise fast-forward gaps and warm records
 *  without degenerating to an exact run. */
SimConfig
sampledSmall(SimConfig cfg)
{
    cfg.sampling.enabled = true;
    cfg.sampling.interval = 200;
    cfg.sampling.period = 2400;
    cfg.sampling.warmup = 400;
    cfg.sampling.ffWarm = 400;
    return cfg;
}

} // namespace

// ---------------------------------------------------------- serial layer

TEST(StoreSerial, PrimitivesRoundTripAndTruncationLatches)
{
    SerialWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.f64(3.25);
    w.str("warm|key");
    w.vec(std::vector<std::uint32_t>{1, 2, 3});

    std::vector<std::uint8_t> bytes = w.take();
    {
        SerialReader r(bytes);
        EXPECT_EQ(r.u8(), 0xab);
        EXPECT_EQ(r.u32(), 0xdeadbeefu);
        EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
        EXPECT_EQ(r.f64(), 3.25);
        EXPECT_EQ(r.str(), "warm|key");
        EXPECT_EQ(r.vec<std::uint32_t>(),
                  (std::vector<std::uint32_t>{1, 2, 3}));
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r.remaining(), 0u);
    }
    // Any truncation point must trip ok(), never read past the end.
    for (std::size_t cut : {std::size_t(0), bytes.size() / 2,
                            bytes.size() - 1}) {
        SerialReader r(bytes.data(), cut);
        r.u8();
        r.u32();
        r.u64();
        r.f64();
        r.str();
        r.vec<std::uint32_t>();
        EXPECT_FALSE(r.ok()) << "cut at " << cut;
    }
}

TEST(StoreSerial, WriterGoldenBytes)
{
    SerialWriter w;
    w.u32(0x11223344);
    w.u64(0x0102030405060708ull);
    w.vec(std::vector<std::uint64_t>{0xa1a2a3a4a5a6a7a8ull});
    w.vec(std::vector<std::int32_t>{-2});
    w.str("ab");
    const std::vector<std::uint8_t> golden = {
        0x44, 0x33, 0x22, 0x11,                            // u32
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,    // u64
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,    // vec len
        0xa8, 0xa7, 0xa6, 0xa5, 0xa4, 0xa3, 0xa2, 0xa1,    //   [0]
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,    // vec len
        0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,    //   [0] = -2
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,    // str len
        'a', 'b',
    };
    EXPECT_EQ(w.data(), golden);

    SerialReader r(golden);
    EXPECT_EQ(r.u32(), 0x11223344u);
    EXPECT_EQ(r.u64(), 0x0102030405060708ull);
    EXPECT_EQ(r.vec<std::uint64_t>(),
              std::vector<std::uint64_t>{0xa1a2a3a4a5a6a7a8ull});
    EXPECT_EQ(r.vec<std::int32_t>(), std::vector<std::int32_t>{-2});
    EXPECT_EQ(r.str(), "ab");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(StoreSerial, EmuCheckpointRoundTripContinuesIdentically)
{
    BoundKernel bk = bindKernel(findKernel("crc"));
    Emulator a(*bk.program);
    bk.kernel->setup(a, 0);
    while (!a.halted() && a.dynInsns() < 3000)
        a.step();

    SerialWriter w;
    serializeCheckpoint(a.checkpoint(), w);
    std::vector<std::uint8_t> bytes = w.take();

    EmuCheckpoint c;
    {
        SerialReader r(bytes);
        ASSERT_TRUE(deserializeCheckpoint(r, c));
        EXPECT_TRUE(r.ok());
    }
    Emulator b(*bk.program);
    bk.kernel->setup(b, 0);
    b.restore(std::move(c));
    EmuResult endA = a.run();
    EmuResult endB = b.run();
    EXPECT_EQ(endA.dynWork, endB.dynWork);
    EXPECT_EQ(a.pc(), b.pc());
    for (RegId r = 0; r < numArchRegs; ++r)
        EXPECT_EQ(a.reg(r), b.reg(r)) << "register " << int(r);

    // Every truncation of a checkpoint must be rejected, not adopted.
    for (std::size_t cut = 0; cut < bytes.size();
         cut += 1 + bytes.size() / 13) {
        SerialReader r(bytes.data(), cut);
        EmuCheckpoint t;
        EXPECT_FALSE(deserializeCheckpoint(r, t) && r.ok())
            << "cut at " << cut;
    }
}

TEST(StoreSerial, HierarchyRoundTripAndGeometryGuard)
{
    HierarchyConfig hc;
    Hierarchy h(hc);
    for (Addr a = 0; a < 64 * 1024; a += 24) {
        h.dataAccess(a, (a / 24) % 3 == 0, a / 8);
        h.instAccess(0x400000 + a % 4096, a / 8);
    }
    HierarchyState st = h.exportState();

    SerialWriter w;
    st.serialize(w);
    std::vector<std::uint8_t> bytes = w.take();
    HierarchyState rt;
    {
        SerialReader r(bytes);
        ASSERT_TRUE(rt.deserialize(r));
        EXPECT_TRUE(r.ok());
    }

    Hierarchy h2(hc);
    ASSERT_TRUE(h2.stateCompatible(rt));
    h2.adoptState(rt);
    // Adopted warm state is bit-equal on re-export.
    SerialWriter w2;
    h2.exportState().serialize(w2);
    EXPECT_EQ(bytes, w2.data());

    // A different geometry must refuse the state outright.
    HierarchyConfig other = hc;
    other.l1d = CacheGeometry{16 * 1024, 4, 64};
    EXPECT_FALSE(Hierarchy(other).stateCompatible(rt));

    // Internally inconsistent vector lengths are malformed input.
    HierarchyState bad = rt;
    bad.l1d.tags.pop_back();
    EXPECT_FALSE(Hierarchy(hc).stateCompatible(bad));
}

TEST(StoreSerial, BranchPredRoundTripAndShapeGuard)
{
    BranchPredictor bp;
    for (Addr pc = 0x1000; pc < 0x3000; pc += 4) {
        bp.updateDirection(pc, (pc >> 2) % 3 != 0);
        if ((pc >> 2) % 5 == 0)
            bp.updateTarget(pc, pc * 2 + 8);
    }
    bp.pushReturn(0x7700);
    BranchPredState st = bp.exportState();

    SerialWriter w;
    st.serialize(w);
    BranchPredState rt;
    {
        SerialReader r(w.data());
        ASSERT_TRUE(rt.deserialize(r));
        EXPECT_TRUE(r.ok());
    }
    BranchPredictor bp2;
    ASSERT_TRUE(bp2.stateCompatible(rt));
    bp2.adoptState(rt);
    for (Addr pc = 0x1000; pc < 0x3000; pc += 4) {
        EXPECT_EQ(bp2.predictDirection(pc), bp.predictDirection(pc));
        EXPECT_EQ(bp2.predictTarget(pc), bp.predictTarget(pc));
    }
    EXPECT_EQ(bp2.popReturn(), 0x7700u);

    BranchPredState bad = rt;
    bad.gshare.resize(bad.gshare.size() / 2);
    EXPECT_FALSE(BranchPredictor().stateCompatible(bad));
}

TEST(StoreSerial, StoreSetsRoundTripAndShapeGuard)
{
    StoreSets ss;
    ss.recordViolation(0x100, 0x200);
    ss.recordViolation(0x100, 0x300);   // merged set
    ss.recordViolation(0x500, 0x600);
    ss.dispatchStore(0x200, 41);
    StoreSetsState st = ss.exportState();

    SerialWriter w;
    st.serialize(w);
    StoreSetsState rt;
    {
        SerialReader r(w.data());
        ASSERT_TRUE(rt.deserialize(r));
        EXPECT_TRUE(r.ok());
    }
    StoreSets ss2;
    ASSERT_TRUE(ss2.stateCompatible(rt));
    ss2.adoptState(rt);
    // The merged set's ordering behavior survives the round trip.
    EXPECT_EQ(ss2.dispatchLoad(0x100), 41u);
    EXPECT_EQ(ss2.violations(), 3u);

    StoreSetsState bad = rt;
    bad.ssit.resize(bad.ssit.size() - 1);
    EXPECT_FALSE(StoreSets().stateCompatible(bad));
}

// ----------------------------------------------------------- codec layer

namespace {

/** The byte-at-a-time zero-RLE encoder the store shipped with: the
 *  reference the word-wise rleEncode must match byte for byte (record
 *  sizes, and so the store's disk footprint, must not move). */
std::vector<std::uint8_t>
referenceRleEncode(const std::vector<std::uint8_t> &in)
{
    std::vector<std::uint8_t> out;
    for (std::size_t i = 0; i < in.size();) {
        if (in[i] != 0) {
            out.push_back(in[i++]);
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

std::vector<std::uint8_t>
encode(const std::vector<std::uint8_t> &in)
{
    std::vector<std::uint8_t> out;
    rleEncode(in.data(), in.size(), out);
    return out;
}

/** @p zeros zero bytes between two literals. */
std::vector<std::uint8_t>
zeroRun(std::size_t zeros)
{
    std::vector<std::uint8_t> v(zeros + 2, 0);
    v.front() = 0x11;
    v.back() = 0x22;
    return v;
}

} // namespace

TEST(StoreCodec, RleMatchesReferenceEncoderAndRoundTrips)
{
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> cases =
        {{"empty", {}},
         {"single zero", {0}},
         {"all zeros", std::vector<std::uint8_t>(1000, 0)},
         {"no zeros", std::vector<std::uint8_t>(77, 0xee)},
         {"run 254", zeroRun(254)},
         {"run 255", zeroRun(255)},
         {"run 256", zeroRun(256)},
         {"run 511", zeroRun(511)},
         {"trailing zero", {1, 2, 3, 4, 5, 6, 7, 8, 9, 0}}};
    std::vector<std::uint8_t> alternating;
    for (int i = 0; i < 301; ++i)
        alternating.push_back(i % 2 ? static_cast<std::uint8_t>(i) : 0);
    cases.emplace_back("alternating 00 xx", alternating);
    // Word-boundary mix: tag-array-like u64s with short literal heads.
    std::vector<std::uint8_t> words;
    for (std::uint64_t i = 0; i < 200; ++i) {
        std::uint64_t w = i % 7 ? 0x400000 + i * 64 : 0;
        for (int b = 0; b < 8; ++b)
            words.push_back(static_cast<std::uint8_t>(w >> (8 * b)));
    }
    cases.emplace_back("tag words", words);

    for (const auto &[name, in] : cases) {
        std::vector<std::uint8_t> enc = encode(in);
        EXPECT_EQ(enc, referenceRleEncode(in)) << name;
        EXPECT_LE(enc.size(), in.size() * 3 / 2 + 2) << name;
        std::vector<std::uint8_t> dec;
        ASSERT_TRUE(rleDecode(enc.data(), enc.size(), dec, in.size()))
            << name;
        EXPECT_EQ(dec, in) << name;
    }
    // The worst case really is 3n/2: every zero costs two bytes.
    EXPECT_EQ(encode(alternating).size(), 301u / 2 + 301u + 1);

    // rleEncode appends after whatever the buffer already holds.
    std::vector<std::uint8_t> out = {9, 9};
    std::vector<std::uint8_t> in = zeroRun(3);
    rleEncode(in.data(), in.size(), out);
    EXPECT_EQ(out, (std::vector<std::uint8_t>{9, 9, 0x11, 0, 3, 0x22}));
}

TEST(StoreCodec, RleDecodeRejectsMalformedStreams)
{
    auto rejects = [](std::vector<std::uint8_t> enc, std::size_t expect) {
        std::vector<std::uint8_t> out;
        return !rleDecode(enc.data(), enc.size(), out, expect);
    };
    EXPECT_TRUE(rejects({0}, 1));           // run byte missing
    EXPECT_TRUE(rejects({0, 0}, 0));        // zero-length run
    EXPECT_TRUE(rejects({0, 5}, 4));        // run overshoots
    EXPECT_TRUE(rejects({1, 2, 3}, 2));     // literals overshoot
    EXPECT_TRUE(rejects({1, 0, 2}, 4));     // decodes short
    EXPECT_FALSE(rejects({1, 0, 2}, 3));
}

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
        EXPECT_FALSE(s.load("warm|a|p0", out));
        s.store("warm|a|p0", payload);
        ASSERT_TRUE(s.load("warm|a|p0", out));
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
    ASSERT_TRUE(s2.load("warm|a|p0", out));
    EXPECT_EQ(out, payload);
}

TEST(StoreFiles, TruncatedRecordRejectedAndHealedByWriteback)
{
    ScratchDir dir("truncate");
    CheckpointStore s({dir.str()});
    std::vector<std::uint8_t> payload(1000, 7);
    s.store("warm|t|p0", payload);

    auto files = recordFiles(dir.path);
    ASSERT_EQ(files.size(), 1u);
    fs::resize_file(files[0], fs::file_size(files[0]) / 2);

    std::vector<std::uint8_t> out;
    EXPECT_FALSE(s.load("warm|t|p0", out));
    EXPECT_EQ(s.counters().corrupt, 1u);
    // Defective records are unlinked so the next writeback heals.
    EXPECT_TRUE(recordFiles(dir.path).empty());
    s.store("warm|t|p0", payload);
    EXPECT_TRUE(s.load("warm|t|p0", out));
    EXPECT_EQ(out, payload);
}

TEST(StoreFiles, FlippedPayloadByteFailsChecksum)
{
    ScratchDir dir("flip");
    CheckpointStore s({dir.str()});
    std::vector<std::uint8_t> payload(512);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i);
    s.store("warm|f|p0", payload);

    auto files = recordFiles(dir.path);
    ASSERT_EQ(files.size(), 1u);
    flipByte(files[0], -17);    // inside the encoded payload

    std::vector<std::uint8_t> out;
    EXPECT_FALSE(s.load("warm|f|p0", out));
    EXPECT_EQ(s.counters().corrupt, 1u);
}

TEST(StoreFiles, StaleVersionHeaderRejected)
{
    ScratchDir dir("stale");
    CheckpointStore s({dir.str()});
    s.store("warm|v|p0", std::vector<std::uint8_t>(64, 3));

    auto files = recordFiles(dir.path);
    ASSERT_EQ(files.size(), 1u);
    flipByte(files[0], 4);      // the format-version field

    std::vector<std::uint8_t> out;
    EXPECT_FALSE(s.load("warm|v|p0", out));
    EXPECT_EQ(s.counters().corrupt, 1u);
}

TEST(StoreFiles, CorruptLengthFieldIsRejectedWithoutAllocating)
{
    ScratchDir dir("hugelen");
    CheckpointStore s({dir.str()});
    const std::string key = "warm|len|p0";
    s.store(key, std::vector<std::uint8_t>(256, 4));
    auto files = recordFiles(dir.path);
    ASSERT_EQ(files.size(), 1u);
    {
        // The decoded-length field follows magic, version, encoding
        // and the length-prefixed key.
        std::fstream f(files[0],
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(4 + 4 + 1 + 8 + key.size()));
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
    const std::string key = "warm|v1|p0";
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
    v1.u8(0);
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

TEST(StoreFiles, HashSlotHoldingAnotherKeyReadsAsMiss)
{
    ScratchDir dir("collide");
    CheckpointStore s({dir.str()});
    s.store("warm|x|p0", std::vector<std::uint8_t>(64, 1));
    s.store("warm|y|p0", std::vector<std::uint8_t>(64, 2));

    // Simulate an FNV collision: plant x's (well-formed!) record in
    // y's file slot. The embedded key string must read as a miss for
    // y — never as x's data.
    auto files = recordFiles(dir.path);
    ASSERT_EQ(files.size(), 2u);
    fs::path xFile =
        recordKey(files[0]) == "warm|x|p0" ? files[0] : files[1];
    fs::path yFile = xFile == files[0] ? files[1] : files[0];
    fs::copy_file(xFile, yFile, fs::copy_options::overwrite_existing);

    std::uint64_t corruptBefore = s.counters().corrupt;
    std::vector<std::uint8_t> out;
    EXPECT_FALSE(s.load("warm|y|p0", out));
    // A key mismatch is a plain miss, not corruption.
    EXPECT_EQ(s.counters().corrupt, corruptBefore);
    // x itself still loads.
    EXPECT_TRUE(s.load("warm|x|p0", out));
    EXPECT_EQ(out, std::vector<std::uint8_t>(64, 1));
}

TEST(StoreFiles, CapEvictsLeastRecentlyUsed)
{
    ScratchDir dir("evict");
    // Each record is ~0.5 KiB on disk; cap at ~2 records.
    CheckpointStore s({dir.str(), 1300});
    std::vector<std::uint8_t> payload(512);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 7);

    s.store("warm|e|p0", payload);
    s.store("warm|e|p1", payload);
    std::vector<std::uint8_t> out;
    ASSERT_TRUE(s.load("warm|e|p0", out));  // refresh p0's recency
    s.store("warm|e|p2", payload);          // must evict p1, not p0

    EXPECT_GT(s.counters().evictions, 0u);
    EXPECT_TRUE(s.load("warm|e|p2", out));
    EXPECT_TRUE(s.load("warm|e|p0", out));
    EXPECT_FALSE(s.load("warm|e|p1", out));
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
    s.store("warm|u|p0", std::vector<std::uint8_t>(8, 1));
    EXPECT_FALSE(s.load("warm|u|p0", out));
    EXPECT_EQ(s.counters().writebacks, 0u);
}

TEST(StoreFiles, WriteFailureMidSessionDegradesWrites)
{
    ScratchDir dir("enospc");
    fs::path sub = dir.path / "cache";
    fs::create_directories(sub);
    CheckpointStore s({sub.string()});
    ASSERT_TRUE(s.enabled());
    s.store("warm|w|p0", std::vector<std::uint8_t>(128, 9));
    EXPECT_EQ(s.counters().writebacks, 1u);

    // Yank the directory out from under the store: the next write
    // cannot create its temp file (the ENOSPC-class failure mode) and
    // must degrade writes without failing the caller.
    fs::remove_all(sub);
    s.store("warm|w|p1", std::vector<std::uint8_t>(128, 9));
    EXPECT_FALSE(s.writable());
    EXPECT_EQ(s.counters().writebacks, 1u);
    // Further stores stay no-ops; the object remains safe to use.
    s.store("warm|w|p2", std::vector<std::uint8_t>(128, 9));
    EXPECT_EQ(s.counters().writebacks, 1u);
}

// ------------------------------------------------------- end-to-end layer

TEST(StoreEndToEnd, ColdPopulatesWarmRestoresBitIdentically)
{
    ScratchDir dir("e2e");
    BoundKernel bk = bindKernel(findKernel("gzip"));
    EngineWorkload w = workload(bk);
    SimConfig sc = sampledSmall(SimConfig::intMemMg());

    ExperimentEngine cold(1);
    cold.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats a = cold.cellSampled(w, sc);
    ASSERT_FALSE(a.exact) << "kernel too small to exercise sampling";
    EXPECT_GT(a.ckptWritebacks, 0u);
    EXPECT_EQ(a.ckptRestores, 0u);
    EXPECT_GT(cold.checkpointStore()->counters().writebacks, 0u);

    ExperimentEngine warm(1);
    warm.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats b = warm.cellSampled(w, sc);
    EXPECT_GT(b.ckptRestores, 0u);
    EXPECT_EQ(b.ckptWritebacks, 0u);

    // The warm session is the cold session, bit for bit.
    EXPECT_EQ(b.est, a.est);
    EXPECT_EQ(b.intervals, a.intervals);
    EXPECT_EQ(b.measuredCycles, a.measuredCycles);
    EXPECT_EQ(b.ipcHat, a.ipcHat);
    EXPECT_EQ(b.ipcRelCi95, a.ipcRelCi95);
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
    ASSERT_GT(a.ckptWritebacks, 0u);

    // Flip a byte near the end of every record on disk (summary,
    // violation set, and warm records alike).
    for (const fs::path &f : recordFiles(dir.path))
        flipByte(f, -3);

    ExperimentEngine warm(1);
    warm.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats b = warm.cellSampled(w, sc);

    // Nothing restorable: the session must recompute everything and
    // land on the cold session's exact stats — corruption can cost
    // time, never correctness.
    EXPECT_EQ(b.ckptRestores, 0u);
    EXPECT_EQ(b.est, a.est);
    EXPECT_EQ(b.intervals, a.intervals);
    EXPECT_GT(warm.checkpointStore()->counters().corrupt, 0u);
    // The rejected records were unlinked and rewritten: a third
    // session restores warm again.
    ExperimentEngine healed(1);
    healed.setCheckpointStore(
        std::make_shared<CheckpointStore>(CheckpointStoreConfig{dir.str()}));
    SampledStats c = healed.cellSampled(w, sc);
    EXPECT_GT(c.ckptRestores, 0u);
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
    EXPECT_EQ(got.ckptRestores, 0u);
    EXPECT_EQ(got.ckptWritebacks, 0u);
}
