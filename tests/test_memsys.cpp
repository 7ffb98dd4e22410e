/**
 * @file
 * Memory-system unit tests: sparse memory semantics, cache geometry /
 * LRU behaviour, hierarchy latencies, and bus serialization.
 */

#include <gtest/gtest.h>

#include "memsys/hierarchy.hh"
#include "memsys/memory.hh"

namespace mg {
namespace {

TEST(MemoryTest, ZeroFillAndLittleEndian)
{
    Memory m;
    EXPECT_EQ(m.read(0x1234, 8), 0u);
    m.write(0x1000, 0x0807060504030201ull, 8);
    EXPECT_EQ(m.read(0x1000, 1), 0x01u);
    EXPECT_EQ(m.read(0x1001, 2), 0x0302u);
    EXPECT_EQ(m.read(0x1004, 4), 0x08070605u);
}

TEST(MemoryTest, CrossPageAccess)
{
    Memory m;
    Addr a = Memory::pageBytes - 4;
    m.write(a, 0x1122334455667788ull, 8);
    EXPECT_EQ(m.read(a, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.residentPages(), 2u);
}

TEST(MemoryTest, BlockOps)
{
    Memory m;
    std::uint8_t buf[5] = {1, 2, 3, 4, 5};
    m.writeBlock(0x42, buf, 5);
    auto out = m.readBlock(0x42, 5);
    EXPECT_EQ(out, std::vector<std::uint8_t>({1, 2, 3, 4, 5}));
}

TEST(MemoryTest, BlockOpsSpanPages)
{
    // A block copy creates every page its range touches, and a block
    // read creates none, reading absent pages as zero.
    Memory m;
    std::vector<std::uint8_t> data(2 * Memory::pageBytes + 10);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + 1);
    Addr a = Memory::pageBytes - 5;
    m.writeBlock(a, data.data(), data.size());
    EXPECT_EQ(m.residentPages(), 4u);
    EXPECT_EQ(m.readBlock(a, data.size()), data);
    EXPECT_EQ(m.read(a + 5, 1), data[5]);

    std::vector<std::uint8_t> gap = m.readBlock(a - 100,
                                                3 * Memory::pageBytes);
    EXPECT_EQ(m.residentPages(), 4u);
    for (std::size_t i = 0; i < gap.size(); ++i) {
        std::size_t k = i - 100;
        ASSERT_EQ(gap[i], i >= 100 && k < data.size() ? data[k] : 0)
            << "byte " << i;
    }

    m.writeBlock(0x9000, data.data(), 0);
    EXPECT_EQ(m.residentPages(), 4u);
}

TEST(CacheTest, GeometryChecks)
{
    CacheGeometry g{32 * 1024, 2, 32};
    Cache c(g, "t");
    EXPECT_EQ(c.geometry().numSets(), 512u);
}

TEST(CacheTest, HitAfterFill)
{
    Cache c({1024, 2, 32}, "t");
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x11f, false).hit);   // same line
    EXPECT_FALSE(c.access(0x120, false).hit);  // next line
}

TEST(CacheTest, LruEviction)
{
    // 2-way, 16 sets of 32B lines: addresses 0x000, 0x200, 0x400 map
    // to the same set.
    Cache c({1024, 2, 32}, "t");
    c.access(0x000, false);
    c.access(0x200, false);
    c.access(0x000, false);           // refresh LRU for 0x000
    c.access(0x400, false);           // evicts 0x200
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_FALSE(c.probe(0x200));
    EXPECT_TRUE(c.probe(0x400));
}

TEST(CacheTest, DirtyWriteback)
{
    Cache c({64, 1, 32}, "t");        // direct-mapped, 2 sets
    c.access(0x000, true);            // dirty
    CacheResult r = c.access(0x040, false);   // same set, evicts dirty
    EXPECT_TRUE(r.writebackDirty);
    CacheResult r2 = c.access(0x080, false);  // evicts clean
    EXPECT_FALSE(r2.writebackDirty);
}

TEST(CacheTest, MissRateAccounting)
{
    Cache c({1024, 2, 32}, "t");
    for (int i = 0; i < 10; ++i)
        c.access(0x100, false);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 9u);
    EXPECT_NEAR(c.missRate(), 0.1, 1e-12);
}

TEST(HierarchyTest, LatencyLevels)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg);
    // Cold: full trip to DRAM (L1 + L2 + mem + line transfer).
    MemAccess miss = h.dataAccess(0x1000, false, 0);
    EXPECT_GE(miss.readyAt, cfg.l1dLat + cfg.l2Lat + cfg.memLat);
    // Warm L1.
    MemAccess hit = h.dataAccess(0x1000, false, 200);
    EXPECT_TRUE(hit.l1Hit);
    EXPECT_EQ(hit.readyAt, 200 + cfg.l1dLat);
    // L2 hit after L1 eviction: touch enough lines to evict from the
    // 2-way 32KB L1 but stay within the 2MB L2.
    for (Addr a = 0; a < 3 * 32 * 1024; a += 32)
        h.dataAccess(0x100000 + a, false, 300);
    MemAccess l2 = h.dataAccess(0x1000, false, 5000000);
    EXPECT_FALSE(l2.l1Hit);
    EXPECT_TRUE(l2.l2Hit);
    EXPECT_EQ(l2.readyAt, 5000000 + cfg.l1dLat + cfg.l2Lat);
}

TEST(HierarchyTest, BusSerializesMisses)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg);
    // Two simultaneous DRAM misses: the second line transfer waits for
    // the first (128B line / 16B bus * 4 core cycles = 32 cycles).
    MemAccess a = h.dataAccess(0x10000, false, 0);
    MemAccess b = h.dataAccess(0x20000, false, 0);
    EXPECT_GE(b.readyAt, a.readyAt + 32);
}

TEST(HierarchyTest, InstPathUsesICache)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg);
    h.instAccess(textBase, 0);
    EXPECT_EQ(h.l1i().misses(), 1u);
    MemAccess hit = h.instAccess(textBase + 4, 100);
    EXPECT_TRUE(hit.l1Hit);
    EXPECT_EQ(hit.readyAt, 100 + cfg.l1iLat);
}

} // namespace
} // namespace mg
