/**
 * @file
 * Two-level cache hierarchy with a DRAM behind a quarter-core-frequency
 * 16-byte bus, matching the paper's machine model: 32KB/2-way/32B
 * 1-cycle I$, 32KB/2-way/32B 2-cycle D$, 2MB/4-way/128B 10-cycle L2,
 * 100-cycle main memory.
 *
 * The hierarchy computes a completion time for each access. Misses to
 * DRAM serialize on the bus: a 128B L2 line at 16B per beat and one
 * beat per 4 core cycles occupies the bus for 32 cycles.
 */

#ifndef MG_MEMSYS_HIERARCHY_HH
#define MG_MEMSYS_HIERARCHY_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "memsys/cache.hh"

namespace mg {

/** Configuration for the full hierarchy. */
struct HierarchyConfig
{
    CacheGeometry l1i{32 * 1024, 2, 32};
    CacheGeometry l1d{32 * 1024, 2, 32};
    CacheGeometry l2{2 * 1024 * 1024, 4, 128};
    Cycle l1iLat = 1;
    Cycle l1dLat = 2;
    Cycle l2Lat = 10;
    Cycle memLat = 100;
    std::uint32_t busBytes = 16;
    std::uint32_t busCycleRatio = 4;  ///< core cycles per bus cycle
};

/** Outcome of a timed access. */
struct MemAccess
{
    Cycle readyAt = 0;   ///< cycle the data is available
    bool l1Hit = false;
    bool l2Hit = false;
};

/** Timed two-level hierarchy. */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyConfig &cfg);

    /**
     * Timed data access.
     *
     * @param addr  byte address
     * @param write true for stores
     * @param now   issue cycle
     * @return completion time and hit levels
     */
    MemAccess dataAccess(Addr addr, bool write, Cycle now);

    /** Timed instruction fetch access. */
    MemAccess instAccess(Addr addr, Cycle now);

    /** Invalidate all caches (used between runs). */
    void flush();

    Cache &l1i() { return l1iCache; }
    Cache &l1d() { return l1dCache; }
    Cache &l2() { return l2Cache; }
    const HierarchyConfig &config() const { return cfg; }

  private:
    HierarchyConfig cfg;
    Cache l1iCache;
    Cache l1dCache;
    Cache l2Cache;
    Cycle busFreeAt = 0;

    /** Charge a DRAM access beginning no earlier than @p start. */
    Cycle dramAccess(Cycle start);
};

} // namespace mg

#endif // MG_MEMSYS_HIERARCHY_HH
