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

/**
 * Complete warm state of the hierarchy: all three tag arrays plus the
 * bus backlog and DRAM counter.
 */
struct HierarchyState
{
    CacheState l1i;
    CacheState l1d;
    CacheState l2;
    Cycle busFreeAt = 0;
    std::uint64_t dramCount = 0;

    void serialize(SerialWriter &w) const;
    bool deserialize(SerialReader &r);
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

    /**
     * Tag-only warming accesses: same fill/LRU/dirty behaviour as the
     * timed paths, but no bus occupancy and no DRAM bookkeeping. Used
     * by clock-frozen fast-forwards (Core::fastForward without an IPC
     * estimate), where going through the timed paths would push
     * busFreeAt far past `now` and poison the next measurement;
     * sampled runs instead advance a virtual clock and use the timed
     * paths so bus queueing keeps evolving.
     */
    void warmData(Addr addr, bool write);
    void warmInst(Addr addr);

    /** Invalidate all caches (used between runs). */
    void flush();

    Cache &l1i() { return l1iCache; }
    Cache &l1d() { return l1dCache; }
    Cache &l2() { return l2Cache; }
    const HierarchyConfig &config() const { return cfg; }

    /** Total DRAM accesses (for stats). */
    std::uint64_t dramAccesses() const { return dramCount; }

    /** Snapshot the full warm state (checkpoint store). */
    HierarchyState exportState() const;

    /** @return true when every cache of @p s matches this geometry. */
    bool stateCompatible(const HierarchyState &s) const;

    /** Replace the warm state with @p s (requires stateCompatible). */
    void adoptState(const HierarchyState &s);

  private:
    HierarchyConfig cfg;
    Cache l1iCache;
    Cache l1dCache;
    Cache l2Cache;
    Cycle busFreeAt = 0;
    std::uint64_t dramCount = 0;

    /** Charge a DRAM access beginning no earlier than @p start. */
    Cycle dramAccess(Cycle start);
};

} // namespace mg

#endif // MG_MEMSYS_HIERARCHY_HH
