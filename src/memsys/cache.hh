/**
 * @file
 * Set-associative cache tag array with true-LRU replacement. Timing is
 * computed by the hierarchy; this class only tracks hits, misses, and
 * evictions (writeback state is tracked so dirty evictions can be
 * charged for bus occupancy).
 */

#ifndef MG_MEMSYS_CACHE_HH
#define MG_MEMSYS_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mg {

/** Static cache geometry. */
struct CacheGeometry
{
    std::uint32_t sizeBytes;
    std::uint32_t assoc;
    std::uint32_t lineBytes;

    std::uint32_t numSets() const { return sizeBytes / (assoc * lineBytes); }
};

/** Result of a cache probe-and-fill. */
struct CacheResult
{
    bool hit = false;
    bool writebackDirty = false;  ///< a dirty victim was evicted
};

/** Tag-array model of one cache level. */
class Cache
{
  public:
    /**
     * @param geom cache geometry; size must be divisible by assoc*line
     * @param name used in stats and diagnostics
     */
    Cache(const CacheGeometry &geom, std::string name);

    /**
     * Probe for @p addr; on miss, fill the line (evicting LRU).
     *
     * @param addr   byte address
     * @param write  true for stores (marks line dirty)
     * @return hit/miss and whether a dirty victim was evicted
     */
    CacheResult access(Addr addr, bool write);

    /** Probe without side effects. */
    bool probe(Addr addr) const;

    /** Invalidate everything (keeps stats). */
    void flush();

    const CacheGeometry &geometry() const { return geom; }
    const std::string &name() const { return name_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    double
    missRate() const
    {
        std::uint64_t t = hits_ + misses_;
        return t ? static_cast<double>(misses_) / static_cast<double>(t)
                 : 0.0;
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;  ///< LRU timestamp
    };

    CacheGeometry geom;
    std::string name_;
    std::vector<Line> lines;      ///< numSets * assoc, set-major
    std::uint64_t useClock = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;

    // Shift/mask fast path for power-of-two geometries (every access
    // indexes the array; runtime divisions dominate the probe cost
    // otherwise). Non-power-of-two configs fall back to div/mod with
    // identical results.
    bool pow2 = false;
    int lineShift = 0;
    int setShift = 0;
    Addr setMask = 0;

    Addr
    lineAddr(Addr addr) const
    {
        return pow2 ? addr >> lineShift : addr / geom.lineBytes;
    }
    std::uint32_t
    setOf(Addr addr) const
    {
        return pow2 ? static_cast<std::uint32_t>(lineAddr(addr) & setMask)
                    : static_cast<std::uint32_t>(lineAddr(addr) %
                                                 geom.numSets());
    }
    Addr
    tagOf(Addr addr) const
    {
        return pow2 ? lineAddr(addr) >> setShift
                    : lineAddr(addr) / geom.numSets();
    }
};

} // namespace mg

#endif // MG_MEMSYS_CACHE_HH
