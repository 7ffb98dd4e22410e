#include "memsys/hierarchy.hh"

#include <algorithm>

namespace mg {

Hierarchy::Hierarchy(const HierarchyConfig &cfg)
    : cfg(cfg),
      l1iCache(cfg.l1i, "l1i"),
      l1dCache(cfg.l1d, "l1d"),
      l2Cache(cfg.l2, "l2")
{}

Cycle
Hierarchy::dramAccess(Cycle start)
{
    // The request occupies the bus for the line transfer after the DRAM
    // access latency. Transfers serialize on the shared bus.
    Cycle beats = (cfg.l2.lineBytes + cfg.busBytes - 1) / cfg.busBytes;
    Cycle busTime = beats * cfg.busCycleRatio;
    Cycle busStart = std::max(start + cfg.memLat, busFreeAt);
    busFreeAt = busStart + busTime;
    return busFreeAt;
}

MemAccess
Hierarchy::dataAccess(Addr addr, bool write, Cycle now)
{
    MemAccess out;
    CacheResult r1 = l1dCache.access(addr, write);
    out.l1Hit = r1.hit;
    if (r1.hit) {
        out.readyAt = now + cfg.l1dLat;
        return out;
    }
    CacheResult r2 = l2Cache.access(addr, false);
    out.l2Hit = r2.hit;
    if (r2.hit) {
        out.readyAt = now + cfg.l1dLat + cfg.l2Lat;
        return out;
    }
    Cycle done = dramAccess(now + cfg.l1dLat + cfg.l2Lat);
    if (r2.writebackDirty)
        dramAccess(done);  // victim writeback occupies the bus afterwards
    out.readyAt = done;
    return out;
}

MemAccess
Hierarchy::instAccess(Addr addr, Cycle now)
{
    MemAccess out;
    CacheResult r1 = l1iCache.access(addr, false);
    out.l1Hit = r1.hit;
    if (r1.hit) {
        out.readyAt = now + cfg.l1iLat;
        return out;
    }
    CacheResult r2 = l2Cache.access(addr, false);
    out.l2Hit = r2.hit;
    if (r2.hit) {
        out.readyAt = now + cfg.l1iLat + cfg.l2Lat;
        return out;
    }
    Cycle done = dramAccess(now + cfg.l1iLat + cfg.l2Lat);
    if (r2.writebackDirty)
        dramAccess(done);
    out.readyAt = done;
    return out;
}

void
Hierarchy::flush()
{
    l1iCache.flush();
    l1dCache.flush();
    l2Cache.flush();
    busFreeAt = 0;
}

} // namespace mg
