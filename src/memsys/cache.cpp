#include "memsys/cache.hh"

#include "common/logging.hh"

namespace mg {

Cache::Cache(const CacheGeometry &g, std::string name)
    : geom(g), name_(std::move(name))
{
    if (geom.lineBytes == 0 || geom.assoc == 0 ||
        geom.sizeBytes % (geom.assoc * geom.lineBytes) != 0)
        fatal("cache %s: size %u not divisible by assoc %u * line %u",
              name_.c_str(), geom.sizeBytes, geom.assoc, geom.lineBytes);
    if (geom.numSets() == 0)
        fatal("cache %s has zero sets", name_.c_str());
    lines.resize(static_cast<size_t>(geom.numSets()) * geom.assoc);

    std::uint32_t sets = geom.numSets();
    if ((geom.lineBytes & (geom.lineBytes - 1)) == 0 &&
        (sets & (sets - 1)) == 0) {
        pow2 = true;
        while ((1u << lineShift) < geom.lineBytes)
            ++lineShift;
        while ((1u << setShift) < sets)
            ++setShift;
        setMask = sets - 1;
    }
}

CacheResult
Cache::access(Addr addr, bool write)
{
    ++useClock;
    std::uint32_t set = setOf(addr);
    Addr tag = tagOf(addr);
    Line *base = &lines[static_cast<size_t>(set) * geom.assoc];

    for (std::uint32_t w = 0; w < geom.assoc; ++w) {
        Line &l = base[w];
        if (l.valid && l.tag == tag) {
            l.lastUse = useClock;
            if (write)
                l.dirty = true;
            ++hits_;
            return {true, false};
        }
    }

    // Miss: pick invalid way or LRU victim.
    Line *victim = base;
    for (std::uint32_t w = 0; w < geom.assoc; ++w) {
        Line &l = base[w];
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (l.lastUse < victim->lastUse)
            victim = &l;
    }

    bool wbDirty = victim->valid && victim->dirty;
    victim->valid = true;
    victim->dirty = write;
    victim->tag = tag;
    victim->lastUse = useClock;
    ++misses_;
    return {false, wbDirty};
}

bool
Cache::probe(Addr addr) const
{
    std::uint32_t set = setOf(addr);
    Addr tag = tagOf(addr);
    const Line *base = &lines[static_cast<size_t>(set) * geom.assoc];
    for (std::uint32_t w = 0; w < geom.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (Line &l : lines)
        l = Line();
}

} // namespace mg
