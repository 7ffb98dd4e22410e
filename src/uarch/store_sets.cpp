#include "uarch/store_sets.hh"

#include <algorithm>

namespace mg {

namespace {

/** Mask for power-of-two @p n, else 0 ("use %"). */
std::uint32_t
maskOf(std::uint32_t n)
{
    return (n != 0 && (n & (n - 1)) == 0) ? n - 1 : 0;
}

} // namespace

StoreSets::StoreSets(const StoreSetsConfig &c) : cfg(c)
{
    ssit.assign(cfg.ssitEntries, noSet);
    lfst.assign(cfg.lfstEntries, 0);
    lfstPc.assign(cfg.lfstEntries, 0);
    ssitMask = maskOf(cfg.ssitEntries);
    lfstMask = maskOf(cfg.lfstEntries);
}

std::uint32_t
StoreSets::idx(Addr pc) const
{
    std::uint64_t v = pc >> 2;
    return static_cast<std::uint32_t>(
        ssitMask ? (v & ssitMask) : (v % cfg.ssitEntries));
}

std::uint32_t
StoreSets::lfstIdx(std::int32_t set) const
{
    auto v = static_cast<std::uint32_t>(set);
    return lfstMask ? (v & lfstMask) : (v % cfg.lfstEntries);
}

void
StoreSets::maybeClear()
{
    if (++accesses % cfg.clearInterval == 0) {
        std::fill(ssit.begin(), ssit.end(), noSet);
        std::fill(lfst.begin(), lfst.end(), 0);
        std::fill(lfstPc.begin(), lfstPc.end(), 0);
    }
}

std::uint64_t
StoreSets::dispatchStore(Addr pc, std::uint64_t storeSeq)
{
    maybeClear();
    std::int32_t set = ssit[idx(pc)];
    if (set == noSet)
        return 0;
    std::uint32_t s = lfstIdx(set);
    std::uint64_t prev = lfst[s];
    lfst[s] = storeSeq;
    lfstPc[s] = pc;
    return prev;
}

std::uint64_t
StoreSets::dispatchLoad(Addr pc)
{
    maybeClear();
    std::int32_t set = ssit[idx(pc)];
    if (set == noSet)
        return 0;
    return lfst[lfstIdx(set)];
}

void
StoreSets::completeStore(Addr pc, std::uint64_t storeSeq)
{
    std::int32_t set = ssit[idx(pc)];
    if (set == noSet)
        return;
    std::uint32_t s = lfstIdx(set);
    if (lfst[s] == storeSeq)
        lfst[s] = 0;
}

void
StoreSets::recordViolation(Addr loadPc, Addr storePc)
{
    ++violations_;
    std::int32_t &ls = ssit[idx(loadPc)];
    std::int32_t &ss = ssit[idx(storePc)];
    if (ls == noSet && ss == noSet) {
        ls = ss = nextSet;
        nextSet = (nextSet + 1) %
            static_cast<std::int32_t>(cfg.lfstEntries);
    } else if (ls == noSet) {
        ls = ss;
    } else if (ss == noSet) {
        ss = ls;
    } else {
        // Both have sets: merge into the smaller id (declawed merge).
        std::int32_t m = std::min(ls, ss);
        ls = ss = m;
    }
}

} // namespace mg
