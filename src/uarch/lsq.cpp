#include "uarch/lsq.hh"

#include <algorithm>

namespace mg {

void
Lsq::remove(DynInst *d)
{
    auto &q = d->si->isLoad ? loads : stores;
    if (!q.empty() && q.front() == d) {
        q.pop_front();
        return;
    }
    q.erase(std::remove(q.begin(), q.end(), d), q.end());
}

void
Lsq::squashFrom(std::uint64_t fromSeq)
{
    while (!loads.empty() && loads.back()->seq >= fromSeq)
        loads.pop_back();
    while (!stores.empty() && stores.back()->seq >= fromSeq)
        stores.pop_back();
}

bool
Lsq::overlaps(const DynInst *a, const DynInst *b)
{
    // Uses the DynInst-resident operand copies: the forwarding and
    // violation scans are the LSQ's hot loops, and the oracle record
    // lives in the slot's cold tail.
    Addr aLo = a->memAddr;
    Addr aHi = aLo + static_cast<Addr>(a->memBytes);
    Addr bLo = b->memAddr;
    Addr bHi = bLo + static_cast<Addr>(b->memBytes);
    return aLo < bHi && bLo < aHi;
}

DynInst *
Lsq::forwardingStore(const DynInst *load) const
{
    DynInst *best = nullptr;
    for (DynInst *s : stores) {
        if (s->seq >= load->seq)
            break;
        if (s->memDone && overlaps(s, load)) {
            if (!best || s->seq > best->seq)
                best = s;
        }
    }
    return best;
}

DynInst *
Lsq::violatingLoad(const DynInst *store) const
{
    DynInst *oldest = nullptr;
    for (DynInst *l : loads) {
        if (l->seq <= store->seq)
            continue;
        if (l->memDone && overlaps(store, l)) {
            if (!oldest || l->seq < oldest->seq)
                oldest = l;
        }
    }
    return oldest;
}

} // namespace mg
