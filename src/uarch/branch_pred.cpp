#include "uarch/branch_pred.hh"

#include <cstddef>

namespace mg {

BranchPredictor::BranchPredictor(const BranchPredConfig &c) : cfg(c)
{
    bimodal.assign(cfg.bimodalEntries, 1);   // weakly not-taken
    gshare.assign(cfg.gshareEntries, 1);
    chooser.assign(cfg.chooserEntries, 1);   // weakly prefer bimodal
    btb.assign(static_cast<size_t>(cfg.btbEntries), BtbEntry());
    ras.assign(cfg.rasEntries, 0);
    bimodalMask = maskOf(cfg.bimodalEntries);
    gshareMask = maskOf(cfg.gshareEntries);
    chooserMask = maskOf(cfg.chooserEntries);
    btbSetMask = maskOf(cfg.btbEntries / cfg.btbAssoc);
    rasMask = maskOf(cfg.rasEntries);
}

std::uint32_t
BranchPredictor::bimodalIdx(Addr pc) const
{
    return reduce(pc >> 2, bimodalMask, cfg.bimodalEntries);
}

std::uint32_t
BranchPredictor::gshareIdx(Addr pc) const
{
    std::uint64_t h = history & ((1ull << cfg.historyBits) - 1);
    return reduce((pc >> 2) ^ h, gshareMask, cfg.gshareEntries);
}

std::uint32_t
BranchPredictor::chooserIdx(Addr pc) const
{
    return reduce(pc >> 2, chooserMask, cfg.chooserEntries);
}

void
BranchPredictor::bump(std::uint8_t &ctr, bool up)
{
    if (up && ctr < 3)
        ++ctr;
    else if (!up && ctr > 0)
        --ctr;
}

bool
BranchPredictor::predictDirection(Addr pc) const
{
    ++lookups_;
    bool useGshare = chooser[chooserIdx(pc)] >= 2;
    std::uint8_t ctr = useGshare ? gshare[gshareIdx(pc)]
                                 : bimodal[bimodalIdx(pc)];
    return ctr >= 2;
}

void
BranchPredictor::updateDirection(Addr pc, bool taken)
{
    bool bPred = bimodal[bimodalIdx(pc)] >= 2;
    bool gPred = gshare[gshareIdx(pc)] >= 2;
    // Chooser trains toward whichever component was right.
    if (bPred != gPred)
        bump(chooser[chooserIdx(pc)], gPred == taken);
    bump(bimodal[bimodalIdx(pc)], taken);
    bump(gshare[gshareIdx(pc)], taken);
    history = (history << 1) | (taken ? 1 : 0);
}

Addr
BranchPredictor::predictTarget(Addr pc) const
{
    std::uint32_t sets = cfg.btbEntries / cfg.btbAssoc;
    std::uint32_t set = reduce(pc >> 2, btbSetMask, sets);
    Addr tag = (pc >> 2) / sets;
    const BtbEntry *base = &btb[static_cast<size_t>(set) * cfg.btbAssoc];
    for (std::uint32_t w = 0; w < cfg.btbAssoc; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return base[w].target;
    }
    return 0;
}

void
BranchPredictor::updateTarget(Addr pc, Addr target)
{
    ++btbClock;
    std::uint32_t sets = cfg.btbEntries / cfg.btbAssoc;
    std::uint32_t set = reduce(pc >> 2, btbSetMask, sets);
    Addr tag = (pc >> 2) / sets;
    BtbEntry *base = &btb[static_cast<size_t>(set) * cfg.btbAssoc];
    BtbEntry *victim = base;
    for (std::uint32_t w = 0; w < cfg.btbAssoc; ++w) {
        BtbEntry &e = base[w];
        if (e.valid && e.tag == tag) {
            e.target = target;
            e.lastUse = btbClock;
            return;
        }
        if (!e.valid) {
            victim = &e;
        } else if (victim->valid && e.lastUse < victim->lastUse) {
            victim = &e;
        }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->target = target;
    victim->lastUse = btbClock;
}

void
BranchPredictor::pushReturn(Addr returnPc)
{
    ras[reduce(rasTop, rasMask, cfg.rasEntries)] = returnPc;
    ++rasTop;
}

Addr
BranchPredictor::popReturn()
{
    if (rasTop == 0)
        return 0;
    --rasTop;
    return ras[reduce(rasTop, rasMask, cfg.rasEntries)];
}

} // namespace mg
