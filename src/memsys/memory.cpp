#include "memsys/memory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace mg {

const Memory::Page *
Memory::findPageSlow(Addr addr) const
{
    Addr idx = addr / pageBytes;
    auto it = pages.find(idx);
    if (it == pages.end())
        return nullptr;
    tlb[idx % tlbEntries] = {idx, it->second.get()};
    return it->second.get();
}

Memory::Page &
Memory::getPageSlow(Addr addr)
{
    Addr idx = addr / pageBytes;
    auto &slot = pages[idx];
    if (!slot)
        slot = std::make_unique<Page>();   // value-initialised: zeroed
    tlb[idx % tlbEntries] = {idx, slot.get()};
    return *slot;
}

std::uint64_t
Memory::readSlow(Addr addr, int bytes) const
{
    // Page-straddling access: assemble byte-wise across the boundary.
    if (bytes != 1 && bytes != 2 && bytes != 4 && bytes != 8)
        panic("bad access size %d", bytes);
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= static_cast<std::uint64_t>(readByte(addr + i)) << (8 * i);
    return v;
}

void
Memory::writeSlow(Addr addr, std::uint64_t value, int bytes)
{
    if (bytes != 1 && bytes != 2 && bytes != 4 && bytes != 8)
        panic("bad access size %d", bytes);
    for (int i = 0; i < bytes; ++i)
        writeByte(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
}

void
Memory::writeBlock(Addr addr, const std::uint8_t *data, std::size_t len)
{
    // One page span per step: every page the range touches is created,
    // exactly as a byte-wise copy would.
    while (len) {
        Addr off = addr % pageBytes;
        std::size_t n = std::min<std::size_t>(len, pageBytes - off);
        std::memcpy(getPage(addr).data() + off, data, n);
        addr += n;
        data += n;
        len -= n;
    }
}

std::vector<std::uint8_t>
Memory::readBlock(Addr addr, std::size_t len) const
{
    std::vector<std::uint8_t> out(len);
    for (std::size_t done = 0; done < len;) {
        Addr off = addr % pageBytes;
        std::size_t n = std::min<std::size_t>(len - done, pageBytes - off);
        if (const Page *p = findPage(addr))
            std::memcpy(out.data() + done, p->data() + off, n);
        addr += n;
        done += n;
    }
    return out;
}

} // namespace mg
