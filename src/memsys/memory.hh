/**
 * @file
 * Sparse byte-addressable simulated memory backed by 4KB pages.
 * Unwritten bytes read as zero. Loads and stores of 1/2/4/8 bytes are
 * little-endian and need not be aligned: nothing checks alignment, so
 * an unaligned access (even one straddling two pages) simply reads or
 * writes the bytes it covers.
 */

#ifndef MG_MEMSYS_MEMORY_HH
#define MG_MEMSYS_MEMORY_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace mg {

/** Sparse simulated physical memory. */
class Memory
{
  public:
    static constexpr Addr pageBytes = 4096;

    Memory() = default;
    Memory(Memory &&other) noexcept
        : pages(std::move(other.pages)), tlb(other.tlb)
    {
        other.invalidateCache();
    }

    /** Read @p bytes (1,2,4,8) little-endian at @p addr.
     *  (Inline: one call per emulated load; the in-page path is a
     *  single memcpy on little-endian hosts.) */
    std::uint64_t
    read(Addr addr, int bytes) const
    {
        Addr off = addr % pageBytes;
        if (validSize(bytes) &&
            off + static_cast<Addr>(bytes) <= pageBytes) {
            const Page *p = findPage(addr);
            if (!p)
                return 0;
            if constexpr (std::endian::native == std::endian::little) {
                std::uint64_t v = 0;
                std::memcpy(&v, p->data() + off,
                            static_cast<std::size_t>(bytes));
                return v;
            }
            std::uint64_t v = 0;
            for (int i = 0; i < bytes; ++i)
                v |= static_cast<std::uint64_t>(
                        (*p)[off + static_cast<Addr>(i)]) << (8 * i);
            return v;
        }
        return readSlow(addr, bytes);
    }

    /** Write the low @p bytes of @p value at @p addr. */
    void
    write(Addr addr, std::uint64_t value, int bytes)
    {
        Addr off = addr % pageBytes;
        if (validSize(bytes) &&
            off + static_cast<Addr>(bytes) <= pageBytes) {
            Page &p = getPage(addr);
            if constexpr (std::endian::native == std::endian::little) {
                std::memcpy(p.data() + off, &value,
                            static_cast<std::size_t>(bytes));
                return;
            }
            for (int i = 0; i < bytes; ++i)
                p[off + static_cast<Addr>(i)] =
                    static_cast<std::uint8_t>(value >> (8 * i));
            return;
        }
        writeSlow(addr, value, bytes);
    }

    std::uint8_t
    readByte(Addr addr) const
    {
        const Page *p = findPage(addr);
        return p ? (*p)[addr % pageBytes] : 0;
    }

    void
    writeByte(Addr addr, std::uint8_t value)
    {
        getPage(addr)[addr % pageBytes] = value;
    }

    /** Bulk-copy @p data into memory starting at @p addr. */
    void writeBlock(Addr addr, const std::uint8_t *data, std::size_t len);

    /** Bulk-read @p len bytes starting at @p addr. */
    std::vector<std::uint8_t> readBlock(Addr addr, std::size_t len) const;

    /** Number of resident pages (for tests). */
    std::size_t residentPages() const { return pages.size(); }

    /** Drop all contents. */
    void
    clear()
    {
        pages.clear();
        invalidateCache();
    }

  private:
    using Page = std::array<std::uint8_t, pageBytes>;
    std::unordered_map<Addr, std::unique_ptr<Page>> pages;

    // Direct-mapped page-pointer cache in front of the hash map:
    // accesses are heavily page-local, and page storage is stable
    // (unique_ptr payloads survive rehash), so a recently touched page
    // short-circuits the hash lookup. Reads fill it only with pages
    // that exist; writes fill it through getPage (which may allocate).
    static constexpr std::size_t tlbEntries = 64;
    struct TlbEntry
    {
        Addr idx = ~Addr(0);
        Page *page = nullptr;
    };
    mutable std::array<TlbEntry, tlbEntries> tlb{};

    void
    invalidateCache() const
    {
        tlb.fill(TlbEntry{});
    }

    /** One-test membership check for the legal access sizes 1/2/4/8
     *  (anything else falls to the slow path, which panics). */
    static bool
    validSize(int bytes)
    {
        return static_cast<unsigned>(bytes) <= 8 &&
            ((0x116u >> bytes) & 1u);
    }

    /** Resolve the page containing @p addr, or null when absent.
     *  (Inline: the cache hit is the expected case.) */
    const Page *
    findPage(Addr addr) const
    {
        Addr idx = addr / pageBytes;
        const TlbEntry &e = tlb[idx % tlbEntries];
        if (e.idx == idx)
            return e.page;
        return findPageSlow(addr);
    }

    /** Resolve (allocating if needed) the page containing @p addr. */
    Page &
    getPage(Addr addr)
    {
        Addr idx = addr / pageBytes;
        const TlbEntry &e = tlb[idx % tlbEntries];
        if (e.idx == idx)
            return *e.page;
        return getPageSlow(addr);
    }

    const Page *findPageSlow(Addr addr) const;
    Page &getPageSlow(Addr addr);
    std::uint64_t readSlow(Addr addr, int bytes) const;
    void writeSlow(Addr addr, std::uint64_t value, int bytes);
};

} // namespace mg

#endif // MG_MEMSYS_MEMORY_HH
