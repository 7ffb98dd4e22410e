/**
 * @file
 * Reorder buffer: an age-ordered queue of in-flight slots. A handle
 * occupies exactly one entry — the capacity amplification the paper
 * reports for the instruction window.
 */

#ifndef MG_UARCH_ROB_HH
#define MG_UARCH_ROB_HH

#include <cstdint>
#include <vector>

#include "uarch/dyninst.hh"
#include "uarch/ring.hh"

namespace mg {

/** The reorder buffer. */
class Rob
{
  public:
    explicit Rob(int capacity)
        : cap(capacity), q(static_cast<std::size_t>(capacity))
    {
    }

    bool full() const { return size() >= cap; }
    bool empty() const { return q.empty(); }
    int size() const { return static_cast<int>(q.size()); }
    int capacity() const { return cap; }

    void push(DynInst *d) { q.push_back(d); }

    DynInst *head() { return q.empty() ? nullptr : q.front(); }

    void popHead() { q.pop_front(); }

    /** The @p i-th oldest entry, i < size(). */
    DynInst *at(int i) const { return q.at(static_cast<std::size_t>(i)); }

    /**
     * Remove every entry with seq >= @p fromSeq, youngest first.
     * @return the removed entries in removal (youngest-first) order
     */
    std::vector<DynInst *> squashFrom(std::uint64_t fromSeq);

  private:
    int cap;
    RingDeque<DynInst *> q;
};

} // namespace mg

#endif // MG_UARCH_ROB_HH
