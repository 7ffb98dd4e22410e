/**
 * @file
 * Load/store queue: a combined-capacity pair of age-ordered queues
 * with store-to-load forwarding and memory-ordering violation
 * detection. A mini-graph may contain at most one memory operation,
 * so a handle occupies at most one entry and its handle PC stands in
 * for the embedded operation in the disambiguation machinery (paper
 * Sections 3.1, 4.3).
 */

#ifndef MG_UARCH_LSQ_HH
#define MG_UARCH_LSQ_HH

#include <cstdint>
#include <deque>

#include "uarch/dyninst.hh"

namespace mg {

/** The load/store queue. */
class Lsq
{
  public:
    explicit Lsq(int combinedCapacity) : cap(combinedCapacity) {}

    bool full() const
    {
        return static_cast<int>(loads.size() + stores.size()) >= cap;
    }
    int size() const
    {
        return static_cast<int>(loads.size() + stores.size());
    }
    int capacity() const { return cap; }

    void insertLoad(DynInst *d) { loads.push_back(d); }
    void insertStore(DynInst *d) { stores.push_back(d); }

    /** Remove @p d. Commit removes the oldest entry of its queue, so
     *  this is normally an O(1) front pop. */
    void remove(DynInst *d);

    /** Remove every entry with seq >= @p fromSeq: an age-ordered
     *  suffix of each queue, popped from the back. */
    void squashFrom(std::uint64_t fromSeq);

    /**
     * Find the youngest older store whose address is known and
     * overlaps the load's access.
     *
     * @param load executed load (rec fields valid)
     * @return the forwarding store, or nullptr
     */
    DynInst *forwardingStore(const DynInst *load) const;

    /**
     * Find the oldest younger load that already performed its access
     * and overlaps @p store — a memory-ordering violation.
     */
    DynInst *violatingLoad(const DynInst *store) const;

  private:
    int cap;
    std::deque<DynInst *> loads;     ///< age order
    std::deque<DynInst *> stores;    ///< age order

    static bool overlaps(const DynInst *a, const DynInst *b);
};

} // namespace mg

#endif // MG_UARCH_LSQ_HH
