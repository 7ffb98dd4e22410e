/**
 * @file
 * Store-sets memory dependence predictor in the style of Chrysos &
 * Emer (ISCA-25): a Store Set ID Table (SSIT) indexed by instruction
 * PC and a Last Fetched Store Table (LFST) indexed by store set.
 * Loads wait for the last in-flight store of their set; violations
 * merge the load's and store's sets. For mini-graphs the handle PC
 * identifies embedded loads and stores (paper Section 4.3).
 */

#ifndef MG_UARCH_STORE_SETS_HH
#define MG_UARCH_STORE_SETS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mg {

/** Store-sets configuration. */
struct StoreSetsConfig
{
    std::uint32_t ssitEntries = 4096;
    std::uint32_t lfstEntries = 1024;
    /** Clear the tables every N accesses to bound stale pairings. */
    std::uint64_t clearInterval = 262144;
};

/** The predictor. */
class StoreSets
{
  public:
    explicit StoreSets(const StoreSetsConfig &cfg = {});

    /**
     * A store is dispatched.
     *
     * @param pc       store (or handle) PC
     * @param storeSeq global sequence number of the store
     * @return sequence number of an older store this store must order
     *         behind, or 0 (stores in one set issue in order)
     */
    std::uint64_t dispatchStore(Addr pc, std::uint64_t storeSeq);

    /**
     * A load is dispatched.
     *
     * @param pc load (or handle) PC
     * @return sequence number of the store the load must wait for,
     *         or 0 when unconstrained
     */
    std::uint64_t dispatchLoad(Addr pc);

    /** A store left the window; drop it from the LFST. */
    void completeStore(Addr pc, std::uint64_t storeSeq);

    /**
     * A memory-ordering violation between @p loadPc and @p storePc
     * was detected: assign both to a common set.
     */
    void recordViolation(Addr loadPc, Addr storePc);

    std::uint64_t violations() const { return violations_; }

  private:
    StoreSetsConfig cfg;
    static constexpr std::int32_t noSet = -1;
    std::vector<std::int32_t> ssit;       ///< PC -> store set id
    std::vector<std::uint64_t> lfst;      ///< set id -> last store seq
    std::vector<Addr> lfstPc;             ///< set id -> last store pc
    std::uint64_t accesses = 0;
    std::uint64_t violations_ = 0;
    std::int32_t nextSet = 0;
    std::uint32_t ssitMask = 0;   ///< power-of-two fast path (0 = use %)
    std::uint32_t lfstMask = 0;

    std::uint32_t idx(Addr pc) const;
    std::uint32_t lfstIdx(std::int32_t set) const;
    void maybeClear();
};

} // namespace mg

#endif // MG_UARCH_STORE_SETS_HH
