/**
 * @file
 * MGST sequencer pool (paper Section 4.1). The MGST is coupled to M
 * pipelined sequencers, where M is the maximum number of handles that
 * may be scheduled per cycle. A sequencer walks one mini-graph through
 * its per-cycle banks, so it is busy for the graph's total latency;
 * the MGST's cycle-sliced bank organization guarantees two sequencers
 * started in different cycles never collide on a bank.
 */

#ifndef MG_UARCH_SEQUENCER_HH
#define MG_UARCH_SEQUENCER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mg {

/** MGST sequencers: one per handle the 6-wide machine may schedule
 *  in a cycle (paper Section 4.1). */
inline constexpr int mgstSequencers = 6;

/** Pool of MGST sequencers, modelled as a counted resource. */
class SequencerPool
{
  public:
    /**
     * @param count sequencers (= max handles issued per cycle)
     */
    explicit SequencerPool(int count = mgstSequencers);

    /**
     * Claim a sequencer from @p now for @p cycles. At most one new
     * walk may start per sequencer per cycle, and a sequencer stays
     * busy until its mini-graph's terminal bank.
     *
     * @return true on success
     */
    bool tryStart(Cycle now, int cycles);

    /** Sequencers free at @p now. */
    int freeAt(Cycle now) const;

    std::uint64_t walks() const { return walks_; }

  private:
    std::vector<Cycle> busyUntil;   ///< per sequencer: first free cycle
    std::uint64_t walks_ = 0;
};

} // namespace mg

#endif // MG_UARCH_SEQUENCER_HH
