/**
 * @file
 * Basic-block execution-frequency profiles. The selection algorithm's
 * benefit function is coverage = (n-1) * f where f comes from a profile
 * (paper Section 3.2).
 *
 * Counts are kept densely indexed by block-start text index: record()
 * sits on the emulator's per-block hot path (and whole profiles are
 * deep-copied into every functional checkpoint), where a flat vector
 * beats the former hash map on both fronts.
 */

#ifndef MG_CFG_PROFILE_HH
#define MG_CFG_PROFILE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mg {

/** Dynamic execution counts keyed by block-start text index. */
class BlockProfile
{
  public:
    /** Record one execution of the block starting at @p first. */
    void
    record(InsnIdx first, std::uint64_t count = 1)
    {
        auto i = static_cast<std::size_t>(first);
        if (i >= counts_.size())
            counts_.resize(i + 1, 0);
        counts_[i] += count;
        total_ += count;
    }

    /** Executions of the block starting at @p first. */
    std::uint64_t
    count(InsnIdx first) const
    {
        auto i = static_cast<std::size_t>(first);
        return i < counts_.size() ? counts_[i] : 0;
    }

    /** Sum of all block executions. */
    std::uint64_t total() const { return total_; }

    /** Merge another profile into this one (multi-input training). */
    void
    merge(const BlockProfile &other)
    {
        for (std::size_t i = 0; i < other.counts_.size(); ++i) {
            if (other.counts_[i])
                record(static_cast<InsnIdx>(i), other.counts_[i]);
        }
    }

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace mg

#endif // MG_CFG_PROFILE_HH
