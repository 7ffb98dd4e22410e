/**
 * @file
 * Branch prediction: a 12Kb hybrid direction predictor (bimodal +
 * gshare + chooser, 2K entries of 2 bits each), a 2K-entry 4-way
 * set-associative BTB, and a return address stack — the paper's
 * front-end configuration (Section 6).
 *
 * When a mini-graph terminates in a branch, the handle PC stands in
 * for the branch PC for prediction and update (paper Section 4.1);
 * the core simply predicts on the fetch PC, so this falls out free.
 */

#ifndef MG_UARCH_BRANCH_PRED_HH
#define MG_UARCH_BRANCH_PRED_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mg {

/** Direction predictor configuration. */
struct BranchPredConfig
{
    std::uint32_t bimodalEntries = 2048;
    std::uint32_t gshareEntries = 2048;
    std::uint32_t chooserEntries = 2048;
    std::uint32_t historyBits = 11;
    std::uint32_t btbEntries = 2048;
    std::uint32_t btbAssoc = 4;
    std::uint32_t rasEntries = 16;
};

/** Hybrid direction predictor + BTB + RAS. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const BranchPredConfig &cfg = {});

    /** Predict the direction of a conditional branch at @p pc. */
    bool predictDirection(Addr pc) const;

    /**
     * Update the direction tables and global history.
     * @param pc    branch PC (handle PC for mini-graph branches)
     * @param taken actual outcome
     */
    void updateDirection(Addr pc, bool taken);

    /** Predicted target of a taken control op, or 0 on BTB miss. */
    Addr predictTarget(Addr pc) const;

    /** Install / refresh a BTB entry. */
    void updateTarget(Addr pc, Addr target);

    /** Call: push @p returnPc onto the RAS. */
    void pushReturn(Addr returnPc);

    /** Return: pop the predicted return target (0 when empty). */
    Addr popReturn();

    std::uint64_t lookups() const { return lookups_; }
    std::uint64_t mispredicts() const { return mispredicts_; }

    /** Record one resolved misprediction (kept here for reporting). */
    void countMispredict() { ++mispredicts_; }

  private:
    BranchPredConfig cfg;
    std::vector<std::uint8_t> bimodal;   ///< 2-bit counters
    std::vector<std::uint8_t> gshare;
    std::vector<std::uint8_t> chooser;   ///< 0-1 bimodal, 2-3 gshare
    std::uint64_t history = 0;

    struct BtbEntry
    {
        bool valid = false;
        Addr tag = 0;
        Addr target = 0;
        std::uint64_t lastUse = 0;
    };
    std::vector<BtbEntry> btb;
    std::uint64_t btbClock = 0;

    std::vector<Addr> ras;
    std::uint32_t rasTop = 0;    ///< index one past the top
    mutable std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;

    /** Mask fast path for power-of-two table sizes (several table
     *  probes per predicted branch; runtime mod is a division). A
     *  mask of 0 means "not a power of two, use %". */
    std::uint32_t bimodalMask = 0;
    std::uint32_t gshareMask = 0;
    std::uint32_t chooserMask = 0;
    std::uint32_t btbSetMask = 0;
    std::uint32_t rasMask = 0;

    static std::uint32_t
    maskOf(std::uint32_t n)
    {
        return (n != 0 && (n & (n - 1)) == 0) ? n - 1 : 0;
    }

    static std::uint32_t
    reduce(std::uint64_t v, std::uint32_t mask, std::uint32_t n)
    {
        return static_cast<std::uint32_t>(mask ? (v & mask) : (v % n));
    }

    std::uint32_t bimodalIdx(Addr pc) const;
    std::uint32_t gshareIdx(Addr pc) const;
    std::uint32_t chooserIdx(Addr pc) const;
    static void bump(std::uint8_t &ctr, bool up);
};

} // namespace mg

#endif // MG_UARCH_BRANCH_PRED_HH
