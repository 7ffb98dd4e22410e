/**
 * @file
 * Per-cycle functional-unit and register-port budgets. The paper's
 * baseline executes up to 6 operations per cycle with composition
 * limits of 4 integer, 2 floating-point, 2 load, and 1 store, backed
 * by a 5-read/4-write-port register file. Mini-graph configurations
 * replace two plain integer ALUs with ALU pipelines (Section 6.2).
 */

#ifndef MG_UARCH_FU_POOL_HH
#define MG_UARCH_FU_POOL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mg/mgt.hh"
#include "uarch/alu_pipeline.hh"

namespace mg {

/** Static FU pool configuration. */
struct FuPoolConfig
{
    int intAlus = 4;        ///< plain single-cycle integer ALUs
    int aluPipes = 0;       ///< ALU pipelines (each replaces one ALU)
    int aluPipeDepth = 4;
    int fpUnits = 2;
    int loadPorts = 2;
    int storePorts = 1;
    int regReadPorts = 5;
    int regWritePorts = 4;
};

/**
 * Cycle-granular issue-slot arbiter. All units are fully pipelined:
 * each accepts one new operation per cycle. Every resource has one
 * probe and one claim: the issue stage probes everything an operation
 * needs before it claims anything, so a claim never fails.
 */
class FuPool
{
  public:
    /** @param issueWidth total operations issued per cycle */
    FuPool(const FuPoolConfig &cfg, int issueWidth);

    /** Start a new cycle: reset per-cycle slot counters.
     *  (Inline: runs once every simulated cycle.) */
    void
    beginCycle(Cycle c)
    {
        now = c;
        slideTo(c);
        for (AluPipeline &p : pipes_)
            p.advanceTo(c);
        issued = intUsed = fpUsed = loadUsed = storeUsed = 0;
        readUsed = 0;
    }

    /**
     * Pre-claim a SlidingWindow::usedNow() readout without consuming
     * issue slots, honouring the FUBMP reservations earlier
     * integer-memory handles made: @p res[0..3] = IntAlu, LoadPort,
     * StorePort, AluPipe units firing this cycle.
     */
    void
    preClaimUsed(const int res[4])
    {
        intUsed += res[0] + res[3];   // IntAlu + AluPipe: grouped slots
        loadUsed += res[1];
        storeUsed += res[2];
    }

    /** Issue slots still available this cycle. */
    bool issueSlotFree() const { return issued < issueWidth; }

    /** Probe: can a singleton op of kind @p fu issue right now?
     *  Integer ops fall back to an ALU pipeline stage-0 slot when the
     *  plain ALUs are exhausted (outLat = 1, no pipeline penalty).
     *  (Inline: every select attempt probes before claiming.) */
    bool
    canIssueSingleton(FuKind fu) const
    {
        if (!issueSlotFree())
            return false;
        switch (fu) {
          case FuKind::IntAlu:
          case FuKind::IntMult: {
              // The paper's composition limit groups all integer ops.
              if (intUsed >= cfg.intAlus + cfg.aluPipes)
                  return false;
              if (intUsed < cfg.intAlus)
                  return true;
              for (const AluPipeline &p : pipes_) {
                  if (p.entryFree(now) && p.outputFree(now + 1))
                      return true;
              }
              return false;
          }
          case FuKind::FpAlu:
            return fpUsed < cfg.fpUnits;
          case FuKind::LoadPort:
            return loadUsed < cfg.loadPorts;
          case FuKind::StorePort:
            return storeUsed < cfg.storePorts;
          default:
            return false;
        }
    }

    /**
     * Claim a singleton slot after a successful canIssueSingleton(@p
     * fu) probe this cycle, without re-validating capacity.
     * (Inline: one call per issued singleton op.)
     */
    void
    claimSingleton(FuKind fu)
    {
        ++issued;
        switch (fu) {
          case FuKind::IntAlu:
          case FuKind::IntMult:
            if (intUsed < cfg.intAlus) {
                ++intUsed;
                return;
            }
            // Spill onto an ALU pipeline stage 0 (the probe
            // guaranteed one is free).
            claimPipe(1);
            return;
          case FuKind::FpAlu:
            ++fpUsed;
            return;
          case FuKind::LoadPort:
            ++loadUsed;
            return;
          case FuKind::StorePort:
            ++storeUsed;
            return;
          default:
            claimFailed();
        }
    }

    /** Probe: can an ALU pipeline take a whole integer mini-graph
     *  whose output emerges after @p outLat cycles right now?
     *  (Inline: handle attempts probe this every select pass.) */
    bool
    canIssueAluPipe(int outLat) const
    {
        if (!issueSlotFree())
            return false;
        if (intUsed >= cfg.intAlus + cfg.aluPipes)
            return false;
        for (const AluPipeline &p : pipes_) {
            if (p.entryFree(now) &&
                p.outputFree(now + static_cast<Cycle>(outLat)))
                return true;
        }
        return false;
    }

    /** Claim an ALU pipeline after a successful canIssueAluPipe(@p
     *  outLat) probe this cycle. */
    void
    claimAluPipe(int outLat)
    {
        ++issued;
        claimPipe(outLat);
    }

    /** Probe: is a write port free at completion cycle @p cycle? */
    bool
    writePortFree(Cycle cycle) const
    {
        return writeUsed[static_cast<std::size_t>(cycle) % window] <
            cfg.regWritePorts;
    }

    /** Register read ports remaining this cycle. */
    int readPortsFree() const { return cfg.regReadPorts - readUsed; }

    /** Claim @p n read ports; @return false if unavailable. */
    bool
    claimReadPorts(int n)
    {
        if (readUsed + n > cfg.regReadPorts)
            return false;
        readUsed += n;
        return true;
    }

    /**
     * Claim a write port at completion cycle @p cycle (write-port
     * arbitration happens at issue using the known latency).
     */
    bool
    claimWritePort(Cycle cycle)
    {
        auto s = static_cast<std::size_t>(cycle) % window;
        if (writeUsed[s] >= cfg.regWritePorts)
            return false;
        ++writeUsed[s];
        return true;
    }

    const FuPoolConfig &config() const { return cfg; }

  private:
    FuPoolConfig cfg;
    int issueWidth;
    Cycle now = 0;
    int issued = 0;     ///< issue slots claimed this cycle
    int intUsed = 0;
    int fpUsed = 0;
    int loadUsed = 0;
    int storeUsed = 0;
    int readUsed = 0;
    std::vector<AluPipeline> pipes_;

    /** Write-port reservations over a future window. Inline array:
     *  writePortFree() runs ~3x per select cycle and the vector's
     *  pointer chase showed up in profiles. */
    static constexpr int window = 64;
    std::array<std::uint8_t, window> writeUsed{};
    Cycle lastSlide = 0;

    [[noreturn]] static void claimFailed();

    /** Enter the first pipeline whose entry slot is free now and whose
     *  output port is free @p outLat cycles on (a probe found one). */
    void
    claimPipe(int outLat)
    {
        ++intUsed;
        for (AluPipeline &p : pipes_) {
            if (p.tryIssue(now, outLat))
                return;
        }
        claimFailed();
    }

    void
    slideTo(Cycle c)
    {
        if (c <= lastSlide)
            return;
        Cycle steps = c - lastSlide;
        if (steps >= window) {
            writeUsed.fill(0);
        } else {
            for (Cycle s = 0; s < steps; ++s)
                writeUsed[static_cast<std::size_t>(lastSlide + s) %
                          window] = 0;
        }
        lastSlide = c;
    }
};

} // namespace mg

#endif // MG_UARCH_FU_POOL_HH
