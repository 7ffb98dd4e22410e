#include "uarch/core.hh"

#include <algorithm>

#include "common/failsoft.hh"
#include "common/logging.hh"

namespace mg {

namespace {

/** Smallest power of two >= @p want (in-flight ring sizing). */
std::size_t
ringSize(std::size_t want)
{
    std::size_t s = 64;
    while (s < want)
        s <<= 1;
    return s;
}

} // namespace

Core::Core(const Program &p, const MgTable *t, const CoreConfig &c)
    : prog(p), mgt(t), cfg(c),
      emu(p, t),
      mem(c.mem),
      bp(c.bp),
      ss(c.ss),
      regs(c.physRegs, numArchRegs),
      rob(c.robSize),
      iq(c.iqSize, c.physRegs),
      lsq(c.lsqSize),
      fu(c.fu),
      seqs(c.sequencers),
      window(WindowResources{c.fu.intAlus, 1, c.fu.loadPorts,
                             c.fu.storePorts, c.fu.aluPipes}),
      slab(static_cast<std::size_t>(c.robSize + c.fetchQueueSize) + 8),
      replayQueue(static_cast<std::size_t>(c.robSize + c.fetchQueueSize) + 8),
      fetchQueue(static_cast<std::size_t>(c.fetchQueueSize) + 1)
{
    // Live seqs span at most the ROB contents; 4x slack absorbs the
    // seq-number churn of squash/refetch storms before a (rare,
    // self-healing) ring growth is needed.
    std::size_t n = ringSize(
        4 * static_cast<std::size_t>(c.robSize + c.fetchQueueSize));
    window_.assign(n, nullptr);
    windowMask = n - 1;
    std::uint32_t lb = c.mem.l1i.lineBytes;
    if (lb != 0 && (lb & (lb - 1)) == 0) {
        fetchLineShift = 0;
        while ((1u << fetchLineShift) < lb)
            ++fetchLineShift;
    }
    memOps.reserve(static_cast<std::size_t>(c.lsqSize));
    pendingMem.reserve(static_cast<std::size_t>(c.lsqSize));
    replayScratch.reserve(
        static_cast<std::size_t>(c.robSize + c.fetchQueueSize));
}

Addr
Core::lineOf(Addr pc) const
{
    return fetchLineShift >= 0 ? pc >> fetchLineShift
                               : pc / cfg.mem.l1i.lineBytes;
}

void
Core::windowInsert(DynInst *d)
{
    for (;;) {
        DynInst *&slot = window_[d->seq & windowMask];
        if (!slot || !slot->inWindow || slot->seq == d->seq) {
            slot = d;
            return;
        }
        // A live entry aliases this slot: double the ring and
        // re-register the window contents (exactly the ROB), growing
        // again if any live pair still aliases at the new size.
        bool clean;
        do {
            std::size_t n = (windowMask + 1) * 2;
            std::vector<DynInst *> bigger(n, nullptr);
            window_.swap(bigger);
            windowMask = n - 1;
            clean = true;
            for (DynInst *r : rob) {
                DynInst *&s = window_[r->seq & windowMask];
                if (s && s->inWindow && s->seq != r->seq) {
                    clean = false;
                    break;
                }
                s = r;
            }
        } while (!clean);
    }
}

DynInst *
Core::findInWindow(std::uint64_t seq) const
{
    DynInst *d = window_[seq & windowMask];
    return (d && d->inWindow && d->seq == seq) ? d : nullptr;
}

DynInst *
Core::pullOracle()
{
    // Replay queue first (squash recovery), then the live oracle.
    if (!replayQueue.empty()) {
        DynInst *d = replayQueue.front();
        replayQueue.pop_front();
        return d;
    }
    if (oracleDone || draining)
        return nullptr;
    // The oracle steps straight into the slot's record: no
    // intermediate ExecRecord copy on the per-instruction path.
    DynInst *d = slab.alloc();
    for (;;) {
        bool more = emu.step(&d->rec);
        if (d->rec.insn == nullptr) {
            oracleDone = true;
            slab.release(d);
            return nullptr;
        }
        if (d->rec.padNop) {
            // Pad nops are squashed pre-decode: they consume no slot
            // but still advance the fetch PC (their icache footprint
            // is modelled in doFetch via the line walk).
            if (!more) {
                oracleDone = true;
                slab.release(d);
                return nullptr;
            }
            continue;
        }
        if (ffShadow)
            ffAliasScan(d->rec);    // early-outs with no dormant edges
        d->pc = d->rec.pc;
        d->insn = *d->rec.insn;
        d->cls = d->rec.cls;        // classified once, at predecode
        d->rec.insn = nullptr;      // records outlive emulator views
        d->memAddr = d->rec.memAddr;    // hot copies for the LSQ scans
        d->memBytes = d->rec.memBytes;
        if (d->insn.isHandle()) {
            d->tmpl = &mgt->at(static_cast<MgId>(d->insn.imm));
            d->work = d->tmpl->size();
            d->isLoadKind = d->tmpl->hdr.hasLoad;
            d->isStoreKind = d->tmpl->hdr.hasStore;
            d->isCtrl = d->tmpl->hdr.endsInBranch;
        } else {
            d->work = 1;
            d->isLoadKind = d->cls == InsnClass::Load;
            d->isStoreKind = d->cls == InsnClass::Store;
            d->isCtrl = d->cls == InsnClass::CondBranch ||
                d->cls == InsnClass::UncondBranch ||
                d->cls == InsnClass::IndirectJump;
            // Precompute the issue-slot kind and effective latency the
            // select loop needs, once per slot instead of per attempt.
            switch (d->cls) {
              case InsnClass::IntAlu:
              case InsnClass::CondBranch:
              case InsnClass::UncondBranch:
              case InsnClass::IndirectJump:
                d->selFu = FuKind::IntAlu;
                d->selLat = 1;
                break;
              case InsnClass::IntMult:
                // Competes for the grouped integer slots (the window
                // lane distinction matters only inside mini-graphs).
                d->selFu = FuKind::IntAlu;
                d->selLat = static_cast<std::int16_t>(
                    opLatency(d->insn.op));
                break;
              case InsnClass::FpAlu:
              case InsnClass::FpDiv:
                d->selFu = FuKind::FpAlu;
                d->selLat = static_cast<std::int16_t>(
                    opLatency(d->insn.op));
                break;
              case InsnClass::Load:
                d->selFu = FuKind::LoadPort;
                d->selLat = static_cast<std::int16_t>(
                    1 + cfg.mem.l1dLat);
                break;
              case InsnClass::Store:
                d->selFu = FuKind::StorePort;
                d->selLat = static_cast<std::int16_t>(
                    opLatency(d->insn.op));
                break;
              default:
                d->selFu = FuKind::IntAlu;
                d->selLat = static_cast<std::int16_t>(
                    opLatency(d->insn.op));
                break;
            }
        }
        if (!more)
            oracleDone = true;
        return d;
    }
}

void
Core::predictControl(DynInst *d)
{
    ++stats_.branches;
    bool actualTaken = d->rec.taken;
    Addr actualTarget = d->rec.nextPc;
    InsnClass cls = d->cls;
    bool condLike = cls == InsnClass::CondBranch ||
        (d->isHandle() && d->tmpl->hdr.endsInBranch);

    if (condLike) {
        bool predTaken = bp.predictDirection(d->pc);
        bp.updateDirection(d->pc, actualTaken);
        if (predTaken != actualTaken) {
            d->mispredicted = true;
        } else if (actualTaken) {
            Addr predTarget = bp.predictTarget(d->pc);
            if (predTarget != actualTarget) {
                // Direct target: computable at decode (misfetch).
                fetchStalledUntil = std::max(
                    fetchStalledUntil,
                    now + static_cast<Cycle>(cfg.misfetchPenalty));
                ++stats_.misfetches;
            }
            bp.updateTarget(d->pc, actualTarget);
        }
        return;
    }

    switch (d->insn.op) {
      case Op::BR:
      case Op::BSR: {
          if (d->insn.op == Op::BSR)
              bp.pushReturn(d->pc + insnBytes);
          Addr predTarget = bp.predictTarget(d->pc);
          if (predTarget != actualTarget) {
              fetchStalledUntil = std::max(
                  fetchStalledUntil,
                  now + static_cast<Cycle>(cfg.misfetchPenalty));
              ++stats_.misfetches;
              bp.updateTarget(d->pc, actualTarget);
          }
          return;
      }
      case Op::RET: {
          Addr predTarget = bp.popReturn();
          if (predTarget != actualTarget)
              d->mispredicted = true;
          return;
      }
      case Op::JSR:
      case Op::JMP: {
          if (d->insn.op == Op::JSR)
              bp.pushReturn(d->pc + insnBytes);
          Addr predTarget = bp.predictTarget(d->pc);
          if (predTarget != actualTarget)
              d->mispredicted = true;
          bp.updateTarget(d->pc, actualTarget);
          return;
      }
      default:
        return;
    }
}

void
Core::doFetch()
{
    if (fetchBlockedBySeq != 0 || now < fetchStalledUntil)
        return;

    int fetched = 0;
    int linesTouched = 0;
    while (fetched < cfg.fetchWidth &&
           static_cast<int>(fetchQueue.size()) < cfg.fetchQueueSize) {
        DynInst *d = pullOracle();
        if (!d)
            return;

        // Instruction cache: touch the line; charge misses.
        Addr line = lineOf(d->pc);
        if (line != lastFetchLine) {
            ++linesTouched;
            if (linesTouched > 2) {
                // Third line this cycle: defer to next cycle.
                replayQueue.push_front(d);
                return;
            }
            MemAccess acc = mem.instAccess(d->pc, now);
            lastFetchLine = line;
            if (!acc.l1Hit) {
                ++stats_.icacheMisses;
                fetchStalledUntil = std::max(fetchStalledUntil,
                                             acc.readyAt);
                replayQueue.push_front(d);
                return;
            }
        }

        d->seq = nextSeq++;
        d->fetchAt = now;
        d->dispatchReadyAt = now +
            static_cast<Cycle>(cfg.frontendDepth);
        ++stats_.fetchedSlots;
        ++fetched;

        bool taken = false;
        if (d->isCtrl) {
            predictControl(d);
            taken = d->rec.taken;
            if (d->mispredicted)
                fetchBlockedBySeq = d->seq;
        }
        fetchQueue.push_back(d);
        if (taken || fetchBlockedBySeq != 0)
            return;   // taken branches end the fetch cycle
    }
}

RegId
Core::renameDstOf(const DynInst *d) const
{
    // Class-driven mirror of Instruction::dst()/writesReg(), using the
    // predecoded class instead of re-deriving it per lookup.
    RegId dd;
    switch (d->cls) {
      case InsnClass::Handle:
        return (d->tmpl->outIdx >= 0 && !isZeroReg(d->insn.rc))
            ? d->insn.rc : regNone;
      case InsnClass::IntAlu:
      case InsnClass::IntMult:
      case InsnClass::FpAlu:
      case InsnClass::FpDiv:
        dd = d->insn.rc;
        break;
      case InsnClass::Load:
      case InsnClass::UncondBranch:
      case InsnClass::IndirectJump:
        dd = d->insn.ra;
        break;
      default:
        return regNone;
    }
    return (dd != regNone && !isZeroReg(dd)) ? dd : regNone;
}

void
Core::doDispatch()
{
    int moved = 0;
    while (moved < cfg.renameWidth && !fetchQueue.empty()) {
        DynInst *d = fetchQueue.front();
        if (d->dispatchReadyAt > now)
            break;
        if (rob.full()) {
            ++stats_.robFullStalls;
            break;
        }
        if (iq.full()) {
            ++stats_.iqFullStalls;
            break;
        }
        if ((d->isLoadKind || d->isStoreKind) && lsq.full()) {
            ++stats_.lsqFullStalls;
            break;
        }

        // Rename: two source lookups, at most one allocation. DISE's
        // dedicated registers never reach renaming (expansion is a
        // decode-stage mechanism); reject them loudly. (The raw-field
        // guard subsumes the per-slot src()/dst() probes: unused
        // operand fields of well-formed instructions hold regNone.)
        if (d->insn.ra >= numArchRegs || d->insn.rb >= numArchRegs ||
            d->insn.rc >= numArchRegs)
            fatal("DISE register reached rename at PC 0x%llx; run "
                  "expanded programs through the emulator",
                  static_cast<unsigned long long>(d->pc));
        // Class-driven mirror of Instruction::src(0)/src(1).
        RegId s0 = regNone, s1 = regNone;
        switch (d->cls) {
          case InsnClass::IntAlu:
          case InsnClass::IntMult:
          case InsnClass::FpAlu:
          case InsnClass::FpDiv:
            s0 = d->insn.ra;
            s1 = d->insn.useImm ? regNone : d->insn.rb;
            break;
          case InsnClass::Load:
            s0 = d->insn.rb;
            break;
          case InsnClass::Store:
            s0 = d->insn.rb;
            s1 = d->insn.ra;
            break;
          case InsnClass::CondBranch:
            s0 = d->insn.ra;
            break;
          case InsnClass::IndirectJump:
            s0 = d->insn.rb;
            break;
          case InsnClass::Handle:
            s0 = d->insn.ra;
            s1 = d->insn.rb;
            break;
          default:
            break;
        }
        RegId dst = renameDstOf(d);
        PhysReg np = physNone;
        if (dst != regNone) {
            np = regs.alloc();
            if (np == physNone) {
                ++stats_.regFullStalls;
                break;
            }
        }
        d->srcPhys[0] = rmap.lookup(s0);
        d->srcPhys[1] = rmap.lookup(s1);
        if (dst != regNone) {
            d->archDst = dst;
            d->dstPhys = np;
            d->prevPhys = rmap.rename(dst, np);
            regs.markPending(np);
        }

        d->dispatchedAt = now;
        if (trace_) {
            // Observational producer tracking: the writer table maps
            // physical registers to the seq that last renamed them, so
            // the retired trace carries register dependence edges. A
            // squashed producer's entry is simply overwritten when the
            // register is reallocated; it never retires, and the
            // analyzer drops edges whose producer seq is absent.
            for (int s = 0; s < 2; ++s) {
                PhysReg p = d->srcPhys[s];
                d->traceSrcSeq[s] =
                    p != physNone &&
                        static_cast<std::size_t>(p) < physWriterSeq_.size()
                    ? physWriterSeq_[p]
                    : 0;
            }
            if (d->dstPhys != physNone &&
                static_cast<std::size_t>(d->dstPhys) <
                    physWriterSeq_.size())
                physWriterSeq_[d->dstPhys] = d->seq;
        }

        // Memory dependence prediction by (handle) PC.
        if (d->isStoreKind)
            d->depStoreSeq = ss.dispatchStore(d->pc, d->seq);
        else if (d->isLoadKind)
            d->depStoreSeq = ss.dispatchLoad(d->pc);

        d->dispatched = true;
        d->inWindow = true;
        rob.push(d);
        windowInsert(d);
        DynInst *depStore = d->depStoreSeq
            ? findInWindow(d->depStoreSeq) : nullptr;
        iq.insert(d, regs, depStore, now);
        if (d->isLoadKind)
            lsq.insertLoad(d);
        else if (d->isStoreKind)
            lsq.insertStore(d);
        fetchQueue.pop_front();
        ++moved;
    }
}

bool
Core::depStoreSatisfied(const DynInst *d) const
{
    if (d->depStoreSeq == 0)
        return true;
    DynInst *s = findInWindow(d->depStoreSeq);
    if (!s)
        return true;    // store committed or squashed
    return s->memDone;
}

void
Core::publishDest(DynInst *d, int effLat, Cycle value)
{
    if (d->dstPhys == physNone)
        return;
    Cycle sched = static_cast<Cycle>(
        std::max(effLat, cfg.schedulerCycles));
    regs.setTimes(d->dstPhys, d->issueAt + sched, value);
    iq.wakeReg(d->dstPhys, regs, now);
}

bool
Core::issueSingleton(DynInst *d, int ports)
{
    InsnClass cls = d->cls;
    // Slot kind and effective latency are precomputed at fetch
    // (pullOracle); read ports were gathered by the select loop.
    FuKind slotKind = d->selFu;
    int effLat = d->selLat;

    // Probe every resource before claiming any: a failed claim after
    // a successful one would waste slots and skew saturation points.
    Cycle completion = now + static_cast<Cycle>(cfg.regReadLat) +
        static_cast<Cycle>(effLat);
    if (fu.readPortsFree() < ports)
        return false;
    if (!fu.canIssueSingleton(slotKind))
        return false;
    if (d->dstPhys != physNone && !fu.writePortFree(completion))
        return false;
    fu.claimSingleton(slotKind);
    if (d->dstPhys != physNone)
        fu.claimWritePort(completion);
    fu.claimReadPorts(ports);

    d->issued = true;
    d->issueAt = now;
    iq.markIssued(d);

    switch (cls) {
      case InsnClass::Load:
        d->memExecAt = now + static_cast<Cycle>(cfg.regReadLat) + 1;
        publishDest(d, effLat, completion);   // optimistic (hit)
        d->completeAt = completion;           // revised on miss
        pendingMem.push_back({d, d->seq});
        break;
      case InsnClass::Store:
        d->memExecAt = now + static_cast<Cycle>(cfg.regReadLat) + 1;
        d->completeAt = d->memExecAt;
        pendingMem.push_back({d, d->seq});
        break;
      case InsnClass::CondBranch:
      case InsnClass::UncondBranch:
      case InsnClass::IndirectJump:
        d->resolveAt = now + static_cast<Cycle>(cfg.regReadLat) + 1;
        d->completeAt = d->resolveAt;
        publishDest(d, effLat, completion);   // link register
        break;
      default:
        publishDest(d, effLat, completion);
        d->completeAt = completion;
        break;
    }
    return true;
}

bool
Core::issueHandle(DynInst *d, int ports)
{
    const MgTemplate &t = *d->tmpl;
    const MgHeader &h = t.hdr;

    if (fu.readPortsFree() < ports)
        return false;

    Cycle outReady = now + static_cast<Cycle>(cfg.regReadLat) +
        static_cast<Cycle>(h.lat);
    bool intOnly = !h.hasLoad && !h.hasStore;
    if (intOnly) {
        // Whole graph rides one ALU pipeline. Probe, then claim.
        if (cfg.fu.aluPipes == 0)
            fatal("integer mini-graph handle but no ALU pipelines "
                  "configured");
        if (!fu.canIssueAluPipe(h.lat))
            return false;
        if (seqs.freeAt(now) == 0)
            return false;
        if (d->dstPhys != physNone && !fu.writePortFree(outReady))
            return false;
        fu.tryIssueAluPipe(h.lat);
        seqs.tryStart(now, h.totalLat);
    } else {
        // Integer-memory handle: sliding-window scheduler.
        if (!cfg.slidingWindow)
            fatal("integer-memory handle but the sliding-window "
                  "scheduler is disabled");
        if (intMemIssuedThisCycle >= cfg.maxIntMemHandlesPerCycle) {
            ++stats_.intMemIssueConflicts;
            return false;
        }
        if (window.conflicts(h.packed, now)) {
            ++stats_.intMemIssueConflicts;
            return false;
        }
        FuKind fu0 = h.fu0;
        bool fu0Pipe = fu0 == FuKind::AluPipe;
        if (fu0 == FuKind::IntMult)
            fu0 = FuKind::IntAlu;
        bool fu0Ok = fu0Pipe ? fu.canIssueAluPipe(h.lat)
                             : fu.canIssueSingleton(fu0);
        if (!fu0Ok)
            return false;
        if (seqs.freeAt(now) == 0)
            return false;
        if (d->dstPhys != physNone && !fu.writePortFree(outReady))
            return false;
        if (fu0Pipe)
            fu.tryIssueAluPipe(h.lat);
        else
            fu.claimSingleton(fu0);
        seqs.tryStart(now, h.totalLat);
        window.reserve(h.packed, now);
        ++intMemIssuedThisCycle;
    }

    if (d->dstPhys != physNone)
        fu.claimWritePort(outReady);
    fu.claimReadPorts(ports);

    d->issued = true;
    d->issueAt = now;
    // The scheduler entry is freed by the sequencer at the terminal
    // bank (paper Section 4.1); model by removing at issue + totalLat.
    // We keep it in the IQ container but it no longer competes; remove
    // now and account the extra occupancy via heldUntil bookkeeping.
    iq.markIssued(d);

    publishDest(d, h.lat, outReady);
    d->completeAt = now + static_cast<Cycle>(cfg.regReadLat) +
        static_cast<Cycle>(h.totalLat);
    if (d->isLoadKind || d->isStoreKind) {
        int b = 0;
        int mi = t.memIdx();
        if (mi >= 0)
            b = t.startCycle[static_cast<size_t>(mi)];
        d->memExecAt = now + static_cast<Cycle>(cfg.regReadLat) +
            static_cast<Cycle>(b);
        pendingMem.push_back({d, d->seq});
    }
    if (d->isCtrl)
        d->resolveAt = d->completeAt;
    return true;
}

void
Core::doIssue()
{
    // Select over the ready set only (age-ordered). Entries whose
    // operand times moved later since their wakeup re-park quietly —
    // exactly the entries the exhaustive scan would have skipped with
    // no side effects — so attempted candidates, and every stat they
    // bump, match the scan bit for bit.
    iq.beginSelect(now);
    intMemIssuedThisCycle = 0;
    if (!iq.readyFirst())
        return;   // nothing can attempt: skip the per-cycle FU setup

    fu.beginCycle(now);
    if (cfg.slidingWindow) {
        // FUBMP reservations made by in-flight integer-memory handles
        // claim their units in the cycle they fire.
        int res[4];
        window.usedNow(now, res);
        fu.preClaimUsed(res);
    }

    // Chunked gather/issue over the ready chain, in age order. The
    // gather phase snapshots a chunk of candidates into structure-of-
    // arrays scratch, batching their scoreboard reads — operand issue
    // readiness and bypass-window read-port needs — in one pass over
    // the register timestamps instead of interleaving probes with FU
    // claims; the issue phase then attempts the gathered entries.
    // Chunking keeps the overscan bounded: a cycle that fills its
    // issue slots in the first few candidates never walks (or probes)
    // the rest of a long ready chain.
    //
    // The snapshot is bit-identical to live per-attempt probing:
    // issuing publishes destination times of at least now + 1
    // (sched >= schedulerCycles >= 1), so mid-select wakeups only
    // ever park (never extend the ready chain at now), and published
    // registers were pending (not ready, not bypassable) before — no
    // gathered bit can differ from what an interleaved probe would
    // have read. Attempts unlink only their own entry, so the chunk
    // snapshot and the cursor into the chain both stay valid.
    constexpr int chunk = 16;
    DynInst *gInst[chunk];
    std::uint8_t gReady[chunk];
    std::uint8_t gPorts[chunk];
    const Cycle bypass = static_cast<Cycle>(cfg.bypassWindow);
    DynInst *cursor = iq.readyFirst();
    int issued = 0;
    while (cursor && issued < cfg.issueWidth) {
        int gn = 0;
        for (DynInst *d = cursor; gn < chunk && d; d = d->rdyNext) {
            bool srcsReady = true;
            int ports = 0;
            for (PhysReg s : d->srcPhys) {
                if (s == physNone)
                    continue;
                if (!regs.readyForIssue(s, now)) {
                    srcsReady = false;
                    break;
                }
                // Values in the bypass network need no read port.
                if (regs.valueAt(s) + bypass < now)
                    ++ports;
            }
            gInst[gn] = d;
            gReady[gn] = srcsReady;
            gPorts[gn] = static_cast<std::uint8_t>(ports);
            ++gn;
            cursor = d->rdyNext;   // first ungathered entry
        }

        for (int i = 0; i < gn && issued < cfg.issueWidth; ++i) {
            DynInst *d = gInst[i];

            // Both interface inputs (or both sources) must be ready:
            // this is exactly the paper's external serialization.
            if (!gReady[i]) {
                iq.requeueNotReady(d, regs, now);
                continue;
            }
            // Store-set ordering: loads (and ordered stores) wait for
            // their predicted store.
            if ((d->isLoadKind || d->isStoreKind) &&
                d->depStoreSeq != 0) {
                DynInst *st = findInWindow(d->depStoreSeq);
                if (st && !st->memDone) {
                    iq.requeueDepWait(d, st);
                    continue;
                }
            }

            if (d->isHandle() ? issueHandle(d, gPorts[i])
                              : issueSingleton(d, gPorts[i]))
                ++issued;
        }
    }
}

void
Core::executeLoad(DynInst *d)
{
    // Store-to-load forwarding: youngest older store with a known
    // overlapping address supplies the value in one cycle.
    DynInst *fwd = lsq.forwardingStore(d);
    Cycle dataAt;
    if (fwd) {
        dataAt = now + 1;
    } else {
        MemAccess acc = mem.dataAccess(d->memAddr, false, now);
        if (!acc.l1Hit)
            ++stats_.dcacheMisses;
        dataAt = acc.readyAt;
    }

    // The bank/pipeline schedule planned for a hit completing
    // l1dLat cycles after the access (now == d->memExecAt).
    Cycle plannedData = d->memExecAt + cfg.mem.l1dLat;

    if (d->isHandle()) {
        const MgTemplate &t = *d->tmpl;
        int mi = t.memIdx();
        bool terminal = (mi == t.size() - 1);
        if (dataAt > plannedData) {
            Cycle delta = dataAt - plannedData;
            if (!terminal) {
                // Interior-load miss: replay the whole mini-graph
                // (paper Section 4.3). The graph re-executes once the
                // fill returns; everything shifts by the miss delta
                // plus one replay pass through the sequencer.
                ++stats_.handleReplays;
                ++d->handleReplays;
                Cycle shift = delta + static_cast<Cycle>(t.hdr.totalLat);
                d->completeAt += shift;
                if (d->dstPhys != physNone) {
                    regs.setTimes(d->dstPhys,
                                  regs.readyForIssueAt(d->dstPhys) + shift,
                                  regs.valueAt(d->dstPhys) + shift);
                    iq.rewakeReg(d->dstPhys, regs, now);
                }
                if (d->isCtrl)
                    d->resolveAt = d->completeAt;
                seqs.tryStart(now, t.hdr.totalLat);   // replay walk
            } else {
                // Terminal load miss: behaves like a singleton miss.
                d->completeAt += delta;
                if (t.outIdx == mi && d->dstPhys != physNone) {
                    regs.setTimes(d->dstPhys,
                                  dataAt -
                                      static_cast<Cycle>(cfg.regReadLat),
                                  dataAt);
                    iq.rewakeReg(d->dstPhys, regs, now);
                }
                if (d->isCtrl)
                    d->resolveAt = d->completeAt;
            }
        }
    } else {
        if (dataAt != plannedData) {
            if (dataAt > plannedData)
                ++stats_.loadReplays;
            d->completeAt = dataAt;
            if (d->dstPhys != physNone) {
                regs.setTimes(d->dstPhys,
                              dataAt - static_cast<Cycle>(cfg.regReadLat),
                              dataAt);
                // A forwarded load completes *earlier* than published:
                // its parked consumers must be re-parked earlier too.
                iq.rewakeReg(d->dstPhys, regs, now);
            }
        }
    }
    d->memDone = true;
    if (!d->depWaiters.empty())
        iq.wakeDepStore(d, regs, now);
}

void
Core::executeStore(DynInst *d)
{
    d->memDone = true;
    if (!d->depWaiters.empty())
        iq.wakeDepStore(d, regs, now);
    // Ordering check: a younger load that already ran with an
    // overlapping address used stale data.
    DynInst *viol = lsq.violatingLoad(d);
    if (viol) {
        ++stats_.ordViolations;
        ss.recordViolation(viol->pc, d->pc);
        if (ffShadow)
            ffRecordViolation(viol->pc, d->pc);
        squashFrom(viol->seq);
    }
}

void
Core::doMemAndResolve()
{
    // Memory operations whose address resolves this cycle, from the
    // issued-pending list (compacting resolved and squashed entries
    // as we go). Collect (entry, seq) first: violation squashes
    // mutate the queues and recycle squashed entries, which a seq
    // mismatch then reveals.
    memOps.clear();
    std::size_t keep = 0;
    bool compact = false;
    for (std::size_t i = 0; i < pendingMem.size(); ++i) {
        const auto &[d, seq] = pendingMem[i];
        if (d->seq != seq || d->memDone) {
            compact = true;   // squashed / already resolved: drop
            continue;
        }
        if (d->memExecAt <= now)
            memOps.push_back(pendingMem[i]);
        if (compact)
            pendingMem[keep] = pendingMem[i];
        ++keep;
    }
    if (compact)
        pendingMem.resize(keep);
    if (memOps.size() > 1) {
        std::sort(memOps.begin(), memOps.end(),
                  [](const std::pair<DynInst *, std::uint64_t> &a,
                     const std::pair<DynInst *, std::uint64_t> &b) {
                      return a.second < b.second;
                  });
    }
    for (const auto &[d, seq] : memOps) {
        if (d->seq != seq)
            continue;   // squashed (and possibly recycled) mid-loop
        if (d->isLoadKind)
            executeLoad(d);
        else
            executeStore(d);
    }

    // Control resolution: unblock fetch.
    if (fetchBlockedBySeq != 0) {
        DynInst *b = findInWindow(fetchBlockedBySeq);
        if (!b) {
            fetchBlockedBySeq = 0;   // squashed away
        } else if (b->issued && b->resolveAt <= now) {
            fetchBlockedBySeq = 0;
            ++stats_.mispredicts;
            bp.countMispredict();
        }
    }
}

void
Core::traceRetire(const DynInst *d)
{
    auto delta = [&](Cycle at) -> std::uint32_t {
        if (at <= d->fetchAt)
            return 0;
        Cycle v = at - d->fetchAt;
        return v > 0xffffffffull ? 0xffffffffu
                                 : static_cast<std::uint32_t>(v);
    };
    TraceEvent e;
    e.seq = d->seq;
    e.pc = d->pc;
    e.fetchAt = d->fetchAt;
    e.dispatchD = delta(d->dispatchedAt);
    e.issueD = delta(d->issueAt);
    e.completeD = delta(d->completeAt);
    e.commitD = delta(now);
    e.memExecD = (d->isLoadKind || d->isStoreKind)
        ? delta(d->memExecAt) : 0;
    e.srcSeq[0] = d->traceSrcSeq[0];
    e.srcSeq[1] = d->traceSrcSeq[1];
    e.depStoreSeq = d->depStoreSeq;
    e.work = static_cast<std::uint16_t>(
        std::min(d->work, 0xffff));
    e.handleReplays = static_cast<std::uint16_t>(
        std::min(d->handleReplays, 0xffff));
    e.cls = d->cls;
    e.flags = static_cast<std::uint8_t>(
        (d->isLoadKind ? TraceEvent::FlagLoad : 0) |
        (d->isStoreKind ? TraceEvent::FlagStore : 0) |
        (d->isCtrl ? TraceEvent::FlagCtrl : 0) |
        (d->isHandle() ? TraceEvent::FlagHandle : 0) |
        (d->mispredicted ? TraceEvent::FlagMispredicted : 0) |
        (d->isCtrl && d->rec.taken ? TraceEvent::FlagTaken : 0));
    trace_->push(e);
}

void
Core::retire(DynInst *d)
{
    if (trace_)
        traceRetire(d);
    ++stats_.committedSlots;
    stats_.committedWork += static_cast<std::uint64_t>(d->work);
    if (d->isHandle())
        ++stats_.committedHandles;
    if (d->isStoreKind) {
        // The retiring store (or the mini-graph's one store queue
        // entry) drains to the data cache.
        mem.dataAccess(d->memAddr, true, now);
        ss.completeStore(d->pc, d->seq);
    }
    if (d->prevPhys != physNone)
        regs.free(d->prevPhys);
    d->inWindow = false;
}

void
Core::doCommit()
{
    int n = 0;
    while (n < cfg.commitWidth && !rob.empty()) {
        DynInst *d = rob.head();
        bool done = d->issued && d->completeAt <= now &&
            (!d->isLoadKind || d->memDone) &&
            (!d->isStoreKind || d->memDone);
        if (!done)
            break;
        retire(d);
        rob.popHead();
        if (d->isLoadKind || d->isStoreKind)
            lsq.remove(d);
        // Handles hold their scheduler entry until the terminal bank;
        // both paths removed the entry at issue, so nothing to do.
        ++n;
        // Eager reclamation: the slot is free the moment it retires.
        slab.release(d);
    }
}

void
Core::squashFrom(std::uint64_t fromSeq)
{
    // Remove young entries from the back of the ROB, restoring the
    // rename map and freeing their registers; then reset the slots in
    // place (no copies, no allocation) and re-feed them to fetch via
    // the replay queue.
    std::vector<DynInst *> gone = rob.squashFrom(fromSeq);
    iq.squashFrom(fromSeq);
    lsq.squashFrom(fromSeq);

    // Also squash not-yet-dispatched fetched slots (they are younger
    // than anything in the ROB), youngest first.
    replayScratch.clear();
    std::size_t nGone = gone.size();
    for (DynInst *d : gone) {
        // Youngest first: undo rename in reverse order.
        if (d->archDst != regNone) {
            rmap.restore(d->archDst, d->prevPhys);
            if (d->dstPhys != physNone)
                regs.free(d->dstPhys);
        }
        d->inWindow = false;
        replayScratch.push_back(d);
        ++stats_.squashedSlots;
    }
    while (!fetchQueue.empty() && fetchQueue.back()->seq >= fromSeq) {
        replayScratch.push_back(fetchQueue.back());
        fetchQueue.pop_back();
        ++stats_.squashedSlots;
    }

    if (fetchBlockedBySeq >= fromSeq)
        fetchBlockedBySeq = 0;

    // Rebuild the replay stream oldest-first at the front of the
    // queue: the ROB entries (collected youngest-first) reversed,
    // then the fetch-queue leftovers (youngest-first) reversed.
    // Resetting *before* any push keeps stale references (this
    // cycle's memOps, wakeup records) detectably dead via seq 0.
    for (DynInst *d : replayScratch)
        d->resetForReplay();
    // Both groups sit youngest-first in the scratch; pushing each to
    // the front youngest-first leaves its oldest entry frontmost.
    for (std::size_t i = nGone; i < replayScratch.size(); ++i)
        replayQueue.push_front(replayScratch[i]);
    for (std::size_t i = 0; i < nGone; ++i)
        replayQueue.push_front(replayScratch[i]);

    // Refetch restarts after the squash resolves (next cycle) with a
    // cold line tracker.
    fetchStalledUntil = std::max(fetchStalledUntil, now + 1);
    lastFetchLine = ~Addr(0);
}

Cycle
Core::idleSkipTarget(std::uint64_t **stallCounter)
{
    *stallCounter = nullptr;

    // Anything ready (or waking) in the scheduler issues or counts
    // conflicts this cycle.
    if (!iq.quietAt(now))
        return 0;

    Cycle next = ~Cycle(0);
    bool have = false;
    auto event = [&](Cycle c) {
        if (c < next)
            next = c;
        have = true;
    };

    // Fetch: progress now means no skip; a pending stall is an event.
    bool queueRoom =
        static_cast<int>(fetchQueue.size()) < cfg.fetchQueueSize;
    bool canPull = !replayQueue.empty() || (!oracleDone && !draining);
    if (fetchBlockedBySeq == 0 && queueRoom && canPull) {
        if (now >= fetchStalledUntil)
            return 0;
        event(fetchStalledUntil);
    }

    if (Cycle w = iq.nextWakeAt(now))
        event(w);   // quietAt guarantees w > now

    // Pending memory accesses.
    for (const auto &[d, seq] : pendingMem) {
        if (d->seq != seq || d->memDone)
            continue;
        if (d->memExecAt <= now)
            return 0;
        event(d->memExecAt);
    }

    // Branch resolution unblocking fetch.
    if (fetchBlockedBySeq != 0) {
        DynInst *b = findInWindow(fetchBlockedBySeq);
        if (!b)
            return 0;   // resolves by absence this cycle
        if (b->issued) {
            if (b->resolveAt <= now)
                return 0;
            event(b->resolveAt);
        }
        // Unissued: its wakeup (above) precedes resolution.
    }

    // Commit of the ROB head.
    if (!rob.empty()) {
        DynInst *h = rob.head();
        if (h->issued) {
            bool memPending =
                (h->isLoadKind || h->isStoreKind) && !h->memDone;
            if (!memPending) {
                if (h->completeAt <= now)
                    return 0;
                event(h->completeAt);
            }
            // memPending: the LSQ scan above supplied the event.
        }
        // Unissued head wakes through the scheduler events.
    }

    // Dispatch: progress now means no skip; a structural stall must
    // keep counting once per skipped cycle (nothing a skipped cycle
    // touches can change the stall reason).
    if (!fetchQueue.empty()) {
        DynInst *f = fetchQueue.front();
        if (f->dispatchReadyAt > now) {
            event(f->dispatchReadyAt);
        } else if (rob.full()) {
            *stallCounter = &stats_.robFullStalls;
        } else if (iq.full()) {
            *stallCounter = &stats_.iqFullStalls;
        } else if ((f->isLoadKind || f->isStoreKind) && lsq.full()) {
            *stallCounter = &stats_.lsqFullStalls;
        } else if (renameDstOf(f) != regNone && regs.freeCount() == 0) {
            *stallCounter = &stats_.regFullStalls;
        } else {
            return 0;   // dispatch progresses now
        }
    }

    if (!have) {
        *stallCounter = nullptr;
        return 0;
    }
    return next;
}

void
Core::stepCycle()
{
    // Event-aware idle skipping: jump straight to the next cycle at
    // which any pipeline event fires, accumulating the per-cycle
    // dispatch-stall statistics the skipped cycles would have counted.
    std::uint64_t *stall = nullptr;
    Cycle target = idleSkipTarget(&stall);
    if (target > now) {
        if (stall)
            *stall += target - now;
        now = target;
    }

    doMemAndResolve();
    doCommit();
    doIssue();
    doDispatch();
    doFetch();
    ++now;
    stats_.cycles = now;
}

void
Core::pollCancel()
{
    if (cancel_ && (++cancelPoll_ & cancelPollMask) == 0 &&
        cancel_->load(std::memory_order_relaxed))
        throw CellTimeout("cell deadline exceeded (timing loop "
                          "cancelled by watchdog)");
}

void
Core::runDetailedUntil(std::uint64_t targetWork)
{
    for (;;) {
        pollCancel();
        stepCycle();
        if (stats_.committedWork >= targetWork)
            break;
        if (oracleDone && replayQueue.empty() && fetchQueue.empty() &&
            rob.empty())
            break;
        if (now > (1ull << 40))
            panic("simulation did not terminate");
    }
}

CoreStats
Core::run(std::uint64_t maxWork)
{
    stats_ = CoreStats();
    runDetailedUntil(maxWork);
    return stats_;
}

bool
Core::pipelineEmpty() const
{
    return replayQueue.empty() && fetchQueue.empty() && rob.empty();
}

void
Core::drainPipeline()
{
    // Retire everything in flight without admitting new oracle slots
    // (pullOracle serves only the replay queue while draining), so the
    // subsequent fast-forward starts from a committed boundary.
    draining = true;
    while (!pipelineEmpty()) {
        stepCycle();
        if (now > (1ull << 40))
            panic("pipeline did not drain");
    }
    draining = false;
}

void
Core::warmControl(const Instruction &in, const ExecRecord &rec)
{
    // Functional-warming mirror of predictControl's *training* effects:
    // same tables, same PCs, but no penalties and no stats.
    InsnClass cls = rec.cls;
    bool condLike = cls == InsnClass::CondBranch ||
        (in.isHandle() && mgt &&
         mgt->at(static_cast<MgId>(in.imm)).hdr.endsInBranch);
    if (condLike) {
        bp.updateDirection(rec.pc, rec.taken);
        if (rec.taken)
            bp.updateTarget(rec.pc, rec.nextPc);
        return;
    }
    switch (in.op) {
      case Op::BSR:
        bp.pushReturn(rec.pc + insnBytes);
        [[fallthrough]];
      case Op::BR:
        bp.updateTarget(rec.pc, rec.nextPc);
        break;
      case Op::RET:
        bp.popReturn();
        break;
      case Op::JSR:
        bp.pushReturn(rec.pc + insnBytes);
        [[fallthrough]];
      case Op::JMP:
        bp.updateTarget(rec.pc, rec.nextPc);
        break;
      default:
        break;
    }
}

void
Core::fastForward(std::uint64_t workTarget, bool warm, double ipcEst)
{
    if (!pipelineEmpty())
        panic("fastForward with a non-empty pipeline");
    ExecRecord rec;
    double cycleAccum = 0;
    Cycle base = now;
    std::uint64_t work0 = emu.dynWork();
    while (!emu.halted() && emu.dynWork() < workTarget) {
        pollCancel();
        if (!emu.step(&rec))
            break;
        if (ipcEst > 0) {
            cycleAccum = static_cast<double>(emu.dynWork() - work0) /
                ipcEst;
            now = base + static_cast<Cycle>(cycleAccum);
        }
        if (!warm || !rec.insn)
            continue;
        Addr line = lineOf(rec.pc);
        if (line != lastFetchLine) {
            if (ipcEst > 0)
                mem.instAccess(rec.pc, now);
            else
                mem.warmInst(rec.pc);
            lastFetchLine = line;
        }
        if (rec.padNop)
            continue;
        if (rec.isMem) {
            if (ipcEst > 0)
                mem.dataAccess(rec.memAddr, rec.memIsStore, now);
            else
                mem.warmData(rec.memAddr, rec.memIsStore);
            if (ffShadow && !ffViolPairs.empty()) {
                ffAliasScan(rec);
                // Store-set shadow: re-merge every *active* pair
                // (idempotent once the full component is in one
                // set). All of the load's active partners merge
                // together so the component — not just one edge of
                // it — survives table clears.
                if (!rec.memIsStore) {
                    auto it = ffViolPairs.find(rec.pc);
                    if (it != ffViolPairs.end()) {
                        for (const FfPartner &p : it->second) {
                            if (p.active)
                                ss.recordViolation(it->first,
                                                   p.storePc);
                        }
                    }
                }
            }
        }
        if (rec.insn->isControl() || rec.insn->isHandle())
            warmControl(*rec.insn, rec);
    }
    if (warm)
        ffGaps.emplace_back(work0, emu.dynWork());
    stats_.cycles = now;        // keep interval deltas pure-detailed
    lastFetchLine = ~Addr(0);   // fetch restarts on a cold line tracker
}

namespace {

/** Generation hash of a violation-pair seed set: runs seeded with
 *  different sets follow different warm-state trajectories, so the
 *  hash namespaces their store records apart. A null or empty seed
 *  hashes to the FNV basis (the discovery generation). */
std::uint64_t
violSeedHash(const std::vector<std::pair<Addr, Addr>> *seed)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    if (!seed)
        return h;
    for (const auto &[loadPc, storePc] : *seed) {
        std::uint8_t b[16];
        for (int i = 0; i < 8; ++i) {
            b[i] = static_cast<std::uint8_t>(loadPc >> (8 * i));
            b[8 + i] = static_cast<std::uint8_t>(storePc >> (8 * i));
        }
        h = fnv1a64(b, sizeof b, h);
    }
    return h;
}

} // namespace

std::vector<std::pair<Addr, Addr>>
Core::violPairsSorted() const
{
    std::vector<std::pair<Addr, Addr>> v;
    // mglint:allow(unordered-iter): edges copied then sorted below
    for (const auto &[loadPc, partners] : ffViolPairs) {
        for (const FfPartner &p : partners)
            v.emplace_back(loadPc, p.storePc);
    }
    std::sort(v.begin(), v.end());
    return v;
}

void
Core::ffSeed(bool on, const std::vector<std::pair<Addr, Addr>> *seed)
{
    ffShadow = on;
    ffViolPairs.clear();
    ffPartnerStores.clear();
    ffAliasLast.clear();
    ffDormantEdges = 0;
    ffGaps.clear();
    if (!seed)
        return;
    // seed is violPairsSorted() output: distinct pairs in (loadPc,
    // storePc) order, so per-load partner lists rebuild identically
    // in every session (replay order is part of the cold-vs-warm
    // determinism contract). Seeded edges start dormant: each waits
    // for this run's functional stream to show its first violable
    // RAW (ffAliasScan) so the shadow never serializes program phases
    // before the dependence even exists.
    for (const auto &[loadPc, storePc] : *seed) {
        ffViolPairs[loadPc].push_back({storePc, false});
        ffPartnerStores.insert(storePc);
        ++ffDormantEdges;
    }
}

bool
Core::seededRunRetraces(const Core &discovery,
                        const std::vector<std::pair<Addr, Addr>> &seed)
{
    ffSeed(true, &seed);
    const auto &found = discovery.ffViolPairs;
    // From the gap where the discovery run trains every edge on, in
    // the seed's (storePc-sorted) per-load order, both runs train
    // identically for good.
    std::uint32_t lastEpoch = 0;
    bool seedOrder = true;
    // mglint:allow(unordered-iter): max and all-of, order-independent
    for (const auto &[loadPc, partners] : found) {
        for (std::size_t i = 0; i < partners.size(); ++i) {
            lastEpoch = std::max(lastEpoch, partners[i].epoch);
            if (i && partners[i - 1].storePc > partners[i].storePc)
                seedOrder = false;
        }
    }
    ExecRecord rec;
    std::vector<Addr> seeded, unseeded;
    const auto &gaps = discovery.ffGaps;
    for (std::uint32_t g = 0; g < gaps.size(); ++g) {
        if (seedOrder && g >= lastEpoch)
            return true;
        // Detailed execution up to the gap: the oracle stream feeds
        // the RAW scan (Core::pullOracle), and the discovery run's
        // violations wake their seeded edges.
        while (!emu.halted() && emu.dynWork() < gaps[g].first) {
            pollCancel();
            if (!emu.step(&rec))
                break;
            ffAliasScan(rec);
        }
        // mglint:allow(unordered-iter): sets flags, order-independent
        for (const auto &[loadPc, partners] : found) {
            for (const FfPartner &p : partners) {
                if (p.epoch <= g)
                    ffRecordViolation(loadPc, p.storePc);
            }
        }
        // The gap, as fastForward's warm path walks it.
        while (!emu.halted() && emu.dynWork() < gaps[g].second) {
            pollCancel();
            if (!emu.step(&rec))
                break;
            if (!rec.insn || rec.padNop || !rec.isMem)
                continue;
            ffAliasScan(rec);
            if (rec.memIsStore)
                continue;
            auto s = ffViolPairs.find(rec.pc);
            if (s == ffViolPairs.end())
                continue;
            seeded.clear();
            for (const FfPartner &p : s->second) {
                if (p.active)
                    seeded.push_back(p.storePc);
            }
            unseeded.clear();
            auto d = found.find(rec.pc);
            if (d != found.end()) {
                for (const FfPartner &p : d->second) {
                    if (p.epoch <= g)
                        unseeded.push_back(p.storePc);
                }
            }
            if (seeded != unseeded)
                return false;
        }
    }
    return true;
}

void
Core::ffRecordViolation(Addr loadPc, Addr storePc)
{
    std::vector<FfPartner> &partners = ffViolPairs[loadPc];
    for (FfPartner &p : partners) {
        if (p.storePc == storePc) {
            if (!p.active) {
                p.active = true;
                --ffDormantEdges;
            }
            return;
        }
    }
    partners.push_back(
        {storePc, true, static_cast<std::uint32_t>(ffGaps.size())});
}

void
Core::ffAliasScan(const ExecRecord &rec)
{
    if (ffDormantEdges == 0 || !rec.isMem)
        return;
    // Word granularity: the LSQ's violation check is byte-overlap,
    // but partner pairs that alias at all touch the same words in
    // practice, and word keys keep the map small.
    Addr lo = rec.memAddr & ~Addr(7);
    Addr hi = (rec.memAddr + static_cast<Addr>(
                   rec.memBytes > 0 ? rec.memBytes - 1 : 0)) &
        ~Addr(7);
    if (rec.memIsStore) {
        if (!ffPartnerStores.count(rec.pc))
            return;
        for (Addr wd = lo;; wd += 8) {
            ffAliasLast[wd] = {rec.pc, emu.dynWork()};
            if (wd == hi)
                break;
        }
        return;
    }
    auto it = ffViolPairs.find(rec.pc);
    if (it == ffViolPairs.end())
        return;
    for (Addr wd = lo;; wd += 8) {
        auto a = ffAliasLast.find(wd);
        if (a != ffAliasLast.end() &&
            emu.dynWork() - a->second.second <= ffAliasSpan) {
            for (FfPartner &p : it->second) {
                if (!p.active && p.storePc == a->second.first) {
                    p.active = true;
                    --ffDormantEdges;
                }
            }
        }
        if (wd == hi)
            break;
    }
}

/** Layout version of serializeWarm records (independent of the store's
 *  file format version: this one tracks the core's state shape). */
static constexpr std::uint32_t warmStateVersion = 1;

void
Core::serializeWarm(SerialWriter &w) const
{
    w.u32(warmStateVersion);
    w.u64(now);
    w.u64(nextSeq);
    emu.serializeState(w);
    mem.exportState().serialize(w);
    bp.exportState().serialize(w);
    ss.exportState().serialize(w);
    // Shadow state of the violation-pair seeding: the graph edges
    // (with activation bits) and the RAW-scan alias map. A restored
    // record skips the fast-forward gap that built these, so they
    // ride in the record; canonical sorted order keeps the bytes —
    // and the store's checksums — session-independent.
    std::vector<std::tuple<Addr, Addr, std::uint8_t>> edges;
    // mglint:allow(unordered-iter): edges copied then sorted below
    for (const auto &[loadPc, partners] : ffViolPairs) {
        for (const FfPartner &p : partners)
            edges.emplace_back(loadPc, p.storePc, p.active ? 1 : 0);
    }
    std::sort(edges.begin(), edges.end());
    w.u64(edges.size());
    for (const auto &[l, s, a] : edges) {
        w.u64(l);
        w.u64(s);
        w.u8(a);
    }
    std::vector<std::pair<Addr, std::pair<Addr, std::uint64_t>>> alias(
        ffAliasLast.begin(),   // mglint:allow(unordered-iter): sorted below
        ffAliasLast.end());
    std::sort(alias.begin(), alias.end());
    w.u64(alias.size());
    for (const auto &[wd, last] : alias) {
        w.u64(wd);
        w.u64(last.first);
        w.u64(last.second);
    }
}

bool
Core::tryRestoreWarm(const std::vector<std::uint8_t> &bytes)
{
    if (!pipelineEmpty())
        panic("tryRestoreWarm with a non-empty pipeline");
    // Parse the whole record into temporaries and validate every
    // piece before mutating anything: a truncated or incompatible
    // record must leave the core exactly as it was (the caller then
    // warms through functionally and the run stays correct).
    SerialReader r(bytes);
    if (r.u32() != warmStateVersion)
        return false;
    std::uint64_t now_ = r.u64();
    std::uint64_t nextSeq_ = r.u64();
    EmuCheckpoint ck;
    if (!deserializeCheckpoint(r, ck))
        return false;
    HierarchyState hs;
    BranchPredState bs;
    StoreSetsState sss;
    if (!hs.deserialize(r) || !bs.deserialize(r) ||
        !sss.deserialize(r) || !r.ok())
        return false;
    std::uint64_t nEdges = r.u64();
    if (nEdges > r.remaining() / 17)
        return false;
    std::unordered_map<Addr, std::vector<FfPartner>> edgesByLoad;
    std::uint64_t dormant = 0;
    std::unordered_set<Addr> partnerStores;
    for (std::uint64_t i = 0; i < nEdges; ++i) {
        Addr l = r.u64();
        Addr s = r.u64();
        std::uint8_t a = r.u8();
        edgesByLoad[l].push_back({s, a != 0});
        if (a == 0) {
            ++dormant;
            partnerStores.insert(s);
        }
    }
    std::uint64_t nAlias = r.u64();
    if (nAlias > r.remaining() / 24)
        return false;
    std::unordered_map<Addr, std::pair<Addr, std::uint64_t>> aliasByWord;
    for (std::uint64_t i = 0; i < nAlias; ++i) {
        Addr wd = r.u64();
        Addr spc = r.u64();
        std::uint64_t pos = r.u64();
        aliasByWord[wd] = {spc, pos};
    }
    if (!r.ok())
        return false;
    if (!emu.checkpointCompatible(ck) || !mem.stateCompatible(hs) ||
        !bp.stateCompatible(bs) || !ss.stateCompatible(sss))
        return false;
    // Records are keyed to positions ahead of the run; never move the
    // oracle (or the clock) backwards.
    if (ck.work < emu.dynWork() || now_ < now)
        return false;

    emu.restore(std::move(ck));
    now = now_;
    nextSeq = nextSeq_;
    mem.adoptState(hs);
    bp.adoptState(bs);
    ss.adoptState(sss);
    ffViolPairs = std::move(edgesByLoad);
    ffPartnerStores = std::move(partnerStores);
    ffAliasLast = std::move(aliasByWord);
    ffDormantEdges = dormant;
    lastFetchLine = ~Addr(0);
    return true;
}

SampledStats
Core::runSampled(const SamplingParams &sp, const SampleSummary &sum,
                 std::uint64_t maxWork, WarmStoreIf *warmStore,
                 const std::vector<std::pair<Addr, Addr>> *seedViol)
{
    stats_ = CoreStats();
    ffSeed(sp.ssShadow, seedViol);
    const std::uint64_t seedHash = violSeedHash(seedViol);
    std::vector<std::uint8_t> wsBytes;
    SerialWriter wsRecord;   // writeback buffer, reused across chunks
    SampledStats out;
    out.totalWork = std::min(sum.totalWork, maxWork);

    // Short programs degrade to exact full simulation. Below ~33
    // sampling periods the fixed costs (prefix, per-chunk warmups,
    // two samples per cluster) already approach full coverage, so
    // sampling buys under 2x wall-clock while paying 3-8% IPC error
    // (too few occurrences per cluster for the variance to average
    // out — the measured ref-tier tail on drr/bitcount/rgb2gray) and,
    // on kernels whose speculation state trains over the whole run,
    // far worse (reed@ref/int-mem measured 52% when sampled: its
    // store-set serialization never finishes being discovered).
    // Such runs are cheap to simulate exactly; the threshold is
    // period-relative so genuinely long runs (the M-scale tier is
    // ~90 periods at defaults) never degrade.
    bool tooShort = sum.totalWork > 0 &&
        out.totalWork < sp.coldPrefixWork() + 32 * sp.period;
    if (sp.degenerate() || tooShort) {
        // No room for fast-forward: identical to a full run.
        runDetailedUntil(maxWork);
        out.est = stats_;
        out.exact = true;
        out.totalWork = stats_.committedWork;
        out.measuredWork = stats_.committedWork;
        out.measuredCycles = stats_.cycles;
        out.detailedWork = stats_.committedWork;
        out.intervals = 1;
        out.ipcHat = stats_.ipc();
        return out;
    }

    // Exactly-measured cold prefix: the startup transient (cold
    // caches, bus backlog, queue fill) is a large, unrepresentative
    // fraction of a short run; extrapolating any sample of it is the
    // dominant error source, so it never extrapolates.
    std::uint64_t prefixWork = std::min(sp.coldPrefixWork(),
                                        out.totalWork);
    runDetailedUntil(prefixWork);
    drainPipeline();
    CoreStats cold = stats_;
    out.prefixWork = cold.committedWork;

    // Post-prefix plan from the phase clustering: always measure the
    // first two chunks of every cluster, then adaptively keep
    // measuring later occurrences of any cluster whose error
    // contribution still exceeds the target. Weight by cluster work.
    struct ClusterAgg
    {
        CoreStats meas;                 ///< summed measurement deltas
        std::uint64_t work = 0;         ///< cluster work to represent
        std::vector<double> ipcs;

        double
        mean() const
        {
            double s = 0;
            for (double x : ipcs)
                s += x;
            return ipcs.empty() ? 0 : s / static_cast<double>(
                                              ipcs.size());
        }

        /** Relative 95% CI of the cluster's mean interval IPC. */
        double
        relCi() const
        {
            if (ipcs.size() < 2)
                return 0;
            double m = mean();
            if (m <= 0)
                return 0;
            double var = 0;
            for (double x : ipcs)
                var += (x - m) * (x - m);
            var /= static_cast<double>(ipcs.size() - 1);
            return 1.96 *
                std::sqrt(var / static_cast<double>(ipcs.size())) / m;
        }
    };
    std::vector<ClusterAgg> agg(sum.clusters);
    std::vector<std::vector<const SampleChunk *>> occ(sum.clusters);
    std::uint64_t postWork = 0;
    for (const SampleChunk &ch : sum.chunks) {
        // Weigh only the work the exact prefix did not already cover:
        // the drain overshoots prefixWork by up to a windowful, and
        // that overshoot is in `cold`, so extrapolating it again would
        // double-count it.
        std::uint64_t effStart = std::max(ch.start, cold.committedWork);
        std::uint64_t end = ch.start +
            std::min(ch.work, out.totalWork > ch.start
                                  ? out.totalWork - ch.start : 0);
        if (end <= effStart)
            continue;
        agg[ch.cluster].work += end - effStart;
        postWork += end - effStart;
        if (ch.start >= cold.committedWork &&
            ch.start + sp.interval <= out.totalWork)
            occ[ch.cluster].push_back(&ch);
    }
    // Base plan: quantile-spread occurrences of every cluster, so a
    // performance trend inside a code-identical cluster (queue
    // pressure building up, predictors still training) is sampled
    // across its whole extent, not just at its start. Membership is
    // marked per chunk index (chunks live contiguously in sum.chunks).
    std::vector<std::uint8_t> baseMark(sum.chunks.size(), 0);
    auto chunkIdxOf = [&](const SampleChunk *c) {
        return static_cast<std::size_t>(c - sum.chunks.data());
    };
    // Occurrence rank of every chunk within its cluster, for the
    // stratified refinement below.
    std::vector<std::size_t> occIdxOf(sum.chunks.size(), 0);
    for (const auto &o : occ) {
        for (std::size_t i = 0; i < o.size(); ++i)
            occIdxOf[chunkIdxOf(o[i])] = i;
        std::size_t m = o.size();
        if (m <= 3) {
            for (const SampleChunk *c : o)
                baseMark[chunkIdxOf(c)] = 1;
        } else {
            for (std::size_t q : {std::size_t(0), m / 2, m - 1})
                baseMark[chunkIdxOf(o[q])] = 1;
        }
    }
    constexpr std::size_t maxPerCluster = 24;
    // Stratified refinement: the oracle only moves forward, so
    // CI-driven extra samples taken in stream order would all land
    // right after the prefix — and a long-lived cluster with a
    // performance trend (predictors and caches still training over
    // hundreds of chunks, the rtr signature) would be estimated from
    // its transient head alone. Spacing eligible occurrences a
    // cluster-extent/maxPerCluster stride apart spreads the same
    // sample budget across the whole extent. Clusters with fewer
    // occurrences than the cap get stride 1: short (tier-1) runs keep
    // the previous plan.
    std::vector<std::size_t> stride(sum.clusters, 1);
    std::vector<std::size_t> nextEligible(sum.clusters, 0);
    for (std::uint32_t c = 0; c < sum.clusters; ++c) {
        if (occ[c].size() > maxPerCluster)
            stride[c] = occ[c].size() / maxPerCluster;
    }
    std::uint64_t dutyBudget = static_cast<std::uint64_t>(
        sp.maxDuty * static_cast<double>(out.totalWork));
    auto shouldMeasure = [&](const SampleChunk *c, bool *wholeChunk) {
        const ClusterAgg &a = agg[c->cluster];
        std::size_t oi = occIdxOf[chunkIdxOf(c)];
        auto take = [&](bool yes) {
            if (yes) {
                nextEligible[c->cluster] =
                    std::max(nextEligible[c->cluster],
                             oi + stride[c->cluster]);
            }
            return yes;
        };
        if (a.ipcs.empty())
            return take(true);   // every cluster is covered once
        double share = static_cast<double>(a.work) /
            static_cast<double>(postWork ? postWork : 1);
        if (stats_.committedWork >= dutyBudget) {
            // Over budget, only gross non-convergence keeps sampling:
            // a cheap estimate is worthless if its bound is huge. Such
            // a cluster gets the whole chunk, not another floored
            // span — its variance already survived the normal
            // refinement budget, so the last samples must average the
            // chunk's full intra-phase swing instead of re-reading a
            // fraction of it.
            bool yes = sp.targetCi > 0 &&
                a.ipcs.size() < maxPerCluster &&
                oi >= nextEligible[c->cluster] &&
                a.relCi() * share > 5 * sp.targetCi;
            *wholeChunk = yes;
            return take(yes);
        }
        if (baseMark[chunkIdxOf(c)])
            return take(true);
        if (oi < nextEligible[c->cluster])
            return false;
        if (a.ipcs.size() < 2)
            return take(true);
        if (sp.targetCi <= 0 || a.ipcs.size() >= maxPerCluster)
            return false;
        // Extent-coverage guard (salted placement only): a tiny CI
        // computed from samples confined to the head of a long
        // cluster extent is not evidence about its tail. reed@long
        // turns on store-set serialization mid-run; when the salted
        // offsets happen to dodge the head's hiccup intervals, the
        // first two samples agree to 0.4%, the CI gate stops
        // refinement at the head, and the quantile samples that DO
        // land past the onset read an untrained (rosy) pipeline
        // because the onset is discovered at detailed-work rate. The
        // grid-aligned plan only escaped by luck — its head samples
        // disagreed enough to keep the stride march going. So under a
        // salt, keep marching until the measured occurrences span
        // half the extent; only then is the CI an honest summary of
        // the cluster.
        if (sp.phaseSalt && stride[c->cluster] > 1 &&
            nextEligible[c->cluster] * 2 < occ[c->cluster].size())
            return take(true);
        return take(a.relCi() * share > sp.targetCi / 2);
    };

    // Settled-measurement sizing (see the measurement loop): the
    // first interval-worth of work after warmup is discarded as
    // settling and the measurement averages the following
    // sub-intervals. The measured span is floored at ~6k work
    // regardless of the interval size: sub-6k contiguous windows
    // alias against multi-thousand-work rate oscillations and read a
    // systematic 2-4% bias on several M-scale kernels (adpcm.dec,
    // dijkstra, g721.enc — measured in docs/EXPERIMENTS.md) that no
    // amount of warmup or settling removes, while ~6k windows average
    // a whole oscillation.
    constexpr std::uint64_t minMeasuredSpan = 6000;
    const int measureSubs = static_cast<int>(
        std::max<std::uint64_t>(
            3, (minMeasuredSpan + sp.interval - 1) / sp.interval));

    double lastIpc = cold.ipc();   // virtual-clock fast-forward rate
    for (const SampleChunk &chunk : sum.chunks) {
        const SampleChunk *ch = &chunk;
        if (ch->start < cold.committedWork ||
            ch->start + sp.interval > out.totalWork)
            continue;
        if (emu.halted())
            break;
        // Chunks the prefix/drain (or a previous measurement's settle
        // span) already covered are discarded before the plan is
        // consulted: shouldMeasure ratchets per-cluster eligibility,
        // and a chunk that cannot be measured must not burn a stride
        // of its cluster's refinement budget.
        std::uint64_t p = emu.dynWork();
        if (ch->start <= p)
            continue;
        bool wholeChunk = false;
        if (!shouldMeasure(ch, &wholeChunk))
            continue;
        // Measurement placement and extent inside the chunk. A
        // whole-chunk measurement sizes its sub-intervals to cover the
        // chunk. Otherwise, a phase-salted run starts the measured
        // span at a deterministic per-chunk offset instead of always
        // at the chunk start: period-aligned placement samples one
        // fixed phase of any rate oscillation commensurate with the
        // period (the huge-tier jpeg.dct alias). Salt zero keeps the
        // legacy grid-aligned placement bit-exactly.
        //
        // The salt dithers what is *measured*, not what is *executed*:
        // detailed (unmeasured) execution still begins at the chunk
        // start (see warmStart below), so the offset gap runs through
        // the cycle-accurate core instead of being fast-forwarded.
        // One-shot microarchitectural events discovered at
        // detailed-work rate — reed@long's store-set serialization
        // onset is a single violation that flips the rest of the run
        // from IPC 4.9 to 2.65 — land inside the grid span, and a
        // salt that shifted the detailed region past one would
        // silently un-discover it (measured: 72% IPC error at a 1%
        // CI). Keeping the detailed region a superset of the legacy
        // grid span makes event discovery salt-independent; only the
        // phase of the measured window moves.
        int subs = measureSubs;
        std::uint64_t off = 0;
        if (wholeChunk) {
            std::uint64_t ivals = ch->work / sp.interval;
            if (ivals > static_cast<std::uint64_t>(subs) + 1)
                subs = static_cast<int>(ivals - 1);
        } else if (sp.phaseSalt) {
            std::uint64_t span =
                (static_cast<std::uint64_t>(measureSubs) + 1) *
                sp.interval;
            std::uint64_t maxO = ch->work > span ? ch->work - span : 0;
            if (maxO) {
                std::uint64_t h = fnv1a64(&ch->start, sizeof(ch->start),
                                          sp.phaseSalt);
                off = h % (maxO + 1);
            }
        }
        const std::uint64_t mstart = ch->start + off;
        // Fast-forward to the measurement, warming through every
        // skipped instruction. Warmup is anchored at the chunk start,
        // not the salted measurement start: the offset gap is covered
        // by detailed execution (see above), and warm-store records —
        // keyed and serialized at ch->start − warmup — stay valid for
        // every salt.
        std::uint64_t warmStart = ch->start > sp.warmup
            ? ch->start - sp.warmup : 0;
        if (warmStart > p) {
            // Restore-warm fast path: a stored record at this chunk's
            // start (same binary, config, position, and seed
            // generation) is bit-for-bit the state warming through
            // this gap would compute — restore it and skip the
            // functional re-execution entirely. Misses (and corrupt
            // or incompatible records, rejected by tryRestoreWarm)
            // fall through to warming and write back the result.
            bool restored = false;
            if (warmStore &&
                warmStore->loadWarm(ch->start, seedHash, wsBytes) &&
                tryRestoreWarm(wsBytes)) {
                restored = true;
                ++out.ckptRestores;
            }
            if (!restored) {
                // Emulate the whole gap with warming so cumulative
                // cache/predictor state survives (footprint-bound
                // kernels).
                fastForward(warmStart, sp.ffWarm > 0, lastIpc);
                if (warmStore && !emu.halted()) {
                    wsRecord.clear();
                    serializeWarm(wsRecord);
                    warmStore->storeWarm(ch->start, seedHash,
                                         wsRecord.data());
                    ++out.ckptWritebacks;
                }
            }
            stats_.cycles = now;   // virtual advances stay unmeasured
        }
        out.ffWork = emu.dynWork() - stats_.committedWork;
        if (emu.halted())
            break;

        // Detailed (unmeasured) warmup up to the measurement start:
        // refills the pipeline and restores queue back-pressure
        // equilibrium.
        std::uint64_t q = emu.dynWork();
        if (mstart > q)
            runDetailedUntil(stats_.committedWork + (mstart - q));

        // Settled measurement: a drained-then-refilled pipeline can run
        // well above its congested steady state for a while (the
        // window fills slowly when the free register list is the
        // binding resource), so the first interval-worth of work after
        // warmup is discarded as settling and the measurement averages
        // the following sub-intervals (sized above) — no convergence
        // test, because stopping "when two subs agree" preferentially
        // stops on plateaus of oscillating kernels and biases the
        // sample.
        // Sub-interval targets never cross the work cap: a capped run
        // must estimate the capped run, not work beyond it.
        auto boundedTarget = [&]() {
            std::uint64_t cap = out.totalWork - out.ffWork;
            return std::min(stats_.committedWork + sp.interval, cap);
        };
        runDetailedUntil(boundedTarget());
        CoreStats delta;
        for (int s = 0; s < subs && !oracleDone; ++s) {
            if (stats_.committedWork >= out.totalWork - out.ffWork)
                break;
            CoreStats b = stats_;
            runDetailedUntil(boundedTarget());
            delta += stats_ - b;
        }
        if (delta.committedWork && delta.cycles) {
            ClusterAgg &a = agg[ch->cluster];
            a.meas += delta;
            lastIpc = static_cast<double>(delta.committedWork) /
                static_cast<double>(delta.cycles);
            a.ipcs.push_back(lastIpc);
        }
        drainPipeline();
    }

    // Exact prefix plus per-cluster ratio extrapolation. Clusters that
    // went unmeasured (halt mid-plan, work cap) fall back to the
    // pooled rates of everything that was measured.
    CoreStats pooled;
    std::uint32_t intervals = 0;
    for (const ClusterAgg &a : agg) {
        pooled += a.meas;
        intervals += static_cast<std::uint32_t>(a.ipcs.size());
    }
    out.measuredWork = cold.committedWork + pooled.committedWork;
    out.measuredCycles = cold.cycles + pooled.cycles;
    out.detailedWork = stats_.committedWork;
    out.intervals = intervals + 1;

    if (out.totalWork <= cold.committedWork) {
        out.est = cold;           // the prefix covered the whole run
        out.exact = true;
        out.ipcHat = out.est.ipc();
        return out;
    }
    if (pooled.committedWork == 0 || pooled.cycles == 0) {
        // Nothing sampled beyond the prefix: extrapolate from it.
        out.est = cold.scaled(static_cast<double>(out.totalWork) /
                              static_cast<double>(cold.committedWork));
        out.est.committedWork = out.totalWork;
        out.ipcHat = out.est.ipc();
        return out;
    }

    out.est = cold;
    std::uint64_t fallbackWork = 0;
    for (const ClusterAgg &a : agg) {
        if (!a.work)
            continue;
        if (!a.meas.committedWork) {
            fallbackWork += a.work;
            continue;
        }
        out.est += a.meas.scaled(static_cast<double>(a.work) /
                                 static_cast<double>(
                                     a.meas.committedWork));
    }
    if (fallbackWork)
        out.est += pooled.scaled(static_cast<double>(fallbackWork) /
                                 static_cast<double>(
                                     pooled.committedWork));
    out.est.committedWork = out.totalWork;   // known, not estimated
    out.ipcHat = out.est.ipc();

    // Error bound: within-cluster spread of the repeated measurements,
    // weighted by each cluster's share of the estimated cycles (the
    // exact prefix contributes none).
    double var = 0;
    double estCycles =
        static_cast<double>(out.est.cycles ? out.est.cycles : 1);
    for (const ClusterAgg &a : agg) {
        if (a.ipcs.size() < 2 || !a.meas.committedWork)
            continue;
        double rel = a.relCi();
        double share = static_cast<double>(a.work) /
            static_cast<double>(a.meas.committedWork) *
            static_cast<double>(a.meas.cycles) / estCycles;
        var += (rel * share) * (rel * share);
    }
    out.ipcRelCi95 = std::sqrt(var);
    return out;
}

} // namespace mg
