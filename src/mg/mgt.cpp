#include "mg/mgt.hh"

#include "common/logging.hh"

namespace mg {

const char *
fuKindName(FuKind fu)
{
    switch (fu) {
      case FuKind::None: return "-";
      case FuKind::IntAlu: return "ALU";
      case FuKind::IntMult: return "MUL";
      case FuKind::FpAlu: return "FP";
      case FuKind::LoadPort: return "LD";
      case FuKind::StorePort: return "ST";
      case FuKind::AluPipe: return "AP";
    }
    return "?";
}

std::string
OpndRef::str() const
{
    switch (kind) {
      case OpndKind::None: return "-";
      case OpndKind::E0: return "E0";
      case OpndKind::E1: return "E1";
      case OpndKind::M: return strfmt("M%d", m);
      case OpndKind::Imm: return "IM";
    }
    return "?";
}

PackedFubmp
packFubmp(const std::vector<FuKind> &fubmp)
{
    PackedFubmp p;
    for (size_t i = 0; i < fubmp.size(); ++i) {
        FuKind fu = fubmp[i];
        if (fu == FuKind::None)
            continue;
        int offset = static_cast<int>(i) + 1;   // FUBMP starts at cycle 1
        if (offset > p.maxOffset)
            p.maxOffset = offset;
        if (offset > 64)
            continue;   // beyond any window depth: maxOffset alone
                        // makes the conflict check reject it
        int l = fuLaneIndex(fu);
        p.lane[static_cast<size_t>(l)] |= 1ull << (offset - 1);
        p.laneSet |= static_cast<std::uint8_t>(1u << l);
    }
    return p;
}

void
MgHeader::fubmpStr(std::string &out) const
{
    if (fubmp.empty()) {
        out += '-';
        return;
    }
    // Worst case per entry: three-char mnemonic plus a separator.
    out.reserve(out.size() + 4 * fubmp.size());
    for (size_t i = 0; i < fubmp.size(); ++i) {
        out += fuKindName(fubmp[i]);
        if (i + 1 < fubmp.size())
            out += ':';
    }
}

int
MgTemplate::scanMemIdx() const
{
    for (size_t i = 0; i < insns.size(); ++i) {
        if (isLoadOp(insns[i].op) || isStoreOp(insns[i].op))
            return static_cast<int>(i);
    }
    return -1;
}

namespace {

/** Single-cycle ALU-pipeline-eligible op (includes the terminal branch,
 *  which executes on the pipeline's final control stage, Figure 2). */
bool
apEligible(Op op)
{
    return isMgAluOp(op) || isCondBranchOp(op);
}

/** Occupancy in banks of one template instruction. */
int
duration(Op op, int load_lat)
{
    if (isLoadOp(op))
        return load_lat;
    if (opClass(op) == InsnClass::IntMult)
        return opLatency(op);
    return 1;
}

} // namespace

void
MgTemplate::finalize(const MgtMachine &m)
{
    const int n = size();
    memIdx_ = scanMemIdx();
    startCycle.assign(static_cast<size_t>(n), 0);

    // Identify contiguous AP-eligible segments (broken by memory ops and
    // multiplies) and cap them at the pipeline depth.
    std::vector<int> segStart(static_cast<size_t>(n), -1);
    int cur = -1;
    int len = 0;
    int capacity = m.collapsing ? m.aluPipeDepth * 2 : m.aluPipeDepth;
    for (int i = 0; i < n; ++i) {
        if (apEligible(insns[static_cast<size_t>(i)].op)) {
            if (cur < 0 || len >= capacity) {
                cur = i;
                len = 0;
            }
            segStart[static_cast<size_t>(i)] = cur;
            ++len;
        } else {
            cur = -1;
            len = 0;
        }
    }

    // Bank schedule: one instruction per cycle in order; loads leave
    // their following banks empty. With collapsing, a pair of adjacent
    // AP-segment instructions shares a cycle.
    int cycle = 0;
    bool prevCollapsed = false;
    for (int i = 0; i < n; ++i) {
        if (i > 0) {
            const TemplateInsn &prev = insns[static_cast<size_t>(i - 1)];
            bool sameSeg = m.collapsing &&
                segStart[static_cast<size_t>(i)] >= 0 &&
                segStart[static_cast<size_t>(i)] ==
                    segStart[static_cast<size_t>(i - 1)];
            if (sameSeg && !prevCollapsed) {
                // Collapse with predecessor: share its cycle.
                prevCollapsed = true;
                startCycle[static_cast<size_t>(i)] =
                    startCycle[static_cast<size_t>(i - 1)];
                continue;
            }
            prevCollapsed = false;
            cycle = startCycle[static_cast<size_t>(i - 1)] +
                duration(prev.op, m.loadLat);
        }
        startCycle[static_cast<size_t>(i)] = cycle;
    }

    const TemplateInsn &last = insns[static_cast<size_t>(n - 1)];
    hdr.totalLat = startCycle[static_cast<size_t>(n - 1)] +
        duration(last.op, m.loadLat);
    if (outIdx >= 0) {
        hdr.lat = startCycle[static_cast<size_t>(outIdx)] +
            duration(insns[static_cast<size_t>(outIdx)].op, m.loadLat);
    } else {
        hdr.lat = hdr.totalLat;
    }

    // FU reservations. A segment reserves one ALU-pipeline entry at its
    // start and then flows down the pipe; everything else reserves its
    // unit at its own start cycle.
    auto fuOf = [&](int i) -> FuKind {
        const TemplateInsn &in = insns[static_cast<size_t>(i)];
        if (isLoadOp(in.op)) {
            hdr.hasLoad = true;
            return FuKind::LoadPort;
        }
        if (isStoreOp(in.op)) {
            hdr.hasStore = true;
            return FuKind::StorePort;
        }
        if (opClass(in.op) == InsnClass::IntMult)
            return FuKind::IntMult;
        if (isCondBranchOp(in.op))
            hdr.endsInBranch = true;
        if (segStart[static_cast<size_t>(i)] == i)
            return FuKind::AluPipe;
        if (segStart[static_cast<size_t>(i)] >= 0)
            return FuKind::None;    // rides the pipeline, no new unit
        return FuKind::IntAlu;
    };

    hdr.hasLoad = hdr.hasStore = hdr.endsInBranch = false;
    hdr.fubmp.assign(static_cast<size_t>(std::max(0, hdr.totalLat - 1)),
                     FuKind::None);
    hdr.fu0 = fuOf(0);
    for (int i = 1; i < n; ++i) {
        FuKind fu = fuOf(i);
        if (fu == FuKind::None)
            continue;
        int c = startCycle[static_cast<size_t>(i)];
        if (c == 0) {
            // Collapsed into the first cycle; the FU0 reservation covers
            // it (pair executes on the same pipeline entry stage).
            continue;
        }
        hdr.fubmp[static_cast<size_t>(c - 1)] = fu;
    }
    // A terminal branch may be the only control op; record it even when
    // it rides a pipeline segment.
    for (int i = 0; i < n; ++i) {
        if (isCondBranchOp(insns[static_cast<size_t>(i)].op))
            hdr.endsInBranch = true;
    }

    hdr.packed = packFubmp(hdr.fubmp);
}

std::string
MgTemplate::key() const
{
    std::string k = strfmt("o%d|", outIdx);
    for (const TemplateInsn &in : insns) {
        k += strfmt("%s,%s,%s,%lld,%d;", opName(in.op), in.a.str().c_str(),
                    in.b.str().c_str(), static_cast<long long>(in.imm),
                    in.useImm ? 1 : 0);
    }
    return k;
}

namespace {

std::string
templateInsnStr(const TemplateInsn &in)
{
    if (isLoadOp(in.op))
        return strfmt("%s %lld(%s)", opName(in.op),
                      static_cast<long long>(in.imm), in.a.str().c_str());
    if (isStoreOp(in.op))
        return strfmt("%s %s,%lld(%s)", opName(in.op), in.b.str().c_str(),
                      static_cast<long long>(in.imm), in.a.str().c_str());
    if (isCondBranchOp(in.op))
        return strfmt("%s %s,0x%llx", opName(in.op), in.a.str().c_str(),
                      static_cast<unsigned long long>(in.imm));
    if (in.useImm)
        return strfmt("%s %s,%lld", opName(in.op), in.a.str().c_str(),
                      static_cast<long long>(in.imm));
    return strfmt("%s %s,%s", opName(in.op), in.a.str().c_str(),
                  in.b.str().c_str());
}

} // namespace

std::string
MgTemplate::mgstStr() const
{
    // Render per-bank: empty banks (load shadows) print as "--".
    std::string out;
    int bank = 0;
    for (int i = 0; i < size(); ++i) {
        int start = startCycle[static_cast<size_t>(i)];
        while (bank < start) {
            out += "-- | ";
            ++bank;
        }
        out += templateInsnStr(insns[static_cast<size_t>(i)]);
        if (i + 1 < size() &&
            startCycle[static_cast<size_t>(i + 1)] == start) {
            out += " + ";
            continue;
        }
        if (i + 1 < size())
            out += " | ";
        ++bank;
    }
    return out;
}

MgId
MgTable::add(MgTemplate t)
{
    if (t.startCycle.size() != t.insns.size())
        panic("MgTable::add: template not finalized");
    entries.push_back(std::move(t));
    return static_cast<MgId>(entries.size() - 1);
}

void
MgTable::badId(MgId id) const
{
    panic("bad MGID %d", static_cast<int>(id));
}

std::string
MgTable::str() const
{
    std::string out = "MGID  LAT  FU0  FUBMP        MGST\n";
    std::string bmp;   // one row buffer reused across the table
    for (size_t i = 0; i < entries.size(); ++i) {
        const MgTemplate &t = entries[i];
        bmp.clear();
        t.hdr.fubmpStr(bmp);
        out += strfmt("%-4zu  %-3d  %-3s  %-11s  %s\n", i, t.hdr.lat,
                      fuKindName(t.hdr.fu0), bmp.c_str(),
                      t.mgstStr().c_str());
    }
    return out;
}

} // namespace mg
