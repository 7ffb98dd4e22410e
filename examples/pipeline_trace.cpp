/**
 * @file
 * Figure 3 reproduction: the life cycle of mini-graph 12 executing as
 * one handle versus as three singleton instructions, shown as the
 * per-stage slot and resource consumption of both machines on a
 * micro-program that executes exactly that code.
 */

#include <cstdio>

#include "assembler/assembler.hh"
#include "common/logging.hh"
#include "sim/simulator.hh"

using namespace mg;

namespace {

/**
 * Time one machine through the simulator's single-cell primitive: a
 * pre-built PreparedMg (here hand-assembled rather than selected)
 * plugs straight into the same runCell the experiment engine uses.
 */
CoreStats
runIt(const Program &p, const MgTable *t, const char *label)
{
    SimConfig cfg;
    PreparedMg prep;
    if (t) {
        cfg.useMiniGraphs = true;
        cfg.core.enableMiniGraphs();
        prep.program = p;
        prep.table = *t;
    }
    CoreStats st = runCell(p, t ? &prep : nullptr, cfg, nullptr);
    printf("%-22s cycles=%-6llu slots=%-6llu work=%-6llu ipc=%.3f\n",
           label, static_cast<unsigned long long>(st.cycles),
           static_cast<unsigned long long>(st.committedSlots),
           static_cast<unsigned long long>(st.committedWork), st.ipc());
    return st;
}

} // namespace

int
main()
{
    // Mini-graph 12 of the paper: addl r18,2,r18 ; cmplt r18,r5,r7 ;
    // bne r7. As in Figure 3, the singleton machine spends three slots
    // of every stage; the handle machine spends one.
    Program singles = assemble(R"(
        .text
main:
        li   r5, 100000
        li   r16, 20000
loop:
        addl r18, 2, r18
        cmplt r18, r5, r7
        bne  r7, next
next:
        subq r16, 1, r16
        bgt  r16, loop
        halt
    )", "singles");

    // Hand-built MGT row 12 (the paper's logical contents).
    MgTemplate t;
    t.insns.push_back({Op::ADDL, {OpndKind::E0, -1},
                       {OpndKind::Imm, -1}, 2, true});
    t.insns.push_back({Op::CMPLT, {OpndKind::M, 0},
                       {OpndKind::E1, -1}, 0, false});
    t.insns.push_back({Op::BNE, {OpndKind::M, 1},
                       {OpndKind::Imm, -1}, 4, false});
    t.outIdx = 0;
    t.finalize(MgtMachine{});
    MgTable table;
    MgId id = table.add(t);

    printf("MGT contents (Figure 2 logical row 12):\n%s\n",
           table.str().c_str());
    printf("  LAT=%d: the output (addl result) is ready one cycle in\n"
           "  totalLat=%d: the sequencer walks three banks\n\n",
           table.at(id).hdr.lat, table.at(id).hdr.totalLat);

    Program handles = assemble(strfmt(R"(
        .text
main:
        li   r5, 100000
        li   r16, 20000
loop:
        mg   r18, r5, r18, %d
        subq r16, 1, r16
        bgt  r16, loop
        halt
    )", id), "handles");

    printf("Figure 3(b): executing as three singletons\n");
    CoreStats b = runIt(singles, nullptr, "  singleton machine");
    printf("\nFigure 3(a): executing as one handle\n");
    CoreStats a = runIt(handles, &table, "  mini-graph machine");

    printf("\nper mini-graph: %d fetch/rename/issue/commit slots -> 1,"
           "\n2 register writes -> 1, 3 window entries -> 1\n",
           3);
    printf("slot amplification observed: %.2fx\n",
           static_cast<double>(b.committedSlots) /
               static_cast<double>(a.committedSlots));
    return 0;
}
