#include "sim/report.hh"

#include <cstdio>
#include <map>

#include "common/logging.hh"

namespace mg {

const char *
cellOutcomeName(CellOutcome o)
{
    switch (o) {
      case CellOutcome::Ok: return "ok";
      case CellOutcome::Failed: return "failed";
      case CellOutcome::TimedOut: return "timed_out";
    }
    return "unknown";
}

std::string
reportSpeedups(const std::string &title,
               const std::vector<std::string> &configs,
               const std::vector<BenchRow> &rows,
               const std::vector<std::string> &extraCols)
{
    std::string out = "== " + title + " ==\n";
    TextTable t;
    std::vector<std::string> hdr = {"suite", "bench", "base-IPC"};
    for (const auto &c : configs)
        hdr.push_back(c);
    for (const auto &e : extraCols)
        hdr.push_back(e);
    t.header(hdr);

    // Group rows by suite preserving first-seen order.
    std::vector<std::string> suiteOrder;
    std::map<std::string, std::vector<const BenchRow *>> bySuite;
    for (const BenchRow &r : rows) {
        if (!bySuite.count(r.suite))
            suiteOrder.push_back(r.suite);
        bySuite[r.suite].push_back(&r);
    }

    for (const std::string &s : suiteOrder) {
        std::vector<std::vector<double>> colVals(configs.size());
        for (const BenchRow *r : bySuite[s]) {
            std::vector<std::string> cells = {r->suite, r->bench,
                                              fmtDouble(r->baselineIpc, 3)};
            for (size_t c = 0; c < configs.size(); ++c) {
                double v = c < r->speedups.size() ? r->speedups[c] : 0.0;
                cells.push_back(fmtDouble(v, 3));
                if (v > 0)
                    colVals[c].push_back(v);
            }
            for (size_t e = 0; e < extraCols.size(); ++e)
                cells.push_back(e < r->extra.size()
                                ? fmtDouble(r->extra[e], 3) : "-");
            t.row(cells);
        }
        std::vector<std::string> mean = {s, "gmean", ""};
        for (size_t c = 0; c < configs.size(); ++c)
            mean.push_back(fmtDouble(gmean(colVals[c]), 3));
        for (size_t e = 0; e < extraCols.size(); ++e)
            mean.push_back("");
        t.row(mean);
    }
    out += t.str();
    return out;
}

const SweepCell &
SweepResult::at(std::size_t row, std::size_t col) const
{
    return cells[row * columns.size() + col];
}

double
SweepResult::speedup(std::size_t row, std::size_t col, int ref) const
{
    if (ref < 0 && col < columnBaseline.size())
        ref = columnBaseline[col];
    if (ref < 0)
        ref = baselineColumn;
    if (ref < 0)
        return 0.0;
    const SweepCell &c = at(row, col);
    const SweepCell &r = at(row, static_cast<std::size_t>(ref));
    if (!c.timed || !r.timed || r.stats.ipc() <= 0)
        return 0.0;
    return c.stats.ipc() / r.stats.ipc();
}

std::vector<BenchRow>
benchRows(const SweepResult &r)
{
    std::vector<BenchRow> out;
    for (std::size_t row = 0; row < r.rows.size(); ++row) {
        BenchRow br;
        br.bench = r.rows[row];
        br.suite = r.suites[row];
        if (r.baselineColumn >= 0) {
            br.baselineIpc =
                r.at(row, static_cast<std::size_t>(r.baselineColumn))
                    .stats.ipc();
        }
        for (std::size_t col = 0; col < r.columns.size(); ++col) {
            if (static_cast<int>(col) == r.baselineColumn)
                continue;
            br.speedups.push_back(r.speedup(row, col));
        }
        out.push_back(std::move(br));
    }
    return out;
}

std::vector<std::string>
speedupColumns(const SweepResult &r)
{
    std::vector<std::string> out;
    for (std::size_t col = 0; col < r.columns.size(); ++col) {
        if (static_cast<int>(col) != r.baselineColumn)
            out.push_back(r.columns[col]);
    }
    return out;
}

std::string
sweepTable(const SweepResult &r)
{
    return reportSpeedups(r.title, speedupColumns(r), benchRows(r));
}

std::string
throughputTable(const SweepResult &r)
{
    TextTable t;
    std::vector<std::string> hdr = {"suite"};
    for (const auto &c : r.columns)
        hdr.push_back(c + " Mw/s");
    t.header(hdr);

    // Per-suite geomean work/s per column, suites in first-seen order.
    std::vector<std::string> suiteOrder;
    std::map<std::string, std::vector<std::size_t>> rowsOf;
    for (std::size_t row = 0; row < r.rows.size(); ++row) {
        if (!rowsOf.count(r.suites[row]))
            suiteOrder.push_back(r.suites[row]);
        rowsOf[r.suites[row]].push_back(row);
    }
    double totalSec = 0;
    for (const std::string &s : suiteOrder) {
        std::vector<std::string> cells = {s};
        for (std::size_t col = 0; col < r.columns.size(); ++col) {
            std::vector<double> v;
            for (std::size_t row : rowsOf[s]) {
                const SweepCell &c = r.at(row, col);
                if (c.timed && c.workPerSec > 0)
                    v.push_back(c.workPerSec / 1e6);
            }
            cells.push_back(v.empty() ? "-" : fmtDouble(gmean(v), 2));
        }
        t.row(cells);
    }
    for (const SweepCell &c : r.cells)
        totalSec += c.wallSeconds;
    return "== simulator throughput (committed Mwork/s per cell) ==\n" +
        t.str() +
        strfmt("total cell compute: %.2fs\n", totalSec);
}

namespace {

/** Minimal JSON string escape (names here are plain identifiers). */
std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
jsonNum(double v, int prec = 6)
{
    return strfmt("%.*f", prec, v);
}

} // namespace

std::string
sweepJson(const SweepResult &r, const std::string &bench)
{
    std::string out = "{\n";
    out += "  \"bench\": " + jsonStr(bench) + ",\n";
    out += "  \"title\": " + jsonStr(r.title) + ",\n";
    out += "  \"columns\": [";
    for (std::size_t c = 0; c < r.columns.size(); ++c)
        out += (c ? ", " : "") + jsonStr(r.columns[c]);
    out += "],\n";
    out += strfmt("  \"baseline_column\": %d,\n", r.baselineColumn);
    // Store activity only when a store was attached: store-less
    // reports stay byte-identical to older engines.
    if (r.storeAttached) {
        out += strfmt("  \"checkpoint_store\": {\"hits\": %llu, "
                      "\"misses\": %llu, \"writebacks\": %llu, "
                      "\"corrupt\": %llu},\n",
                      static_cast<unsigned long long>(r.storeHits),
                      static_cast<unsigned long long>(r.storeMisses),
                      static_cast<unsigned long long>(r.storeWritebacks),
                      static_cast<unsigned long long>(r.storeCorrupt));
    }
    // Journal block only when one was attached, and only its
    // resume-invariant total — a resumed run and an uninterrupted run
    // must produce byte-identical reports.
    if (r.journalAttached) {
        out += strfmt("  \"journal\": {\"recorded\": %llu},\n",
                      static_cast<unsigned long long>(r.journalRecorded));
    }
    out += "  \"cells\": [\n";
    for (std::size_t row = 0; row < r.rows.size(); ++row) {
        for (std::size_t col = 0; col < r.columns.size(); ++col) {
            const SweepCell &c = r.at(row, col);
            std::string rec = "    {\"kernel\": " + jsonStr(r.rows[row]) +
                              ", \"suite\": " + jsonStr(r.suites[row]) +
                              ", \"config\": " + jsonStr(r.columns[col]);
            if (c.timed) {
                rec += ", \"ipc\": " + jsonNum(c.stats.ipc());
                rec += ", \"amplification\": " +
                       jsonNum(r.speedup(row, col));
                rec += strfmt(", \"cycles\": %llu, \"work\": %llu",
                              static_cast<unsigned long long>(
                                  c.stats.cycles),
                              static_cast<unsigned long long>(
                                  c.stats.committedWork));
                rec += ", \"dynamic_coverage\": " +
                       jsonNum(c.stats.dynamicCoverage());
                // Sampling metadata only for sampled cells, so full
                // runs stay byte-identical to the pre-sampling engine.
                if (c.sampledRun) {
                    rec += strfmt(", \"sampled\": true, "
                                  "\"intervals\": %u, "
                                  "\"measured_work\": %llu, "
                                  "\"ff_work\": %llu",
                                  c.sampled.intervals,
                                  static_cast<unsigned long long>(
                                      c.sampled.measuredWork),
                                  static_cast<unsigned long long>(
                                      c.sampled.ffWork));
                    rec += ", \"ipc_ci95_rel\": " +
                           jsonNum(c.sampled.ipcRelCi95);
                }
                // Critical-path block only when the cell ran the
                // analyzer (--critpath), so clean-config reports stay
                // byte-identical to analyzer-less engines.
                if (c.critpath.present) {
                    const CritPathSummary &cp = c.critpath;
                    rec += strfmt(", \"critpath\": {"
                                  "\"traced_slots\": %llu, "
                                  "\"traced_work\": %llu, "
                                  "\"actual_cycles\": %llu, "
                                  "\"modeled_cycles\": %llu",
                                  static_cast<unsigned long long>(
                                      cp.tracedSlots),
                                  static_cast<unsigned long long>(
                                      cp.tracedWork),
                                  static_cast<unsigned long long>(
                                      cp.actualCycles),
                                  static_cast<unsigned long long>(
                                      cp.modeledCycles));
                    if (cp.traceWrapped)
                        rec += ", \"trace_wrapped\": true";
                    rec += ", \"breakdown\": {";
                    for (int cat = 0; cat < cpCatCount; ++cat) {
                        rec += strfmt("%s\"%s\": %llu", cat ? ", " : "",
                                      cpCatName(
                                          static_cast<CpCat>(cat)),
                                      static_cast<unsigned long long>(
                                          cp.breakdown[cat]));
                    }
                    rec += "}";
                    if (!cp.whatIf.empty()) {
                        rec += ", \"whatif\": " + jsonStr(cp.whatIf);
                        rec += strfmt(", \"whatif_cycles\": %llu",
                                      static_cast<unsigned long long>(
                                          cp.whatIfCycles));
                    }
                    if (!cp.error.empty())
                        rec += ", \"error\": " + jsonStr(cp.error);
                    rec += "}";
                }
                // Throughput only on request: wall-clock is
                // nondeterministic, and default reports must stay
                // byte-comparable run to run (and to older engines).
                if (r.emitThroughput) {
                    rec += ", \"wall_seconds\": " +
                           jsonNum(c.wallSeconds);
                    rec += ", \"work_per_sec\": " +
                           jsonNum(c.workPerSec, 0);
                }
            }
            rec += ", \"coverage\": " + jsonNum(c.staticCoverage);
            rec += strfmt(", \"templates\": %llu, \"text_slots\": %llu",
                          static_cast<unsigned long long>(c.templates),
                          static_cast<unsigned long long>(c.textSlots));
            // Failure-domain fields only when non-default: every cell
            // of a fault-free sweep is Ok, and its record must stay
            // byte-identical to older engines.
            if (c.outcome != CellOutcome::Ok) {
                rec += std::string(", \"outcome\": \"") +
                       cellOutcomeName(c.outcome) + "\"";
                if (!c.error.empty())
                    rec += ", \"error\": " + jsonStr(c.error);
            }
            rec += "}";
            bool last = row + 1 == r.rows.size() &&
                        col + 1 == r.columns.size();
            out += rec + (last ? "\n" : ",\n");
        }
    }
    out += "  ]\n}\n";
    return out;
}

std::string
outcomeSummary(const SweepResult &r)
{
    std::uint64_t byOutcome[3] = {0, 0, 0};
    for (const SweepCell &c : r.cells)
        ++byOutcome[static_cast<std::size_t>(c.outcome)];
    std::uint64_t ok = byOutcome[0];
    if (ok == r.cells.size())
        return "";
    std::string out = strfmt("cell outcomes: %llu ok",
                             static_cast<unsigned long long>(ok));
    for (int o = 1; o < 3; ++o) {
        if (byOutcome[o])
            out += strfmt(", %llu %s",
                          static_cast<unsigned long long>(byOutcome[o]),
                          cellOutcomeName(static_cast<CellOutcome>(o)));
    }
    return out;
}

void
serializeSweepCell(const SweepCell &c, SerialWriter &w)
{
#define MG_W(f) w.u64(c.stats.f);
    MG_CORE_STATS_COUNTERS(MG_W)
#undef MG_W
    w.u8(c.timed ? 1 : 0);
    w.f64(c.staticCoverage);
    w.u64(c.templates);
    w.u64(c.textSlots);
    w.u8(c.sampledRun ? 1 : 0);
#define MG_W(f) w.u64(c.sampled.est.f);
    MG_CORE_STATS_COUNTERS(MG_W)
#undef MG_W
    w.u64(c.sampled.totalWork);
    w.u64(c.sampled.prefixWork);
    w.u64(c.sampled.measuredWork);
    w.u64(c.sampled.measuredCycles);
    w.u64(c.sampled.detailedWork);
    w.u64(c.sampled.ffWork);
    w.u32(c.sampled.intervals);
    w.f64(c.sampled.ipcHat);
    w.f64(c.sampled.ipcRelCi95);
    w.u8(c.sampled.exact ? 1 : 0);
    w.f64(c.wallSeconds);
    w.f64(c.workPerSec);
    w.u8(static_cast<std::uint8_t>(c.outcome));
    w.str(c.error);
    // Critical-path fields trail the record. Pre-analyzer journal
    // records are shorter and fail deserialization cleanly, which the
    // journal treats as a miss — the cell just recomputes.
    w.u8(c.critpath.present ? 1 : 0);
    if (c.critpath.present) {
        w.u64(c.critpath.tracedSlots);
        w.u64(c.critpath.tracedWork);
        w.u8(c.critpath.traceWrapped ? 1 : 0);
        w.u64(c.critpath.actualCycles);
        w.u64(c.critpath.modeledCycles);
        for (int cat = 0; cat < cpCatCount; ++cat)
            w.u64(c.critpath.breakdown[cat]);
        w.str(c.critpath.whatIf);
        w.u64(c.critpath.whatIfCycles);
        w.str(c.critpath.error);
    }
}

bool
deserializeSweepCell(SerialReader &r, SweepCell &c)
{
    c = SweepCell();
#define MG_R(f) c.stats.f = r.u64();
    MG_CORE_STATS_COUNTERS(MG_R)
#undef MG_R
    c.timed = r.u8() != 0;
    c.staticCoverage = r.f64();
    c.templates = r.u64();
    c.textSlots = r.u64();
    c.sampledRun = r.u8() != 0;
#define MG_R(f) c.sampled.est.f = r.u64();
    MG_CORE_STATS_COUNTERS(MG_R)
#undef MG_R
    c.sampled.totalWork = r.u64();
    c.sampled.prefixWork = r.u64();
    c.sampled.measuredWork = r.u64();
    c.sampled.measuredCycles = r.u64();
    c.sampled.detailedWork = r.u64();
    c.sampled.ffWork = r.u64();
    c.sampled.intervals = r.u32();
    c.sampled.ipcHat = r.f64();
    c.sampled.ipcRelCi95 = r.f64();
    c.sampled.exact = r.u8() != 0;
    c.wallSeconds = r.f64();
    c.workPerSec = r.f64();
    std::uint8_t o = r.u8();
    if (o > static_cast<std::uint8_t>(CellOutcome::TimedOut)) {
        r.fail();
        return false;
    }
    c.outcome = static_cast<CellOutcome>(o);
    c.error = r.str();
    c.critpath.present = r.u8() != 0;
    if (c.critpath.present) {
        c.critpath.tracedSlots = r.u64();
        c.critpath.tracedWork = r.u64();
        c.critpath.traceWrapped = r.u8() != 0;
        c.critpath.actualCycles = r.u64();
        c.critpath.modeledCycles = r.u64();
        for (int cat = 0; cat < cpCatCount; ++cat)
            c.critpath.breakdown[cat] = r.u64();
        c.critpath.whatIf = r.str();
        c.critpath.whatIfCycles = r.u64();
        c.critpath.error = r.str();
    }
    return r.ok();
}

std::string
writeSweepJson(const SweepResult &r, const std::string &bench,
               const std::string &path)
{
    std::string file = path.empty() ? "BENCH_" + bench + ".json" : path;
    std::string body = sweepJson(r, bench);
    FILE *f = std::fopen(file.c_str(), "w");
    if (!f) {
        warn("cannot write %s", file.c_str());
        return "";
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    return file;
}

void
finishSweep(SweepResult &r, const std::string &bench,
            const std::string &path, bool throughput, bool tables)
{
    if (tables) {
        std::printf("%s\n", throughputTable(r).c_str());
        std::string outcomes = outcomeSummary(r);
        if (!outcomes.empty())
            std::printf("%s\n", outcomes.c_str());
    }
    r.emitThroughput = throughput;
    std::string json = writeSweepJson(r, bench, path);
    if (!json.empty())
        std::printf("wrote %s\n", json.c_str());
}

} // namespace mg
