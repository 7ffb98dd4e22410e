#include "engine/fingerprint.hh"

#include "common/logging.hh"

namespace mg {

Fingerprint &
Fingerprint::add(const char *tag, std::uint64_t v)
{
    text += strfmt("%s=%llu;", tag, static_cast<unsigned long long>(v));
    return *this;
}

Fingerprint &
Fingerprint::add(const char *tag, int v)
{
    text += strfmt("%s=%d;", tag, v);
    return *this;
}

Fingerprint &
Fingerprint::add(const char *tag, bool v)
{
    text += strfmt("%s=%c;", tag, v ? '1' : '0');
    return *this;
}

Fingerprint &
Fingerprint::add(const char *tag, const std::string &v)
{
    text += strfmt("%s=%s;", tag, v.c_str());
    return *this;
}

namespace {

void
addPolicy(Fingerprint &fp, const SelectionPolicy &p)
{
    fp.add("maxSize", p.maxSize)
        .add("maxTemplates", p.maxTemplates)
        .add("mem", p.allowMemory)
        .add("extSer", p.allowExternallySerial)
        .add("intSer", p.allowInternallySerial)
        .add("intLd", p.allowInteriorLoads);
}

void
addMachine(Fingerprint &fp, const MgtMachine &m)
{
    fp.add("loadLat", m.loadLat)
        .add("aluPipes", m.useAluPipes)
        .add("collapse", m.collapsing)
        .add("pipeDepth", m.aluPipeDepth);
}

void
addCache(Fingerprint &fp, const char *tag, const CacheGeometry &g)
{
    fp.add(tag, strfmt("%u/%u/%u", g.sizeBytes, g.assoc, g.lineBytes));
}

void
addCore(Fingerprint &fp, const CoreConfig &c)
{
    fp.add("fw", c.fetchWidth)
        .add("rw", c.renameWidth)
        .add("iw", c.issueWidth)
        .add("cw", c.commitWidth)
        .add("rob", c.robSize)
        .add("iq", c.iqSize)
        .add("lsq", c.lsqSize)
        .add("pregs", c.physRegs)
        .add("fq", c.fetchQueueSize)
        .add("fdepth", c.frontendDepth)
        .add("rdlat", c.regReadLat)
        .add("sched", c.schedulerCycles)
        .add("misf", c.misfetchPenalty)
        .add("bypass", c.bypassWindow)
        .add("alus", c.fu.intAlus)
        .add("apipes", c.fu.aluPipes)
        .add("apdepth", c.fu.aluPipeDepth)
        .add("fpu", c.fu.fpUnits)
        .add("ldp", c.fu.loadPorts)
        .add("stp", c.fu.storePorts)
        .add("fuiw", c.fu.issueWidth)
        .add("rrp", c.fu.regReadPorts)
        .add("rwp", c.fu.regWritePorts)
        .add("mg", c.mgEnabled)
        .add("sw", c.slidingWindow)
        .add("seqs", c.sequencers)
        .add("imh", c.maxIntMemHandlesPerCycle);
    addCache(fp, "l1i", c.mem.l1i);
    addCache(fp, "l1d", c.mem.l1d);
    addCache(fp, "l2", c.mem.l2);
    fp.add("l1iLat", static_cast<std::uint64_t>(c.mem.l1iLat))
        .add("l1dLat", static_cast<std::uint64_t>(c.mem.l1dLat))
        .add("l2Lat", static_cast<std::uint64_t>(c.mem.l2Lat))
        .add("memLat", static_cast<std::uint64_t>(c.mem.memLat))
        .add("busB", static_cast<std::uint64_t>(c.mem.busBytes))
        .add("busR", static_cast<std::uint64_t>(c.mem.busCycleRatio))
        .add("bim", static_cast<std::uint64_t>(c.bp.bimodalEntries))
        .add("gsh", static_cast<std::uint64_t>(c.bp.gshareEntries))
        .add("cho", static_cast<std::uint64_t>(c.bp.chooserEntries))
        .add("hist", static_cast<std::uint64_t>(c.bp.historyBits))
        .add("btb", static_cast<std::uint64_t>(c.bp.btbEntries))
        .add("btbA", static_cast<std::uint64_t>(c.bp.btbAssoc))
        .add("ras", static_cast<std::uint64_t>(c.bp.rasEntries))
        .add("ssit", static_cast<std::uint64_t>(c.ss.ssitEntries))
        .add("lfst", static_cast<std::uint64_t>(c.ss.lfstEntries))
        .add("ssclr", c.ss.clearInterval);
}

void
addSampling(Fingerprint &fp, const SamplingParams &s)
{
    fp.add("sInt", s.interval)
        .add("sPer", s.period)
        .add("sWup", s.warmup)
        .add("sFfw", s.ffWarm)
        .add("sPre", s.prefix)
        .add("sCi", static_cast<std::uint64_t>(s.targetCi * 1e6))
        .add("sDuty", static_cast<std::uint64_t>(s.maxDuty * 1e6))
        .add("sShad", s.ssShadow)
        // Fixed token of the deleted fast-forward mode switch, kept so
        // keys (and the phase salt hashed from them) match
        // byte-for-byte.
        .add("sWt", true);
}

} // namespace

std::string
profileFingerprint(const std::string &workload, std::uint64_t budget)
{
    Fingerprint fp;
    fp.add("prof", workload).add("budget", budget);
    return fp.str();
}

std::string
prepareFingerprint(const std::string &profileFp,
                   const SelectionPolicy &policy, const MgtMachine &machine,
                   bool compress)
{
    Fingerprint fp;
    fp.add("prep", profileFp);
    addPolicy(fp, policy);
    addMachine(fp, machine);
    fp.add("compress", compress);
    return fp.str();
}

std::string
cellFingerprint(const std::string &workload, const SimConfig &cfg)
{
    Fingerprint fp;
    fp.add("cell", workload)
        .add("useMg", cfg.useMiniGraphs)
        .add("runBudget", cfg.runBudget);
    addCore(fp, cfg.core);
    if (cfg.useMiniGraphs) {
        fp.add("profBudget", cfg.profileBudget)
            .add("compress", cfg.compress);
        addPolicy(fp, cfg.policy);
        addMachine(fp, cfg.machine);
    }
    // Gated so full-simulation keys match the pre-sampling engine
    // byte-for-byte.
    if (cfg.sampling.enabled) {
        fp.add("sampled", true);
        addSampling(fp, cfg.sampling);
    }
    // Gated for the same reason: analyzer-less keys match the
    // pre-critpath engine byte-for-byte.
    if (cfg.critpath) {
        fp.add("critpath", true)
            .add("cpDepth", cfg.traceDepth)
            .add("cpWhatIf", cfg.whatIf);
    }
    return fp.str();
}

std::string
summaryFingerprint(const std::string &variant, const SamplingParams &sp,
                   std::uint64_t runBudget)
{
    Fingerprint fp;
    fp.add("summary", variant).add("runBudget", runBudget);
    addSampling(fp, sp);
    return fp.str();
}

} // namespace mg
