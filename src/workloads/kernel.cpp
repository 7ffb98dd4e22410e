#include "workloads/kernel.hh"

#include <deque>
#include <map>
#include <mutex>

#include "assembler/assembler.hh"
#include "common/logging.hh"

namespace mg {

const char *
scaleName(Scale s)
{
    switch (s) {
      case Scale::Long:
        return "long";
      case Scale::Huge:
        return "huge";
      default:
        return "ref";
    }
}

Scale
parseScale(const std::string &text)
{
    if (text == "ref")
        return Scale::Ref;
    if (text == "long")
        return Scale::Long;
    if (text == "huge")
        return Scale::Huge;
    fatal("unknown scale '%s' (valid: ref, long, huge)", text.c_str());
}

void
Kernel::setupAt(Emulator &emu, int inputSet, Scale s) const
{
    if (!supports(s))
        fatal("kernel %s has no %s-scale variant", name, scaleName(s));
    setup(emu, inputSet, tier(s).size);
}

bool
Kernel::validateAt(const Emulator &emu, int inputSet, Scale s) const
{
    if (!supports(s))
        fatal("kernel %s has no %s-scale variant", name, scaleName(s));
    return validate(emu, inputSet, tier(s).size);
}

const std::vector<Kernel> &
allKernels()
{
    static const std::vector<Kernel> all = [] {
        std::vector<Kernel> v;
        for (auto &&group : {specintKernels(), mediaKernels(),
                             commKernels(), mibenchKernels()}) {
            for (const Kernel &k : group)
                v.push_back(k);
        }
        return v;
    }();
    return all;
}

const Kernel &
findKernel(const std::string &name)
{
    for (const Kernel &k : allKernels()) {
        if (name == k.name)
            return k;
    }
    // Enumerate the registry so a typo is a one-round-trip fix.
    std::string known;
    for (const std::string &suite : suiteNames()) {
        known += strfmt("\n  %s:", suite.c_str());
        for (const Kernel *k : suiteKernels(suite))
            known += strfmt(" %s", k->name);
    }
    fatal("unknown kernel '%s'; known kernels:%s", name.c_str(),
          known.c_str());
}

std::vector<const Kernel *>
suiteKernels(const std::string &suite)
{
    std::vector<const Kernel *> out;
    for (const Kernel &k : allKernels()) {
        if (suite == k.suite)
            out.push_back(&k);
    }
    return out;
}

const std::vector<std::string> &
suiteNames()
{
    static const std::vector<std::string> names = {
        "SPECint-S", "MediaBench-S", "CommBench-S", "MiBench-S",
    };
    return names;
}

std::string
kernelListing()
{
    std::string out = strfmt("%-14s %-13s %-14s %s\n", "kernel", "suite",
                             "scales", "description");
    for (const std::string &suite : suiteNames()) {
        for (const Kernel *k : suiteKernels(suite)) {
            std::string scales;
            for (Scale s : allScales) {
                if (!k->supports(s))
                    continue;
                if (!scales.empty())
                    scales += ",";
                scales += scaleName(s);
            }
            out += strfmt("%-14s %-13s %-14s %s\n", k->name, k->suite,
                          scales.c_str(), k->description);
        }
    }
    return out;
}

const Program &
kernelProgram(const Kernel &k, Scale scale)
{
    static std::map<std::string, Program> cache;
    static std::mutex lock;
    // Scales sharing one source text share one cache entry (and one
    // assembled Program): the scaled tier of an iteration-count-scaled
    // kernel runs the identical binary on bigger inputs.
    std::string key = k.name;
    if (scale != Scale::Ref && k.tier(scale).source)
        key += strfmt("@%s", scaleName(scale));
    std::lock_guard<std::mutex> g(lock);
    auto it = cache.find(key);
    if (it == cache.end())
        it = cache.emplace(key, assemble(k.sourceFor(scale), key)).first;
    return it->second;
}

const char *
scaledSource(const char *src,
             const std::vector<std::pair<std::string, std::string>> &subs)
{
    // Registration-time storage: the Kernel structs keep raw pointers.
    static std::deque<std::string> store;
    static std::mutex lock;
    std::string text = src;
    for (const auto &[from, to] : subs) {
        std::size_t first = text.find(from);
        if (first == std::string::npos)
            fatal("scaledSource: pattern '%s' not found", from.c_str());
        if (text.find(from, first + 1) != std::string::npos)
            fatal("scaledSource: pattern '%s' is ambiguous", from.c_str());
        text.replace(first, from.size(), to);
    }
    std::lock_guard<std::mutex> g(lock);
    store.push_back(std::move(text));
    return store.back().c_str();
}

} // namespace mg
