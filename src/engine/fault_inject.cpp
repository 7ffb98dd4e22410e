#include "engine/fault_inject.hh"

#include <chrono>
#include <new>
#include <thread>

#include "common/failsoft.hh"
#include "common/logging.hh"
#include "common/serial.hh"

namespace mg {

namespace {

/** Site names as they appear in spec rules. */
bool
parseSite(const std::string &s, FaultSite &out)
{
    if (s == "fail") out = FaultSite::CellFail;
    else if (s == "alloc") out = FaultSite::Alloc;
    else if (s == "stall") out = FaultSite::Stall;
    else return false;
    return true;
}

/** Uniform [0,1) from a seeded hash of @p key — the per-key arming
 *  coin. Stable across runs and platforms. */
double
keyUnit(const std::string &key, std::uint64_t seed)
{
    std::uint64_t h = fnv1a64(key.data(), key.size()) ^
        (seed * 0x9e3779b97f4a7c15ull);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<double>(h >> 11) /
        static_cast<double>(1ull << 53);
}

/** One parsed rule from `site[@match][:k=v]...`. */
FaultRule
parseRule(const std::string &text)
{
    FaultRule r;
    std::size_t cur = text.find_first_of("@:");
    std::string site = text.substr(0, cur);
    if (!parseSite(site, r.site))
        fatal("fault spec: unknown site '%s' in rule '%s'", site.c_str(),
              text.c_str());
    if (cur != std::string::npos && text[cur] == '@') {
        std::size_t end = text.find(':', cur + 1);
        r.match = text.substr(cur + 1,
                              end == std::string::npos ? std::string::npos
                                                       : end - cur - 1);
        cur = end;
    }
    while (cur != std::string::npos) {
        std::size_t end = text.find(':', cur + 1);
        std::string opt = text.substr(cur + 1,
                                      end == std::string::npos
                                          ? std::string::npos
                                          : end - cur - 1);
        std::size_t eq = opt.find('=');
        if (eq == std::string::npos)
            fatal("fault spec: malformed option '%s' in rule '%s'",
                  opt.c_str(), text.c_str());
        std::string k = opt.substr(0, eq);
        std::string v = opt.substr(eq + 1);
        try {
            if (k == "p")
                r.p = std::stod(v);
            else if (k == "ms")
                r.stallMs = static_cast<std::uint32_t>(std::stoul(v));
            else if (k == "seed")
                r.seed = std::stoull(v);
            else
                fatal("fault spec: unknown option '%s' in rule '%s'",
                      k.c_str(), text.c_str());
        } catch (const std::exception &) {
            fatal("fault spec: bad value '%s' for option '%s' in rule "
                  "'%s'", v.c_str(), k.c_str(), text.c_str());
        }
        cur = end;
    }
    if (r.p < 0.0 || r.p > 1.0)
        fatal("fault spec: p=%g out of [0,1] in rule '%s'", r.p,
              text.c_str());
    return r;
}

} // namespace

void
FaultInjector::configure(const std::string &spec)
{
    std::lock_guard<std::mutex> lk(mu_);
    rules_.clear();
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(',', pos);
        if (end == std::string::npos)
            end = spec.size();
        if (end > pos)
            rules_.push_back(parseRule(spec.substr(pos, end - pos)));
        pos = end + 1;
    }
    armed_.store(!rules_.empty(), std::memory_order_relaxed);
}

void
FaultInjector::at(FaultSite site, const std::string &key,
                  const std::atomic<bool> *cancel)
{
    std::uint32_t stallMs = 0;
    bool fire = false;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (const FaultRule &r : rules_) {
            if (r.site != site)
                continue;
            if (!r.match.empty() &&
                key.find(r.match) == std::string::npos)
                continue;
            if (r.p < 1.0 && keyUnit(key, r.seed) >= r.p)
                continue;
            fire = true;
            stallMs = r.stallMs;
            break;
        }
    }
    if (!fire)
        return;
    switch (site) {
      case FaultSite::CellFail:
        throw std::runtime_error(
            strfmt("injected permanent fault at '%s'", key.c_str()));
      case FaultSite::Alloc:
        throw std::bad_alloc();
      case FaultSite::Stall: {
        // Sleep in short slices so the deadline watchdog can still
        // cancel a stalled cell promptly.
        auto end = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(stallMs);
        while (std::chrono::steady_clock::now() < end) {
            if (cancel && cancel->load(std::memory_order_relaxed))
                throw CellTimeout(
                    strfmt("cell deadline exceeded (stalled at '%s')",
                           key.c_str()));
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return;
      }
    }
}

FaultInjector &
FaultInjector::global()
{
    static FaultInjector fi;
    return fi;
}

} // namespace mg
