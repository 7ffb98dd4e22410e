#include "analysis/critpath.hh"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

namespace mg {

const char *
cpCatName(CpCat c)
{
    static const char *names[] = {
#define MG_CP_NAME(name) #name,
        MG_CP_CATEGORIES(MG_CP_NAME)
#undef MG_CP_NAME
    };
    int i = static_cast<int>(c);
    return i >= 0 && i < cpCatCount ? names[i] : "?";
}

CpParams
CpParams::fromConfig(const CoreConfig &cfg)
{
    CpParams p;
    p.fetchWidth = cfg.fetchWidth;
    p.renameWidth = cfg.renameWidth;
    p.commitWidth = cfg.commitWidth;
    p.robSize = cfg.robSize;
    p.fetchQueueSize = cfg.fetchQueueSize;
    p.frontendDepth = cfg.frontendDepth;
    p.regReadLat = cfg.regReadLat;
    p.schedulerCycles = cfg.schedulerCycles;
    p.l1dLat = static_cast<int>(cfg.mem.l1dLat);
    p.l1dLatBase = p.l1dLat;
    return p;
}

bool
applyWhatIf(CpParams &p, const std::string &spec, std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    std::size_t pos = 0;
    int applied = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string kv = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (kv.empty())
            continue;
        std::size_t eq = kv.find('=');
        if (eq == std::string::npos)
            return fail("what-if term '" + kv + "' is not key=val");
        std::string key = kv.substr(0, eq);
        for (char &ch : key)
            ch = static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
        const char *vs = kv.c_str() + eq + 1;
        char *end = nullptr;
        errno = 0;
        long v = std::strtol(vs, &end, 10);
        if (!end || *end || end == vs)
            return fail("bad what-if value in '" + kv + "'");
        // strtol clamps to LONG_MAX on overflow, and a long above
        // INT_MAX would wrap in the int fields below.
        if (errno == ERANGE || v > INT_MAX)
            return fail("what-if value out of range in '" + kv + "'");
        auto setWidth = [&](int &field) {
            if (v < 1)
                return fail("what-if '" + key + "' must be >= 1");
            field = static_cast<int>(v);
            return true;
        };
        auto setLat = [&](int &field) {
            if (v < 0)
                return fail("what-if '" + key + "' must be >= 0");
            field = static_cast<int>(v);
            return true;
        };
        bool ok;
        if (key == "fetchwidth")
            ok = setWidth(p.fetchWidth);
        else if (key == "renamewidth")
            ok = setWidth(p.renameWidth);
        else if (key == "commitwidth")
            ok = setWidth(p.commitWidth);
        else if (key == "robsize")
            ok = setWidth(p.robSize);
        else if (key == "fetchqueue")
            ok = setWidth(p.fetchQueueSize);
        else if (key == "frontend")
            ok = setLat(p.frontendDepth);
        else if (key == "regreadlat")
            ok = setLat(p.regReadLat);
        else if (key == "sched")
            ok = setLat(p.schedulerCycles);
        else if (key == "l1dlat")
            ok = setLat(p.l1dLat);
        else
            return fail("unknown what-if key '" + key + "'");
        if (!ok)
            return false;
        ++applied;
    }
    if (!applied)
        return fail("what-if spec '" + spec + "' sets nothing");
    return true;
}

namespace {

/** Stage order within one event (walk order). */
enum Stage : int { StF = 0, StD = 1, StI = 2, StX = 3, StC = 4 };

struct Node
{
    std::uint32_t idx;
    Stage st;
};

/** One last-arriving candidate: the arrival time the edge imposes and
 *  the node the backward walk continues from. */
struct Cand
{
    Node cont;
    std::uint64_t time;
    CpCat cat;
};

/** Edge-family category of a dependence on producer @p e. */
CpCat
prodCat(const TraceEvent &e)
{
    if (e.isLoad())
        return CpCat::memory;
    if (e.isHandle())
        return CpCat::mg;
    return CpCat::data;
}

/** Execution-edge category of @p e. */
CpCat
execCat(const TraceEvent &e)
{
    if (e.isHandle())
        return CpCat::mg;
    if (e.isLoad() || e.isStore())
        return CpCat::memory;
    return CpCat::exec;
}

/** One parameter set's edge weights, widened once so the walks'
 *  inner loops convert nothing. */
struct Edges
{
    std::size_t fetchWidth, fetchQueue, renameWidth, rob, commitWidth;
    std::uint64_t frontendDepth, regReadLat, sched;
    long l1dAdj;        ///< load latency re-weighting (what-if - traced)
    std::size_t reach;  ///< longest in-order look-back, at least 1

    explicit Edges(const CpParams &p)
        : fetchWidth(static_cast<std::size_t>(p.fetchWidth)),
          fetchQueue(static_cast<std::size_t>(p.fetchQueueSize)),
          renameWidth(static_cast<std::size_t>(p.renameWidth)),
          rob(static_cast<std::size_t>(p.robSize)),
          commitWidth(static_cast<std::size_t>(p.commitWidth)),
          frontendDepth(static_cast<std::uint64_t>(p.frontendDepth)),
          regReadLat(static_cast<std::uint64_t>(p.regReadLat)),
          sched(static_cast<std::uint64_t>(p.schedulerCycles)),
          l1dAdj(static_cast<long>(p.l1dLat) - p.l1dLatBase),
          reach(std::max({std::size_t{1}, fetchWidth, fetchQueue,
                          renameWidth, rob, commitWidth}))
    {
    }
};

/** The recorded stage times, read from the ring in place (window
 *  index k = k-th oldest held event). */
template <class Events>
struct Recorded
{
    Events t;

    std::uint64_t f(std::size_t k) const { return t[k].fetchAt; }
    std::uint64_t d(std::size_t k) const { return t[k].dispatchAt(); }
    std::uint64_t i(std::size_t k) const { return t[k].issueAt(); }
    std::uint64_t x(std::size_t k) const { return t[k].completeAt(); }
    std::uint64_t c(std::size_t k) const { return t[k].commitAt(); }

    /** Issue and completion of producer @p j, linked from @p dist
     *  events later. */
    std::pair<std::uint64_t, std::uint64_t>
    link(std::size_t j, std::uint32_t) const
    {
        return {t[j].issueAt(), t[j].completeAt()};
    }
};

/** Links shorter than this read a producer's modeled issue and
 *  completion times from the forward walk's ring; longer ones (under
 *  1% of links on the ref tier) from its side table of far producers.
 *  A power of two. */
constexpr std::size_t nearLinks = 4096;

/** Storage of one forward walk's node times, kept per thread so a
 *  walk reuses the memory of the walks before it. */
struct WalkBuf
{
    std::vector<std::uint64_t> ix;       ///< issue, complete ring
    std::vector<std::uint64_t> f, d, c;  ///< ring windows
    std::vector<std::uint64_t> farIx;    ///< issue, complete per far
                                         ///< producer
};

thread_local WalkBuf pureBuf, whatIfBuf;

/**
 * Node times one forward walk computes, each in a power-of-two ring.
 * Fetch, dispatch and commit are only read back as far as the widest
 * width, queue or ROB. Issue and completion are read back by producer
 * links: from a nearLinks-event ring when the link is shorter than
 * that, and otherwise from a side table of the far producers (the
 * sorted window indices some link reaches from nearLinks or more
 * events later), which the walk fills as it passes them.
 */
struct Modeled
{
    std::uint64_t *ixp;
    std::uint64_t *fp, *dp, *cp;
    std::uint64_t *farp;
    std::size_t mask;
    const std::size_t *far, *farEnd;

    /** Bind @p b to a walk over @p n events with far producers
     *  @p farIdx. */
    Modeled(WalkBuf &b, std::size_t n,
            const std::vector<std::size_t> &farIdx, const Edges &e)
    {
        std::size_t win = std::bit_ceil(std::min(e.reach, n) + 1);
        for (auto *v : {&b.f, &b.d, &b.c}) {
            if (v->size() < win)
                v->resize(win);
        }
        if (b.ix.size() < 2 * nearLinks)
            b.ix.resize(2 * nearLinks);
        if (b.farIx.size() < 2 * farIdx.size())
            b.farIx.resize(2 * farIdx.size());
        ixp = b.ix.data();
        fp = b.f.data();
        dp = b.d.data();
        cp = b.c.data();
        farp = b.farIx.data();
        mask = win - 1;
        far = farIdx.data();
        farEnd = far + farIdx.size();
    }

    std::uint64_t f(std::size_t k) const { return fp[k & mask]; }
    std::uint64_t d(std::size_t k) const { return dp[k & mask]; }
    std::uint64_t i(std::size_t k) const { return ixAt(k)[0]; }
    std::uint64_t x(std::size_t k) const { return ixAt(k)[1]; }
    std::uint64_t c(std::size_t k) const { return cp[k & mask]; }

    /** Issue and completion of producer @p j, linked from @p dist
     *  events later: the only reads that can reach past the ring. */
    std::pair<std::uint64_t, std::uint64_t>
    link(std::size_t j, std::uint32_t dist) const
    {
        const std::uint64_t *p = dist < nearLinks ? ixAt(j) : farAt(j);
        return {p[0], p[1]};
    }

    /** Keep event @p k's issue and completion as far producer
     *  @p pos. */
    void
    keepFar(std::size_t pos, std::size_t k)
    {
        farp[2 * pos] = i(k);
        farp[2 * pos + 1] = x(k);
    }

    template <Stage St>
    void
    set(std::size_t k, std::uint64_t t)
    {
        if constexpr (St == StF)
            fp[k & mask] = t;
        else if constexpr (St == StD)
            dp[k & mask] = t;
        else if constexpr (St == StI)
            ixAt(k)[0] = t;
        else if constexpr (St == StX)
            ixAt(k)[1] = t;
        else
            cp[k & mask] = t;
    }

  private:
    std::uint64_t *ixAt(std::size_t k) const
    {
        return ixp + 2 * (k & (nearLinks - 1));
    }

    /** Far producer @p j's entry; j is always on the far list. */
    const std::uint64_t *
    farAt(std::size_t j) const
    {
        return farp + 2 * (std::lower_bound(far, farEnd, j) - far);
    }
};

template <class Times>
std::uint64_t
timeAt(const Times &tm, Node nd)
{
    switch (nd.st) {
      case StF: return tm.f(nd.idx);
      case StD: return tm.d(nd.idx);
      case StI: return tm.i(nd.idx);
      case StX: return tm.x(nd.idx);
      default: return tm.c(nd.idx);
    }
}

/**
 * Enumerate the modeled in-edges of node (@p k, @p St) against @p tm,
 * calling add(contIdx, contStage, time, cat) per edge. Every
 * candidate's continuation strictly precedes the node in (event,
 * stage) order, so both the backward attribution walk and the forward
 * in-order propagation share this enumeration. Templated on the sink
 * so the forward walks — which only need the max time, millions of
 * nodes per run — fold to a few register max() ops instead of
 * materializing candidate vectors (the difference between the what-if
 * walk beating a re-simulation by 2x and by well over 10x), which is
 * also why the stage is a template argument and the enumeration is
 * always inlined. With @p Checked false the caller guarantees
 * k >= w.reach, so every in-order look-back exists and is not tested.
 */
template <Stage St, bool Checked = true, class Events, class Times,
          class AddFn>
[[gnu::always_inline]] inline void
forEachCand(const Events &t, const Edges &w, const Times &tm,
            std::size_t k, AddFn &&add)
{
    auto idx = static_cast<std::uint32_t>(k);
    auto back = [&](std::size_t d) {
        return !Checked || k >= d;
    };
    if constexpr (St == StF) {
        if (back(1)) {
            // Fetch is in-order; a taken branch ends its fetch cycle,
            // so the next slot starts no earlier than the next cycle.
            const TraceEvent &prev = t[k - 1];
            std::uint64_t taken = prev.isCtrl() && prev.taken() ? 1 : 0;
            add(idx - 1, StF, tm.f(k - 1) + taken, CpCat::fetch);
            // A direction mispredict costs one fetch-block bubble: the
            // core blocks fetch on the unresolved branch, and the block
            // clears on the next resolve scan (the branch is still
            // pre-dispatch), so the next slot fetches one cycle later
            // whether or not the branch was taken.
            if (prev.mispredicted())
                add(idx - 1, StF, tm.f(k - 1) + 1, CpCat::bpred);
        }
        if (back(w.fetchWidth))
            add(idx - static_cast<std::uint32_t>(w.fetchWidth), StF,
                tm.f(k - w.fetchWidth) + 1, CpCat::fetch);
        if (back(w.fetchQueue))
            add(idx - static_cast<std::uint32_t>(w.fetchQueue), StD,
                tm.d(k - w.fetchQueue), CpCat::window);
    } else if constexpr (St == StD) {
        add(idx, StF, tm.f(k) + w.frontendDepth, CpCat::fetch);
        if (back(1))
            add(idx - 1, StD, tm.d(k - 1), CpCat::window);
        if (back(w.renameWidth))
            add(idx - static_cast<std::uint32_t>(w.renameWidth), StD,
                tm.d(k - w.renameWidth) + 1, CpCat::window);
        if (back(w.rob))
            add(idx - static_cast<std::uint32_t>(w.rob), StC,
                tm.c(k - w.rob) + 1, CpCat::window);
    } else if constexpr (St == StI) {
        const TraceEvent &e = t[k];
        add(idx, StD, tm.d(k) + 1,
            e.isHandle() ? CpCat::mg : CpCat::select);
        // A link reaching past the window's oldest event lost its
        // producer off the ring: no edge.
        auto prod = [&](std::uint32_t dist) {
            if (!dist || dist > k)
                return;
            std::size_t j = k - dist;
            // Producer value-ready: completion minus the register-read
            // overlap, floored at the scheduler's wakeup latency.
            auto [ij, xj] = tm.link(j, dist);
            std::uint64_t ready = std::max(
                xj > w.regReadLat ? xj - w.regReadLat : 0,
                ij + w.sched);
            add(static_cast<std::uint32_t>(j), StI, ready,
                prodCat(t[j]));
        };
        prod(e.srcDist[0]);
        prod(e.srcDist[1]);
        if (e.depStoreDist && e.depStoreDist <= k) {
            // Store-set order: the consumer waits for the predicted
            // store's memory access to resolve.
            std::size_t j = k - e.depStoreDist;
            add(static_cast<std::uint32_t>(j), StI,
                tm.link(j, e.depStoreDist).second + 1, CpCat::memory);
        }
    } else if constexpr (St == StX) {
        // Execution latency, re-weighted for loads under an L1-D
        // latency what-if (clamped so a hit never goes below 1).
        const TraceEvent &e = t[k];
        std::uint64_t lat = static_cast<std::uint32_t>(e.completeD -
                                                       e.issueD);
        if (e.isLoad() && !e.isStore()) {
            long adj = static_cast<long>(lat) + w.l1dAdj;
            lat = adj < 1 ? 1 : static_cast<std::uint64_t>(adj);
        }
        add(idx, StI, tm.i(k) + lat, execCat(e));
    } else {
        add(idx, StX, tm.x(k), CpCat::commit);
        if (back(1))
            add(idx - 1, StC, tm.c(k - 1), CpCat::commit);
        if (back(w.commitWidth))
            add(idx - static_cast<std::uint32_t>(w.commitWidth), StC,
                tm.c(k - w.commitWidth) + 1, CpCat::commit);
    }
}

/** forEachCand for a node whose stage is known only at run time (the
 *  attribution walk). */
template <class Times, class AddFn>
void
forEachCandOf(const TraceBuffer::View &t, const Edges &w, const Times &tm,
              Node nd, AddFn &&add)
{
    switch (nd.st) {
      case StF: return forEachCand<StF>(t, w, tm, nd.idx, add);
      case StD: return forEachCand<StD>(t, w, tm, nd.idx, add);
      case StI: return forEachCand<StI>(t, w, tm, nd.idx, add);
      case StX: return forEachCand<StX>(t, w, tm, nd.idx, add);
      default: return forEachCand<StC>(t, w, tm, nd.idx, add);
    }
}

/** Max in-edge time of node (@p k, @p St), or the node's recorded
 *  fetch anchor when it has no modeled in-edges (only the very first
 *  fetch). The forward walks' hot primitive. */
template <Stage St, bool Checked, class Events, class Times>
[[gnu::always_inline]] inline std::uint64_t
maxCandTime(const Events &t, const Edges &w, const Times &tm,
            std::size_t k)
{
    if (Checked && St == StF && k == 0)
        return t[0].fetchAt;
    std::uint64_t best = 0;
    forEachCand<St, Checked>(t, w, tm, k,
                             [&](std::uint32_t, Stage, std::uint64_t time,
                                 CpCat) { best = std::max(best, time); });
    return best;
}

/** The state of one forward walk (see forwardWalk), stepping one
 *  event's five nodes at a time. */
template <bool Pure, bool WhatIf, class Events>
struct Walker
{
    Events t;
    Edges bw, ww;       ///< traced and what-if weights
    Modeled pm, wm;     ///< pure-model and what-if times
    const std::size_t *nextFar;  ///< next far producer to keep
    std::size_t farK;            ///< its window index

    template <Stage St, bool C>
    [[gnu::always_inline]] void
    node(std::size_t k, std::uint64_t recAt)
    {
        if constexpr (Pure)
            pm.set<St>(k, maxCandTime<St, C>(t, bw, pm, k));
        if constexpr (WhatIf) {
            // Signed on purpose: a negative residual records a modeled
            // edge over-predicting this node (a model mismatch the
            // attribution walk also skips), and re-applying it is what
            // keeps the identity configuration bit-exact against the
            // recorded times.
            std::int64_t resid = static_cast<std::int64_t>(recAt) -
                static_cast<std::int64_t>(
                    maxCandTime<St, C>(t, bw, Recorded<Events>{t}, k));
            std::int64_t a = static_cast<std::int64_t>(
                                 maxCandTime<St, C>(t, ww, wm, k)) +
                resid;
            wm.set<St>(k, a > 0 ? static_cast<std::uint64_t>(a) : 0);
        }
    }

    /** Event @p k's five nodes; @p C as forEachCand's Checked. */
    template <bool C>
    [[gnu::always_inline]] void
    event(std::size_t k)
    {
        const TraceEvent &e = t[k];
        node<StF, C>(k, e.fetchAt);
        node<StD, C>(k, e.dispatchAt());
        node<StI, C>(k, e.issueAt());
        node<StX, C>(k, e.completeAt());
        node<StC, C>(k, e.commitAt());
        if (k == farK) [[unlikely]] {
            std::size_t pos = static_cast<std::size_t>(nextFar - pm.far);
            if constexpr (Pure)
                pm.keepFar(pos, k);
            if constexpr (WhatIf)
                wm.keepFar(pos, k);
            farK = *++nextFar;
        }
    }
};

/** forwardWalk over the @p n events @p t holds, oldest first. */
template <bool Pure, bool WhatIf, class Events>
void
walkEvents(const Events &t, std::size_t n,
           const std::vector<std::size_t> &far, const CpParams &base,
           const CpParams &wp, std::uint64_t *modeled,
           std::uint64_t *whatIf)
{
    const Edges bw(base), ww(wp);
    Walker<Pure, WhatIf, Events> w{
        t, bw, ww, Modeled(pureBuf, Pure ? n : 0, far, bw),
        Modeled(whatIfBuf, WhatIf ? n : 0, far, ww), far.data(), far[0]};
    // Past the longest look-back (the steady state) the look-back
    // tests are compiled out.
    const std::size_t steady = std::min(n, std::max(bw.reach, ww.reach));
    std::size_t k = 0;
    for (; k < steady; ++k)
        w.template event<true>(k);
    for (; k < n; ++k)
        w.template event<false>(k);
    // The first fetch has no in-edges, so both models anchor it at the
    // recorded time and their spans start there.
    if constexpr (Pure)
        *modeled = w.pm.c(n - 1) - t[0].fetchAt;
    if constexpr (WhatIf)
        *whatIf = w.wm.c(n - 1) - t[0].fetchAt;
}

/**
 * The forward walk over the held events: the pure model (when
 * @p Pure) recomputes every node time from the modeled edges under
 * @p base, and the what-if model (when @p WhatIf) re-derives it under
 * @p wp and adds the node's recorded residual — the recorded time
 * minus the max of its modeled in-edges over the recorded times under
 * @p base. The residual is positive where the machine was slower than
 * the modeled in-edges and negative where an edge over-predicts the
 * recorded time; re-applying it makes the unmodified configuration
 * reproduce the recorded times exactly. Residuals are computed in the
 * walk that applies them, and both models share one pass over the
 * ring. Each model's first-fetch-to-last-commit span lands in
 * @p modeled / @p whatIf.
 */
template <bool Pure, bool WhatIf>
void
forwardWalk(const TraceBuffer &trace, const std::vector<std::size_t> &far,
            const CpParams &base, const CpParams &wp,
            std::uint64_t *modeled, std::uint64_t *whatIf)
{
    // A window that does not wrap around the storage is walked as a
    // plain array, with no wrap test on every read.
    const TraceBuffer::View v = trace.view();
    if (const TraceEvent *events = v.contiguous())
        walkEvents<Pure, WhatIf>(events, trace.size(), far, base, wp,
                                 modeled, whatIf);
    else
        walkEvents<Pure, WhatIf>(v, trace.size(), far, base, wp, modeled,
                                 whatIf);
}

} // namespace

struct CritPathAnalyzer::Impl
{
    const TraceBuffer &trace;
    CpParams base;
    CritPathSummary sum;
    bool modeled = false;   ///< sum.modeledCycles is computed
    /** Window indices of the producers some link reaches from
     *  nearLinks or more events later, ascending, then a sentinel
     *  above every index. */
    std::vector<std::size_t> far;

    Impl(const TraceBuffer &t, const CoreConfig &cfg)
        : trace(t), base(CpParams::fromConfig(cfg))
    {
    }
};

CritPathAnalyzer::CritPathAnalyzer(const TraceBuffer &trace,
                                   const CoreConfig &cfg)
    : impl(std::make_unique<Impl>(trace, cfg))
{
    const std::size_t n = trace.size();
    CritPathSummary &s = impl->sum;
    if (n < 2)
        return;
    s.present = true;
    s.tracedSlots = n;
    Recorded<TraceBuffer::View> rec{trace.view()};
    // Producers some link reaches from nearLinks or more events later.
    std::vector<std::size_t> &far = impl->far;
    std::uint64_t work = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const TraceEvent &e = rec.t[k];
        work += e.work;
        // nearLinks is a power of two, so the OR of the three links
        // reaches it iff one of them does.
        if ((e.srcDist[0] | e.srcDist[1] | e.depStoreDist) >= nearLinks)
            [[unlikely]] {
            for (std::uint32_t dist :
                 {e.srcDist[0], e.srcDist[1], e.depStoreDist}) {
                if (dist >= nearLinks && dist <= k)
                    far.push_back(k - dist);
            }
        }
    }
    s.tracedWork = work;
    std::sort(far.begin(), far.end());
    far.erase(std::unique(far.begin(), far.end()), far.end());
    far.push_back(SIZE_MAX);
    s.traceWrapped = trace.wrapped();
    s.actualCycles = rec.c(n - 1) - rec.f(0);

    const Edges edges(impl->base);
    // Attribution: backward last-arriving walk over the recorded
    // times. Each step charges the full gap between the node and its
    // chosen continuation to the winning edge's category; the gaps
    // telescope from the last commit to the first fetch.
    Node cur{static_cast<std::uint32_t>(n - 1), StC};
    while (!(cur.idx == 0 && cur.st == StF)) {
        std::uint64_t here = timeAt(rec, cur);
        // Only continuations at or before the node's recorded time are
        // credible last-arrivers; edges whose continuation lands later
        // are model mismatches, and following one would both break the
        // telescoping sum and move the walk forward in time. The
        // in-order previous-stage/previous-slot edge always qualifies,
        // so a best candidate always exists.
        bool haveBest = false;
        Cand best{};
        std::uint64_t bestCont = 0;
        // Inlined by force: left to the inliner's budget, this sink can
        // become a call per candidate.
        forEachCandOf(rec.t, edges, rec, cur,
                      [&](std::uint32_t ci, Stage cs, std::uint64_t time,
                          CpCat cat) __attribute__((always_inline)) {
                          std::uint64_t contAt = timeAt(rec, Node{ci, cs});
                          if (contAt > here)
                              return;
                          if (!haveBest || time > best.time ||
                              (time == best.time && contAt > bestCont)) {
                              haveBest = true;
                              best = Cand{Node{ci, cs}, time, cat};
                              bestCont = contAt;
                          }
                      });
        s.breakdown[static_cast<int>(best.cat)] += here - bestCont;
        cur = best.cont;
    }
}

CritPathAnalyzer::~CritPathAnalyzer() = default;

const CritPathSummary &
CritPathAnalyzer::summary() const
{
    Impl &im = *impl;
    if (im.sum.present && !im.modeled) {
        forwardWalk<true, false>(im.trace, im.far, im.base, im.base,
                                 &im.sum.modeledCycles, nullptr);
        im.modeled = true;
    }
    return im.sum;
}

std::uint64_t
CritPathAnalyzer::whatIf(const std::string &spec, std::string *err)
{
    if (err)
        err->clear();
    Impl &im = *impl;
    if (!im.sum.present) {
        if (err)
            *err = "critical-path analysis absent (trace too small)";
        return 0;
    }
    CpParams wp = im.base;
    std::string perr;
    if (!applyWhatIf(wp, spec, &perr)) {
        if (err)
            *err = perr;
        return 0;
    }
    // Residual-anchored forward walk under re-weighted edges: the
    // residuals make the baseline parameters reproduce the recorded
    // times exactly, so a re-weighted walk predicts a principled
    // delta from them. The first question also runs the pure model,
    // in the same pass.
    std::uint64_t cycles = 0;
    if (im.modeled) {
        forwardWalk<false, true>(im.trace, im.far, im.base, wp, nullptr,
                                 &cycles);
    } else {
        forwardWalk<true, true>(im.trace, im.far, im.base, wp,
                                &im.sum.modeledCycles, &cycles);
        im.modeled = true;
    }
    return cycles;
}

CritPathSummary
analyzeCritPath(const TraceBuffer &trace, const CoreConfig &cfg,
                const std::string &whatIf)
{
    CritPathAnalyzer an(trace, cfg);
    // Ask the question before reading the summary, so the forward
    // model and the what-if share one walk.
    std::string err;
    std::uint64_t cycles = whatIf.empty() ? 0 : an.whatIf(whatIf, &err);
    CritPathSummary s = an.summary();
    if (s.present && !whatIf.empty()) {
        s.whatIf = whatIf;
        if (!err.empty())
            s.error = err;
        else
            s.whatIfCycles = cycles;
    }
    return s;
}

} // namespace mg
