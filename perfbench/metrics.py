"""Arithmetic of the benchmark: order statistics, span accounting,
accuracy against a reference, and failure counting. Pure functions over
plain data, so the unit tests can feed them synthetic inputs."""

import math
import statistics


# ------------------------------------------------------------ statistics

def median(values):
    return statistics.median(values)


def percentile(values, p):
    """The p-th percentile (0..100), interpolating linearly between the
    two closest ranks of the sorted values."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, p):
    """How many of n samples lie above the p-th percentile."""
    return n * (100.0 - p) / 100.0


def reportable_percentile(n, candidates=(99.9, 99.0, 90.0, 50.0)):
    """The highest candidate percentile with at least ten of n samples
    beyond it, or None when even the median has fewer."""
    for p in candidates:
        if samples_beyond(n, p) >= 10:
            return p
    return None


# ----------------------------------------------------------------- spans

def union_length(intervals):
    """Total length covered by the (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span, its duration minus the part its direct children cover.
    Each span is a dict with t0, t1 and parent (an index or -1)."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = union_length(
            (max(k["t0"], s["t0"]), min(k["t1"], s["t1"])) for k in kids)
        out.append(s["t1"] - s["t0"] - covered)
    return out


def layer_totals(spans, computed_only=True):
    """name -> (self seconds, total seconds, calls) over the spans."""
    selfs = self_times(spans)
    out = {}
    for s, own in zip(spans, selfs):
        if computed_only and not s.get("computed", True):
            continue
        acc = out.setdefault(s["name"], [0.0, 0.0, 0])
        acc[0] += own
        acc[1] += s["t1"] - s["t0"]
        acc[2] += 1
    return {k: tuple(v) for k, v in out.items()}


def uncovered_time(wall, spans, exclude=("cell",)):
    """Wall time during which no thread was inside any layer span: the
    engine's own share (pool, fingerprints, cache bookkeeping)."""
    covered = union_length(
        (s["t0"], s["t1"]) for s in spans if s["name"] not in exclude)
    return wall - covered


# -------------------------------------------------------------- accuracy

def ipc(cell):
    return cell["work"] / cell["cycles"] if cell["cycles"] else 0.0


def cell_key(cell):
    """(kernel, config), the kernel without its input-set suffix, so
    cells of different input sets line up."""
    return (cell["kernel"].split("#")[0], cell["config"])


def ipc_errors(cells, reference):
    """key -> |IPC - reference IPC| / reference IPC, for every cell both
    sides simulated successfully."""
    ref = {cell_key(c): ipc(c) for c in reference if c["outcome"] == "ok"}
    out = {}
    for c in cells:
        r = ref.get(cell_key(c))
        if c["outcome"] == "ok" and r:
            out[cell_key(c)] = abs(ipc(c) - r) / r
    return out


def critpath_errors(cells):
    """key -> |modeled - actual| / actual cycles of the analyzer's
    forward model, per analysed cell."""
    out = {}
    for c in cells:
        cp = c.get("critpath")
        if c["outcome"] == "ok" and cp and cp["actual"]:
            out[cell_key(c)] = abs(cp["modeled"] - cp["actual"]) / cp["actual"]
    return out


def covered(errors, bounds):
    """How many cells' error lies within their own bound (key -> bound)."""
    return sum(1 for k, e in errors.items() if k in bounds and e <= bounds[k])


def error_summary(errors, bounds, attempted):
    """The end-to-end accuracy metrics over per-cell errors."""
    xs = list(errors.values())
    return {
        "ipc_err_median_pct": 100.0 * median(xs),
        "ipc_err_p90_pct": 100.0 * percentile(xs, 90),
        "ipc_err_max_pct": 100.0 * max(xs),
        "bound_cover_frac": covered(errors, bounds) / attempted,
    }


# -------------------------------------------------------------- failures

def failed_cells(runs, kernel_ok=None, reference_digests=None,
                 equal_to=None, check=None):
    """Keys of the cells that failed any check.

    runs: lists of cells from sweeps of the same cells; a cell fails if
      it is not ok in any of them, or its digest differs between them.
    kernel_ok: kernel -> checksum validated; a failed kernel fails every
      cell of its row.
    reference_digests: key -> committed digest the cell must match.
    equal_to: cells whose digests every run must reproduce.
    check: extra per-cell predicate that must hold.
    """
    bad = set()
    first = {cell_key(c): c for c in runs[0]}
    for run in runs:
        for c in run:
            k = cell_key(c)
            if c["outcome"] != "ok" or c["digest"] != first[k]["digest"]:
                bad.add(k)
            if check is not None and not check(c):
                bad.add(k)
            if kernel_ok is not None and not kernel_ok.get(c["kernel"], False):
                bad.add(k)
            if reference_digests is not None and \
                    reference_digests.get("|".join(k)) != c["digest"]:
                bad.add(k)
    if equal_to is not None:
        other = {cell_key(c): c["digest"] for c in equal_to}
        bad.update(k for k, c in first.items() if other.get(k) != c["digest"])
    return bad
