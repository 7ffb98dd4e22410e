#!/usr/bin/env python3
"""Figure 6 sweep benchmark. README.md next to this file defines the
workloads and every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the harness (perfbench/mgperf.cpp) into .bench_build/, runs the
workload, checks the simulator's outputs and prints one JSON object as
the last line of standard output. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a separate traced run.

    python3 perfbench/run.py --record-reference

re-records the committed per-cell stats digests at the default seed
(only after an intended change to simulated results).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
CACHE_DIR = ROOT / ".bench_build" / "reference-sweeps"
REFERENCE = BENCH_DIR / "reference_digests.json"

DEFAULT_SEED = 0
JOBS = 2            # worker threads of every measured sweep
AUX_JOBS = 4        # untimed sweeps: store re-read, accuracy reference
MIN_SWEEPS = 2      # measured sweeps per run, at least
SETUP_PROBES = 21   # set-up-only processes per run (setup_s median)
WARMUP_S = 3        # untimed sweeps before the first measured one
DEADLINE_S = 170    # every run must end within 180 s

REF_FULL = ["--scale", "ref"]
LONG_FULL = ["--scale", "long"]
LONG_SAMPLED = ["--scale", "long", "--sampled"]
REF_CRITPATH = ["--scale", "ref", "--critpath"]

# Untimed sweeps at the default inputs: accuracy references, each
# checked against its committed digests. name -> (flags, with a fresh
# checkpoint store). The long --full sweep runs only here, as the
# reference of the sampled workload (README.md: "Workloads").
REFERENCE_SWEEPS = {
    "long_full": (LONG_FULL, False),
    "long_sampled": (LONG_SAMPLED, True),
    "ref_critpath": (REF_CRITPATH, False),
}

# flags: the measured sweep. store: whether each sweep attaches the
# checkpoint store in a new empty directory. digests: the reference
# sweep whose committed digests the measured sweep must match at the
# default seed. accuracy: (estimate, reference) sweeps; a reference of
# None compares the critical-path analyzer's forward model with the
# recorded cycles.
WORKLOADS = {
    "fig6_long_sampled_cold": dict(
        flags=LONG_SAMPLED, store=True, digests="long_sampled",
        accuracy=("long_sampled", "long_full")),
    "fig6_ref_critpath": dict(
        flags=REF_CRITPATH, store=False, digests="ref_critpath",
        accuracy=("ref_critpath", None)),
}

CRITPATH_TOLERANCE = 0.02   # the analyzer's acceptance bound (cycles)


class BenchError(Exception):
    pass


# ------------------------------------------------------------- processes

class Runner:
    """Runs harness phases inside one scratch directory, under a
    deadline for the whole benchmark run."""

    def __init__(self, exe, work, seed, deadline=DEADLINE_S):
        self.exe = exe
        self.work = work
        self.seed = seed
        self.deadline = deadline
        self.start = time.monotonic()
        self.count = 0

    def remaining(self):
        return self.deadline - (time.monotonic() - self.start)

    def phase(self, mode, flags, jobs=JOBS, store=None, check=False,
              seed=None):
        self.count += 1
        out = self.work / f"phase{self.count}.json"
        report = self.work / f"report{self.count}.json"
        seed = self.seed if seed is None else seed
        cmd = [str(self.exe), mode, *flags, "--seed", str(seed),
               "--jobs", str(jobs), "--out", str(out)]
        if mode != "setup":
            cmd += ["--report", str(report)]
        if store is not None:
            cmd += ["--store", str(store)]
        if check:
            cmd.append("--check")
        left = self.remaining()
        if left <= 0:
            raise BenchError("out of time before " + mode)
        try:
            proc = subprocess.run(cmd, cwd=self.work, timeout=left,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} phase exceeded the deadline")
        if proc.returncode != 0:
            raise BenchError(f"{mode} phase failed: {proc.stderr[-2000:]}")
        result = json.loads(out.read_text())
        out.unlink()
        if mode != "setup":
            result["report_bytes"] = report.stat().st_size if \
                report.exists() else 0
            report.unlink(missing_ok=True)
        return result

    def fresh_dir(self, name):
        d = self.work / f"{name}{self.count}"
        d.mkdir()
        return d


def dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


# ---------------------------------------------------------------- build

def build():
    """Configure and build the harness; return its path."""
    exe = BUILD_DIR / "mgperf"
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return exe


# ------------------------------------------------------------- workloads

def committed_digests(name):
    """The committed per-cell digests of a sweep at the default seed."""
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text())["sweeps"].get(name)


def reference_digests(spec, seed):
    if seed != DEFAULT_SEED:
        return None
    return committed_digests(spec["digests"])


def source_hash():
    """Hash of the simulator and benchmark sources."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for f in sorted(base.rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def reference_sweep(r, name):
    """Cells of an untimed sweep at the default inputs. Its results
    depend only on the sources, so they are kept per source hash and
    computed once per checkout."""
    path = CACHE_DIR / f"{source_hash()}-{name}.json"
    if path.exists():
        return json.loads(path.read_text())
    flags, with_store = REFERENCE_SWEEPS[name]
    store = r.fresh_dir("ref-store") if with_store else None
    cells = r.phase("sweep", flags, jobs=AUX_JOBS, store=store,
                    seed=DEFAULT_SEED)["cells"]
    if store:
        shutil.rmtree(store)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(cells))
    os.replace(tmp, path)
    return cells


def setup_samples(r, spec, probes=SETUP_PROBES):
    """Set-up only, in fresh processes: bind + assembly, engine, store
    open (of a new empty directory). The first probe then validates
    every kernel's checksum. Returns the set-up times and the kernel
    checks."""
    out = []
    kernels = None
    for i in range(probes):
        store = r.fresh_dir("setup-store") if spec["store"] else None
        res = r.phase("setup", spec["flags"], store=store, check=i == 0)
        out.append(res["setup_s"])
        kernels = kernels or res["kernels"]
        if store:
            shutil.rmtree(store)
    return out, kernels


def warm_up(r):
    """Untimed short sweeps for WARMUP_S before the first measured one.
    On a virtual machine a worker woken on an idle virtual CPU can wait
    up to a second for the host to run it, which only the first sweep
    after a pause pays."""
    start = time.monotonic()
    while time.monotonic() - start < WARMUP_S:
        r.phase("sweep", REF_FULL)


def measured_sweep(r, spec):
    """One untraced sweep, as users run it; returns its result with the
    disk footprint it leaves (store directory plus report). The store
    stays until the run's directory is removed, so that no pause to
    delete it falls between two measured sweeps."""
    store = r.fresh_dir("store") if spec["store"] else None
    res = r.phase("sweep", spec["flags"], store=store)
    res["store_dir"] = store
    res["disk_bytes"] = res["report_bytes"] + (dir_bytes(store) if store
                                               else 0)
    return res


def rerun_on_store(r, spec, swept):
    """An untimed sweep over the store a measured sweep filled: every
    record is read back instead of computed, and the results must not
    change (the store memoizes, never alters a result)."""
    if not spec["store"]:
        return None
    return r.phase("sweep", spec["flags"], jobs=AUX_JOBS,
                   store=swept["store_dir"])


def healthy(results):
    """Every report was written and no store record read back corrupt."""
    return all(x["report_ok"] and x.get("store", {}).get("corrupt", 0) == 0
               for x in results)


def cell_checks(spec, seed, runs, kernels, others=()):
    """The set of failed cells over every correctness check. others:
    sweeps of the same cells whose digests must equal the runs'."""
    kernel_ok = {k["kernel"]: k["ok"] for k in kernels}

    def check(c):
        if "sampled" in c and c["work"] != c["sampled"]["total_work"]:
            return False
        cp = c.get("critpath")
        if "--critpath" in spec["flags"]:
            return bool(cp) and not cp["error"] and \
                cp["breakdown_sum"] == cp["actual"]
        return True

    bad = metrics.failed_cells(
        runs, kernel_ok=kernel_ok,
        reference_digests=reference_digests(spec, seed),
        check=check)
    for other in others:
        if other is not None:
            bad |= metrics.failed_cells(runs[:1], equal_to=other["cells"])
    return bad


def reference_failures(name, cells):
    """Cells of a reference sweep that are not ok or differ from their
    committed digests."""
    return metrics.failed_cells([cells],
                                reference_digests=committed_digests(name))


def accuracy(r, spec):
    """Per-cell errors of the workload's estimates at the default
    inputs, their claimed bounds, and the cells that failed."""
    est_name, ref_name = spec["accuracy"]
    est = reference_sweep(r, est_name)
    failed = reference_failures(est_name, est)
    if ref_name is None:
        errors = metrics.critpath_errors(est)
        return errors, {k: CRITPATH_TOLERANCE for k in errors}, failed
    ref = reference_sweep(r, ref_name)
    failed |= reference_failures(ref_name, ref)
    bounds = {metrics.cell_key(c): c["sampled"]["ci95"] for c in est
              if "sampled" in c}
    return metrics.ipc_errors(est, ref), bounds, failed


def end_to_end(r, spec, seconds):
    warm_up(r)
    reps = []
    measured = 0.0
    # Sweep until --seconds are measured, and at least twice so that no
    # run rests on one sample, leaving time for one more sweep, the
    # checks and the accuracy reference within the deadline.
    while len(reps) < MIN_SWEEPS or (measured < seconds and
                                     r.remaining() > 3 * reps[-1]["sweep_s"]):
        reps.append(measured_sweep(r, spec))
        measured += reps[-1]["sweep_s"]
    reread = rerun_on_store(r, spec, reps[-1])
    setups, kernels = setup_samples(r, spec)
    cells = reps[0]["cells"]
    attempted = len(cells)
    errors, bounds, ref_failed = accuracy(r, spec)
    bad = cell_checks(spec, r.seed, [x["cells"] for x in reps], kernels,
                      others=[reread])
    bad.update(ref_failed)
    ok = healthy(reps) and (reread is None or (
        healthy([reread]) and reread["store"]["hits"] > 0))

    setups += [x["setup_s"] for x in reps]
    work = sum(c["work"] for c in cells)
    m = {
        "sweep_s": ("s", metrics.median([x["sweep_s"] for x in reps])),
        "mwork_per_s": ("Mwork/s", metrics.median(
            [work / 1e6 / x["sweep_s"] for x in reps])),
        "cpu_s": ("s", metrics.median([x["cpu_s"] for x in reps])),
        "setup_s": ("s", metrics.median(setups)),
        "peak_rss_mb": ("MB", metrics.median(
            [x["peak_rss_mb"] for x in reps])),
        "ok_frac": ("fraction", 1.0 - len(bad) / attempted),
        "disk_mb": ("MB", metrics.median(
            [x["disk_bytes"] / 2**20 for x in reps])),
    }
    acc = metrics.error_summary(errors, bounds, attempted)
    for k, v in acc.items():
        m[k] = ("fraction" if k.endswith("frac") else "%", v)
    info = {"sweeps_s": [round(x["sweep_s"], 3) for x in reps],
            "setup_samples": len(setups), "error_cells": len(errors),
            "tail_percentile": metrics.reportable_percentile(len(errors))}
    return ok, attempted, len(bad), m, info


def per_layer(r, spec):
    warm_up(r)
    base = measured_sweep(r, spec)
    store = r.fresh_dir("traced-store") if spec["store"] else None
    tr = r.phase("traced", spec["flags"], store=store)
    _, kernels = setup_samples(r, spec, probes=1)

    cells = tr["cells"]
    attempted = len(cells)
    bad = cell_checks(spec, r.seed, [base["cells"]], kernels, others=[tr])
    ok = healthy([base, tr])

    spans = tr["spans"]
    layers = metrics.layer_totals(spans)
    every = metrics.layer_totals(spans, computed_only=False)

    def self_s(layer):
        return layers.get(layer, (0.0, 0.0, 0))[0]

    def calls(layer):
        return layers.get(layer, (0.0, 0.0, 0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    full = [c for c in cells if "sampled" not in c]
    sampled = [c["sampled"] for c in cells if "sampled" in c]
    work = sum(c["work"] for c in cells)
    total_work = sum(s["total_work"] for s in sampled)
    run_s = self_s("uarch.run")
    summary_s = self_s("emu.summary")
    traced_s = self_s("analysis.traced")
    wall = tr["wall_s"]
    st = base["store"]
    ctr = base["counters"]
    probe = tr["emu_probe"]
    cell_spans = every.get("cell", (0.0, 0.0, 0))[1]

    m = {
        "workloads.bind_s": ("s", tr["bind_s"]),
        "cfg.profile_s": ("s", self_s("cfg.profile")),
        "cfg.profile_computes": ("count", calls("cfg.profile")),
        "mg.prepare_s": ("s", self_s("mg.prepare")),
        "mg.prepare_computes": ("count", calls("mg.prepare")),
        "emu.bare_mwork_per_s": ("Mwork/s", ratio(probe["work"] / 1e6,
                                                  probe["seconds"])),
        "emu.summary_s": ("s", summary_s),
        "emu.summary_mwork_per_s": ("Mwork/s",
                                    ratio(total_work / 1e6, summary_s)),
        "uarch.run_s": ("s", run_s),
        "uarch.run_mwork_per_s": ("Mwork/s", ratio(
            sum(c["work"] for c in full) / 1e6, run_s)),
        "uarch.ns_per_cycle": ("ns", ratio(
            run_s * 1e9, sum(c["cycles"] for c in full))),
        "uarch.sampled_s": ("s", layers.get("uarch.sampled",
                                            (0.0, 0.0, 0))[1]),
        "uarch.detailed_work": ("count", sum(s["detailed_work"]
                                             for s in sampled)),
        "uarch.ff_work": ("count", sum(s["ff_work"] for s in sampled)),
        "uarch.intervals": ("count", sum(s["intervals"] for s in sampled)),
        "uarch.detailed_frac": ("fraction", ratio(
            sum(s["detailed_work"] for s in sampled), total_work)),
        "uarch.cycles": ("count", sum(c["cycles"] for c in cells)),
        "memsys.dcache_misses_per_kwork": ("count", ratio(
            1000 * sum(c["dmiss"] for c in cells), work)),
        "memsys.icache_misses_per_kwork": ("count", ratio(
            1000 * sum(c["imiss"] for c in cells), work)),
        "analysis.traced_s": ("s", traced_s),
        "analysis.traced_over_run": ("ratio", ratio(traced_s, run_s)),
        "analysis.traced_work": ("count", sum(
            c["critpath"]["traced_work"] for c in cells if "critpath" in c)),
        "store.write_s": ("s", self_s("store.write")),
        "store.load_s": ("s", self_s("store.load")),
        "store.open_s": ("s", tr["store_open_s"]),
        "store.hits": ("count", st["hits"]),
        "store.misses": ("count", st["misses"]),
        "store.writebacks": ("count", st["writebacks"]),
        "store.corrupt": ("count", st["corrupt"]),
        "store.hit_frac": ("fraction", ratio(st["hits"],
                                             st["hits"] + st["misses"])),
        "engine.computes": ("count", sum(v for k, v in ctr.items()
                                         if k.endswith("_computes"))),
        "engine.hits": ("count", sum(v for k, v in ctr.items()
                                     if k.endswith("_hits"))),
        "engine.pool_busy_frac": ("fraction",
                                  ratio(cell_spans, tr["jobs"] * wall)),
        "engine.other_s": ("s", metrics.uncovered_time(wall, spans)),
        "sim.report_s": ("s", self_s("sim.report")),
        "bench.trace_overhead_frac": ("fraction", ratio(
            wall - base["sweep_s"], base["sweep_s"])),
    }
    info = {"traced_wall_s": wall, "untraced_sweep_s": base["sweep_s"],
            "spans": len(spans)}
    return ok, attempted, len(bad), m, info


# ------------------------------------------------------------------ main

def record_reference(exe, work):
    """Write the per-cell digests of every reference sweep."""
    r = Runner(exe, work, DEFAULT_SEED, deadline=3600)
    sweeps = {}
    for name in sorted(REFERENCE_SWEEPS):
        cells = reference_sweep(r, name)
        if any(c["outcome"] != "ok" for c in cells):
            raise BenchError(name + ": a cell failed; nothing recorded")
        sweeps[name] = {"|".join(metrics.cell_key(c)): c["digest"]
                        for c in cells}
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "sweeps": sweeps},
                                    indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if not args.record_reference and args.workload is None:
        ap.error("--workload is required")
    if not 0 <= args.seed < 2 ** 31:
        ap.error("--seed must be in [0, 2^31)")

    try:
        exe = build()
        runs = ROOT / ".bench_build" / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        work = runs / f"{args.workload or 'reference'}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        try:
            if args.record_reference:
                record_reference(exe, work)
                return 0
            r = Runner(exe, work, args.seed)
            spec = WORKLOADS[args.workload]
            if args.trace:
                ok, attempted, failed, m, info = per_layer(r, spec)
            else:
                ok, attempted, failed, m, info = end_to_end(r, spec,
                                                            args.seconds)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    info["elapsed_s"] = round(time.monotonic() - r.start, 3)
    print("perfbench: " + json.dumps(info), file=sys.stderr)
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in m.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
