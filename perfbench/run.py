"""corrpoly benchmark: one workload per process, closed loop, answer-gated.

Run from the repository root:

    python3 perfbench/run.py --workload hull --seed 1 --seconds 10 --trace 0

One caller runs the workload's op back to back (the next op starts only
after the previous one finished; no threads) until ``--seconds`` of op time
have been measured.  Every op's answer is checked after its timer stops; a
wrong answer or an exception counts as a failed op.

``--trace 0`` reports the end-to-end metrics: ``op_s`` (the median op
time), ``setup_s`` (the median of several set-ups, each a fresh import of
the package plus generation of the seeded inputs) and ``peak_rss_mb``.  Both
times are normalised to a reference machine speed sampled while they run
(see ``speed.py``).  The raw wall times, the tail percentile and the failure
ratio are printed above the result line and kept in the result file.

``--trace 1`` alternates untraced and traced ops and reports the per-layer
metrics of the traced ones (see ``tracer.py``), the CPU time per untraced
op and the tracing overhead (traced minus untraced median op time).  Traced
ops run without the speed probe, so their per-layer times are raw seconds.

``--extended`` runs one traced ``hull`` op on the 3x2 layout (53,856
facets, several minutes); it is opt-in and not one of the gated workloads.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
every metric, each op, and the run's provenance (seed, commit, ``src/``
line count, Python version, CPU count) is written to ``perfbench/out/``,
plus the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: Percentiles tried for ``op_s_tail``, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
EXTENDED_FACETS = 53_856
#: The end-to-end metrics of the result line.
GATED = ("op_s", "setup_s", "peak_rss_mb")
#: Tracer diagnostics kept in the result file only.
UNREPORTED_LAYERS = ("trace.count_s", "bench.op_self_s")

sys.path.insert(0, str(Path(__file__).resolve().parent))
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Hull  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--extended", action="store_true",
                   help="one traced hull op on the 3x2 layout")
    args = p.parse_args(argv)
    if args.extended and args.workload != "hull":
        p.error("--extended applies to the hull workload only")
    return args


def import_package():
    """Import the package from this checkout's ``src``, afresh each call."""
    for name in [m for m in sys.modules if m == "corrpoly" or m.startswith("corrpoly.")]:
        del sys.modules[name]
    cp = importlib.import_module("corrpoly")
    if Path(cp.__file__).resolve().parent != SRC / "corrpoly":
        raise ImportError(f"corrpoly imported from {cp.__file__}, not from {SRC}")
    return cp


def make_workload(cp, args, workdir):
    if args.extended:
        return Hull(cp, args.seed, workdir, layout=(3, 2),
                    expected_facets=EXTENDED_FACETS)
    return WORKLOADS[args.workload](cp, args.seed, workdir)


def setup(args, workdir, probe):
    """Set up ``SETUP_REPEATS`` times; keep the last package and workload.

    Returns one ``(wall_s, normalised_s)`` pair per set-up.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        probe.start()
        t0 = time.perf_counter()
        try:
            cp = import_package()
            workload = make_workload(cp, args, workdir)
            wall = time.perf_counter() - t0
        finally:
            probe.stop()
        times.append((wall, (wall - probe.spent) / probe.slowdown()))
    return cp, workload, times


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(values):
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return {"percentile": p, "value": sorted(values)[rank - 1],
                    "samples": n, "beyond": n - rank}
    return None


def run_ops(args, workload, tracer, probe):
    """The closed loop.  Returns one record per op.

    An untraced op's ``norm_s`` is its wall time without the probe's
    handler, normalised to the reference speed; ``cpu_s`` leaves the
    handler out too.
    """
    ops = []
    measured = 0.0
    i = 0
    while True:
        if args.extended:
            if i == 1:
                break
        elif measured >= args.seconds and (tracer is None or i >= 2):
            break  # a traced run needs one untraced and one traced op
        traced = tracer is not None and (args.extended or i % 2 == 1)
        if traced:
            tracer.op = i
            tracer.install()
            root = tracer.open("bench.op")
        else:
            probe.start()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        error = None
        try:
            out = workload.op(i)
        except Exception as exc:  # a failing op is counted, not fatal
            error = f"op raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if traced:
            tracer.close(root)
            tracer.uninstall()
            record = {"probe_s": 0.0, "norm_s": None, "slowdown": None,
                      "samples": 0}
        else:
            probe.stop()
            slowdown = probe.slowdown()
            cpu -= probe.spent
            record = {"probe_s": probe.spent,
                      "norm_s": (wall - probe.spent) / slowdown,
                      "slowdown": slowdown, "samples": len(probe.samples)}
        if error is None:
            try:
                error = workload.check(i, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            print(f"op {i} failed: {error}", file=sys.stderr)
        ops.append({"op": i, "wall_s": wall, "cpu_s": cpu, **record,
                    "traced": traced, "error": error})
        measured += wall
        i += 1
    return ops


def source_facts():
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = {}
    for f in files:
        data = f.read_bytes()
        rel = str(f.relative_to(ROOT))
        digest.update(rel.encode() + b"\0" + data)
        lines[rel] = data.count(b"\n")
    return {"src_lines": sum(lines.values()), "src_lines_by_file": lines,
            "src_sha256": digest.hexdigest()}


def git_commit():
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "corrpoly" / "__init__.py").is_file():
        print(f"no package source at {SRC}/corrpoly", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    name = "hull-3x2" if args.extended else args.workload
    workdir = OUT / f"work-{name}-{os.getpid()}"
    try:
        probe = SpeedProbe()
        cp, workload, setup_times = setup(args, workdir, probe)
        tracer = Tracer(cp) if args.trace or args.extended else None
        ops = run_ops(args, workload, tracer, probe)
        rss = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(op["error"] is not None for op in ops)
    untraced = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    walls = [op["wall_s"] for op in untraced]
    norms = [op["norm_s"] for op in untraced]
    end_to_end = {
        "op_s": (statistics.median(norms), "s") if norms else None,
        "setup_s": (statistics.median(n for _, n in setup_times), "s"),
        "peak_rss_mb": (rss, "MB"),
        "fail_ratio": (failed / len(ops), "ratio"),
        "op_wall_s": (statistics.median(walls), "s") if walls else None,
        "op_wall_min_s": (min(walls), "s") if walls else None,
        "setup_wall_s": (statistics.median(w for w, _ in setup_times), "s"),
        "slowdown": (statistics.median(op["slowdown"] for op in untraced), "x")
        if untraced else None,
    }
    op_tail = tail(norms)
    layers = {}
    if tracer is not None:
        layers = tracer.layer_metrics(len(traced))
        if untraced:
            layers["process.cpu_s"] = (
                statistics.median(op["cpu_s"] for op in untraced), "s")
            # Each traced op follows an untraced one: pairs share machine state.
            layers["trace.overhead_s"] = (statistics.median(
                ops[i]["wall_s"] - (ops[i - 1]["wall_s"] - ops[i - 1]["probe_s"])
                for i in range(1, len(ops), 2)), "s")
        else:
            layers["process.cpu_s"] = (
                statistics.median(op["cpu_s"] for op in traced), "s")

    if tracer is None:
        reported = {k: end_to_end[k] for k in GATED}
    else:
        reported = {k: v for k, v in layers.items() if k not in UNREPORTED_LAYERS}

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"BENCH_{name}_seed{args.seed}_trace{int(tracer is not None)}"
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": tracer is not None, "commit": git_commit(), **source_facts(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "setup_times_s": [{"wall_s": w, "norm_s": n} for w, n in setup_times],
        "attempted": len(ops), "failed": failed, "ops": ops,
        "end_to_end": {k: {"value": v[0], "unit": v[1]}
                       for k, v in end_to_end.items() if v is not None},
        "op_s_tail": op_tail,
        "layers": {k: {"value": v[0], "unit": v[1]} for k, v in layers.items()},
    }
    if tracer is not None:
        spans = OUT / f"{stem}.spans.jsonl"
        tracer.write_spans(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {name}  seed {args.seed}  ops {len(ops)} "
          f"({len(traced)} traced, {failed} failed)")
    for key, value in {**end_to_end, **layers}.items():
        if value is not None:
            print(f"  {key:34s} {value[0]:.6g} {value[1]}")
    if op_tail is None:
        print(f"  {'op_s_tail':34s} none ({len(untraced)} untraced ops; "
              f"needs 20 for p50 with 10 beyond)")
    else:
        print(f"  {'op_s_tail':34s} p{op_tail['percentile']:g} "
              f"{op_tail['value']:.6g} s (n={op_tail['samples']}, "
              f"{op_tail['beyond']} beyond)")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
