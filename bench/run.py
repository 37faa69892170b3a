#!/usr/bin/env python3
"""theta-factor benchmark: five workloads, each timed in fresh interpreters.

    python3 bench/run.py --workload tree-json --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Run from anywhere inside a checkout; the program is taken from its src/.
Every iteration of a workload is one child process (bench/child.py) with a
pinned environment, so no cache survives from one iteration to the next.
The harness makes the inputs from --seed, starts children until --seconds
are used, checks every output outside the timed region, and prints each
metric by name with its unit.  Timings are scaled to a reference machine
speed (calibration.py).  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from
traced children.  bench/README.md describes the metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

from calibration import scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_SAMPLES = 9
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 120

# Child environment: no thread pool for the identity sweep, fixed hashing.
PINNED_ENV = {"PYTHONHASHSEED": "0", "PYTHONPATH": "src"}
REMOVED_ENV = ("THETA_FACTOR_THREADS", "PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Functions the traced run reports calls, self time and errors for.
SPANNED = (
    "cli.run",
    "factorization.build_tree",
    "factorization.degenerate",
    "factorization.mu_to_boundary",
    "factorization.aggregate_dimension",
    "factorization.leaf_oracle",
    "factorization.DecompositionTree.to_json_dict",
    "factorization.verify_boundary_balance",
    "parabolic.check_star",
    "parabolic.ModuliSpec.__post_init__",
    "parabolic.MarkedPoint.__post_init__",
    "parabolic.ModuliSpec.from_json_dict",
    "symmetric_functions.skew_schur_expand",
    "symmetric_functions.lr_coefficient",
    "partitions.dim_schur",
    "partitions.enumerate_in_box",
    "partitions.partitions_of",
    "branching.verify_branching_identity",
    "branching.decompose_rectangular",
    "codimension.telescoping_check",
)
SPAN_STATS = {"calls": "count", "self_s": "s", "errors": "count"}
DERIVED = {
    "cli.run.report_bytes": "B",
    "factorization.mu_to_boundary.distinct_ratio": "ratio",
    "parabolic.check_star.per_node": "ratio",
    "symmetric_functions.skew_schur_expand.terms": "count",
    "symmetric_functions.kostka.hits": "count",
    "symmetric_functions.kostka.misses": "count",
    "call_ms.p50": "ms",
    "call_ms.p99": "ms",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER = {
    **{f"{fn}.{stat}": unit for fn in SPANNED for stat, unit in SPAN_STATS.items()},
    **DERIVED,
}


# ---------------------------------------------------------------- inputs


def _compositions(total):
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for rest in _compositions(total - head):
            yield (head,) + rest


def _partitions(total, max_parts, max_part):
    """Partitions of total, largest parts first, within the given caps."""
    if total == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for head in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - head, max_parts - 1, head):
            yield (head,) + rest


def _contains(outer, inner):
    return len(inner) <= len(outer) and all(a >= b for a, b in zip(outer, inner))


def _star_sides(spec):
    """(lhs, rhs) of the level balance, by this harness's own arithmetic.

    lhs = r*ell + sum over points of (sum_i d_i*r_i + r*alpha),
    rhs = k*(degree + r*(1 - g)), with d_i the weight steps and r_i the
    partial sums of the flag.
    """
    r, k = spec["rank"], spec["level"]
    lhs = r * spec["ell"]
    for pt in spec["points"]:
        w, flag = pt["weights"], pt["flag"]
        r_i = [sum(flag[: i + 1]) for i in range(len(flag))]
        lhs += sum((w[i + 1] - w[i]) * r_i[i] for i in range(len(w) - 1)) + r * pt["alpha"]
    return lhs, k * (spec["degree"] + r * (1 - spec["genus"]))


def balanced_spec(rng, genus, rank, level, npoints):
    """A seeded spec that satisfies the balance.

    The seed picks point labels, which points get a two-step flag, the
    flags and the weights.  Genus, rank, level, the number of points and
    the number of two-step flags are fixed, so the cost of the tree and
    the size of its report hardly move with the seed.
    """
    two_step = [c for c in _compositions(rank) if len(c) == 2] or [(rank,)]
    stepped = set(rng.sample(range(npoints), npoints // 2))
    labels = set()
    points = []
    for i in range(npoints):
        label = "p" + "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(5))
        while label in labels:
            label = "p" + "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(5))
        labels.add(label)
        flag = list(rng.choice(two_step)) if i in stepped else [rank]
        weights = sorted(rng.sample(range(level + 1), len(flag)))
        points.append(
            {"label": label, "flag": flag, "weights": weights, "alpha": rng.randrange(level)}
        )
    spec = {"genus": genus, "rank": rank, "degree": 0, "level": level, "ell": 1, "points": points}
    for ell in range(1, level + 1):
        spec["ell"] = ell
        lhs, _ = _star_sides(spec)
        if lhs % level == 0:
            spec["degree"] = lhs // level - rank * (1 - genus)
            return spec
    raise ValueError(f"no ell in 1..{level} balances rank {rank} and these points")


def tree_counts(genus, rank, level):
    """(nodes, leaves) of the full tree: N = C(r+k-1, r) children per node."""
    n = math.comb(rank + level - 1, rank)
    return sum(n**i for i in range(genus + 1)), n**genus


def _write_json(path, data):
    blob = (json.dumps(data, indent=2) + "\n").encode()
    path.write_bytes(blob)
    return blob


TREE_JSON = {"genus": 4, "rank": 2, "level": 3, "points": 2}
TREE_AGGREGATE = {"genus": 5, "rank": 2, "level": 3, "points": 4}
IDENTITIES = {"max_rank": 7, "max_level": 8}
# The 6-row regime of the determinant route: every shape runs 1,600 to
# 6,700 Kostka counts that share nothing.  Single shapes cost 0.36-1.58 s,
# so a seeded choice of shapes would move the run time by more than the
# bound; the handful is fixed and the seed only orders it.
LR_LARGE = [
    [[6, 5, 4, 3, 2, 1], [4, 1, 1]],
    [[6, 5, 4, 3, 2, 1], [3, 2, 1]],
    [[6, 5, 4, 3, 2, 1], [2, 2, 2]],
    [[4, 4, 4, 3, 3, 3], [4, 1, 1]],
]


def make_inputs(workload, seed, directory):
    """Write the workload's input files; return what the checks need."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in ("tree-json", "tree-aggregate"):
        size = TREE_JSON if workload == "tree-json" else TREE_AGGREGATE
        spec = balanced_spec(rng, size["genus"], size["rank"], size["level"], size["points"])
        blob = _write_json(directory / "spec.json", spec)
        nodes, leaves = tree_counts(size["genus"], size["rank"], size["level"])
        meta = {"items": nodes, "nodes": nodes, "leaves": leaves, "spec": spec,
                "input_sha256": hashlib.sha256(blob).hexdigest()}
        if workload == "tree-aggregate":
            meta["oracle"] = rng.randrange(1, 1000)
            _write_json(directory / "params.json", {"oracle": meta["oracle"]})
        return meta
    if workload == "identities":
        # the sweep is fixed by its flags: the seed has no effect here
        _write_json(directory / "params.json", IDENTITIES)
        balance = sum(
            math.comb(r + k - 1, r)
            for r in range(1, IDENTITIES["max_rank"] + 1)
            for k in range(1, IDENTITIES["max_level"] + 1)
        )
        # telescoping: every composition of r = 1..8; branching: rank 1..3, power 0..4
        cases = {"balance": balance, "telescoping": 2**8 - 1, "branching": 3 * 5}
        return {"items": sum(cases.values()), "cases": cases}
    if workload == "lr-box":
        shapes = [
            [list(lam), list(mu)]
            for size in range(17)
            for lam in _partitions(size, 4, 4)
            for mu_size in range(size + 1)
            for mu in _partitions(mu_size, 4, 4)
            if _contains(lam, mu)
        ]
    else:
        shapes = [list(shape) for shape in LR_LARGE]
    rng.shuffle(shapes)
    _write_json(directory / "shapes.json", shapes)
    return {"items": len(shapes), "shapes": shapes}


# ---------------------------------------------------------------- checks


def check_tree_report(meta, blob):
    """Failure messages for one decompose report (empty when it is right)."""
    try:
        envelope = json.loads(blob)
        result = envelope["result"]
        problems = []
        if envelope["command"] != "decompose":
            problems.append("command is not decompose")
        if envelope["input_sha256"] != meta["input_sha256"]:
            problems.append("input_sha256 is not the sha256 of the spec bytes")
        if (result["nodes"], result["leaves"]) != (meta["nodes"], meta["leaves"]):
            problems.append(f"report counts {result['nodes']} nodes, {result['leaves']} leaves")
        if result["tree"]["spec"] != meta["spec"]:
            problems.append("root spec differs from the input")
        nodes = leaves = 0
        stack = [(result["tree"], meta["spec"]["genus"])]
        while stack:
            node, genus = stack.pop()
            nodes += 1
            lhs, rhs = _star_sides(node["spec"])
            if lhs != rhs or node["spec"]["genus"] != genus:
                return problems + [f"a node at genus {genus} does not balance"]
            leaves += not node["children"]
            stack.extend((edge["node"], genus - 1) for edge in node["children"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"report is malformed: {exc!r}"]
    if (nodes, leaves) != (meta["nodes"], meta["leaves"]):
        problems.append(f"tree has {nodes} nodes and {leaves} leaves")
    return problems


def check_identities_report(meta, blob):
    try:
        result = json.loads(blob)["result"]
        counts = {sweep["name"]: sweep["cases"] for sweep in result["sweeps"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report is malformed: {exc!r}"]
    problems = [] if result.get("all_pass") is True else ["all_pass is not true"]
    if counts != meta["cases"]:
        problems.append(f"case counts {counts} != {meta['cases']}")
    return problems


@lru_cache(maxsize=None)
def _syt(outer, inner):
    """Standard tableaux of the skew shape outer/inner (padded tuples)."""
    if outer == inner:
        return 1
    total = 0
    for i, row in enumerate(outer):
        below = outer[i + 1] if i + 1 < len(outer) else 0
        if row > inner[i] and row > below:
            total += _syt(outer[:i] + (row - 1,) + outer[i + 1:], inner)
    return total


def _padded(parts, rows):
    return tuple(parts) + (0,) * (rows - len(parts))


def check_lr_shape(lam, mu, terms):
    """Both routes agree on every term, and the terms account for all
    standard tableaux of lam/mu (so no term is missing)."""
    rows = max(len(lam), 1)
    size = sum(lam) - sum(mu)
    if any(
        coeff != lr or coeff < 1 or sum(nu) != size or len(nu) > rows
        for nu, coeff, lr in terms
    ):
        return False
    total = sum(coeff * _syt(_padded(nu, rows), (0,) * rows) for nu, coeff, _ in terms)
    return total == _syt(_padded(lam, rows), _padded(mu, rows))


# ---------------------------------------------------------------- children


def child_env():
    env = {key: value for key, value in os.environ.items() if key not in REMOVED_ENV}
    env.update(PINNED_ENV)
    return env


def measure_setup(samples):
    """Seconds from spawning a fresh interpreter until theta_factor.cli is
    imported, scaled by a calibration the new interpreter runs afterwards."""
    code = (
        "import time, theta_factor.cli; done = time.monotonic_ns(); import sys; "
        "sys.path.insert(0, 'bench'); from calibration import calibrate; "
        "print(done, calibrate(1))"
    )
    values = []
    for _ in range(samples):
        start = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"theta_factor.cli does not import: {done.stderr.strip()}")
        imported, calibration_s = done.stdout.split()
        values.append(scaled((int(imported) - start) / 1e9, float(calibration_s)))
    return values


def layer_stats(trace):
    """Per function: [calls, self ns (span minus child spans), errors]."""
    names, spans = trace["names"], trace["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = {}
    for index, (name_index, start, end, _, error) in enumerate(spans):
        entry = stats.setdefault(names[name_index], [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start - child_ns[index]
        entry[2] += error
    return stats


def run_child(workload, inputs, trace, run_id, part):
    """One child process: (outcome or None, stdout bytes, stderr text)."""
    out_path = inputs / f"out-{trace}.json"
    report_path = inputs / f"stdout-{trace}.txt"
    out_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(inputs), str(out_path),
            str(trace), run_id] + ([] if part is None else [str(part)])
    with open(report_path, "wb") as report:
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=report,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    blob = report_path.read_bytes()
    if done.returncode != 0 or not out_path.exists():
        return None, blob, done.stderr.decode(errors="replace")
    outcome = json.loads(out_path.read_text())
    outcome["scaled_s"] = scaled(outcome["wall_s"], outcome["calibration_s"])
    if trace:
        spans = json.loads(out_path.with_suffix(".spans.json").read_text())
        outcome["stats"] = layer_stats(spans)
        outcome["distinct"] = spans["distinct_args"].get("factorization.mu_to_boundary", 0)
    return outcome, blob, ""


def run_iteration(workload, meta, inputs, trace, run_id):
    """One measured iteration: one child, or for lr-large one child per shape,
    so that no Kostka count is shared between shapes."""
    parts = range(len(meta["shapes"])) if workload == "lr-large" else [None]
    outcomes = []
    for part in parts:
        child_id = run_id if part is None else f"{run_id}.{part}"
        outcome, blob, error = run_child(workload, inputs, trace, child_id, part)
        if outcome is None:
            return None, blob, error
        outcomes.append(outcome)
    if len(outcomes) == 1:
        return outcomes[0], blob, ""
    merged = {
        "wall_s": sum(o["wall_s"] for o in outcomes),
        "scaled_s": sum(o["scaled_s"] for o in outcomes),
        "calibration_s": statistics.median(o["calibration_s"] for o in outcomes),
        "peak_rss_kb": max(o["peak_rss_kb"] for o in outcomes),
        "kostka": [sum(o["kostka"][i] for o in outcomes) for i in (0, 1)],
        "latency_s": [s for o in outcomes for s in o["latency_s"]],
        "terms": [t for o in outcomes for t in o["terms"]],
    }
    if trace:
        merged["distinct"] = sum(o["distinct"] for o in outcomes)
        merged["stats"] = {}
        for o in outcomes:
            for name, entry in o["stats"].items():
                total = merged["stats"].setdefault(name, [0, 0, 0])
                for i in range(3):
                    total[i] += entry[i]
    return merged, blob, ""


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, attempted, failed, reason=None):
        self.attempted += attempted
        self.failed += failed
        if reason and len(self.reasons) < 5:
            self.reasons.append(reason)


def check_outcome(workload, meta, outcome, blob, tally, verdicts):
    """Check one iteration's outputs; count its operations.  verdicts maps
    each distinct CLI report's sha256 to its problems."""
    if workload.startswith("lr-"):
        bad = sum(
            not check_lr_shape(lam, mu, terms)
            for (lam, mu), terms in zip(meta["shapes"], outcome["terms"])
        )
        bad += len(meta["shapes"]) - len(outcome["terms"])
        tally.add(len(meta["shapes"]), bad, f"{bad} shapes failed their check" if bad else None)
        return
    if workload == "tree-aggregate":
        expected = meta["oracle"] * meta["leaves"]
        ok = outcome["aggregate"] == expected
        tally.add(1, 0 if ok else 1, None if ok else f"aggregate {outcome['aggregate']} != {expected}")
        return
    problems = [] if outcome["exit"] == 0 else [f"exit code {outcome['exit']}"]
    digest = hashlib.sha256(blob).hexdigest()
    if digest not in verdicts:
        check = check_tree_report if workload == "tree-json" else check_identities_report
        verdicts[digest] = check(meta, blob)
    problems += verdicts[digest]
    if len(verdicts) > 1:
        problems.append("stdout differs between runs of one seed")
    tally.add(1, 1 if problems else 0, "; ".join(problems) or None)


# ---------------------------------------------------------------- metrics


def end_to_end_metrics(meta, setup, untraced):
    walls = [o["scaled_s"] for o in untraced]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "items_per_s": statistics.median(meta["items"] / w for w in walls),
        "peak_rss_mb": statistics.median(o["peak_rss_kb"] / 1024 for o in untraced),
    }


def layer_values(outcome, blob, terms):
    """Per-layer values of one traced iteration."""
    values = {}
    for fn in SPANNED:
        calls, self_ns, errors = outcome["stats"].get(fn, (0, 0, 0))
        values[f"{fn}.calls"] = calls
        values[f"{fn}.self_s"] = scaled(self_ns / 1e9, outcome["calibration_s"])
        values[f"{fn}.errors"] = errors
    mu_calls = values["factorization.mu_to_boundary.calls"]
    nodes = values["factorization.build_tree.calls"]
    values["cli.run.report_bytes"] = len(blob) if values["cli.run.calls"] else 0
    values["factorization.mu_to_boundary.distinct_ratio"] = (
        outcome["distinct"] / mu_calls if mu_calls else 0
    )
    values["parabolic.check_star.per_node"] = (
        values["parabolic.check_star.calls"] / nodes if nodes else 0
    )
    values["symmetric_functions.skew_schur_expand.terms"] = sum(len(shape) for shape in terms)
    hits, misses = outcome["kostka"]
    values["symmetric_functions.kostka.hits"] = hits
    values["symmetric_functions.kostka.misses"] = misses
    return values


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def layer_metrics(workload, untraced, traced):
    """Medians over traced iterations, plus latency and overhead from untraced ones."""
    # median_low keeps counts whole; they repeat exactly anyway
    metrics = {
        name: statistics.median_low(o["layers"][name] for o in traced)
        for name in traced[0]["layers"]
    }
    # per-shape latency needs >= 1,000 calls in a run; only lr-box has them
    if workload == "lr-box":
        pooled = [scaled(s, o["calibration_s"]) * 1e3 for o in untraced for s in o["latency_s"]]
        metrics["call_ms.p50"] = statistics.median(pooled)
        metrics["call_ms.p99"] = percentile(pooled, 0.99)
    else:
        metrics["call_ms.p50"] = metrics["call_ms.p99"] = 0
    metrics["trace.overhead_ratio"] = statistics.median(
        o["scaled_s"] for o in traced
    ) / statistics.median(o["scaled_s"] for o in untraced)
    return metrics


# ---------------------------------------------------------------- runs


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; return the result object and a context record."""
    inputs = WORK / workload
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    meta = make_inputs(workload, seed, inputs)

    # the first import in a fresh checkout compiles the package: not timed
    setup = measure_setup(1 if trace else SETUP_SAMPLES + 1)[1:]

    tally = Tally()
    verdicts = {}
    untraced, traced = [], []
    deadline = time.monotonic() + seconds
    longest = 0.0
    iteration = failures = 0
    # a traced run alternates untraced and traced iterations
    while failures < 2 * MIN_ITERATIONS and (
        min(len(untraced), len(traced) if trace else MIN_ITERATIONS) < MIN_ITERATIONS
        or time.monotonic() + longest < deadline
    ):
        mode = iteration % 2 if trace else 0
        began = time.monotonic()
        run_id = f"{workload}-seed{seed}-{iteration}"
        outcome, blob, error = run_iteration(workload, meta, inputs, mode, run_id)
        longest = max(longest, time.monotonic() - began)
        iteration += 1
        if outcome is None:
            failures += 1
            # an operation is a shape for lr-*, else the whole call
            ops = meta["items"] if workload.startswith("lr-") else 1
            tally.add(ops, ops, f"child failed: {error.strip()[-300:]}")
            continue
        check_outcome(workload, meta, outcome, blob, tally, verdicts)
        terms = outcome.pop("terms", ())
        if mode:
            outcome["layers"] = layer_values(outcome, blob, terms)
            traced.append(outcome)
        else:
            untraced.append(outcome)

    units = PER_LAYER if trace else END_TO_END
    metrics = {}
    if untraced and (traced or not trace):
        metrics = layer_metrics(workload, untraced, traced) if trace else end_to_end_metrics(
            meta, setup, untraced
        )
    complete = set(metrics) == set(units)
    result = {
        "correct": tally.failed == 0 and complete,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if complete else max(tally.failed, 1),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "raw_wall_s": statistics.median(o["wall_s"] for o in untraced) if untraced else None,
        "calibration_s": statistics.median(o["calibration_s"] for o in untraced) if untraced else None,
        "failed_ratio": tally.failed / max(tally.attempted, 1),
        "failures": tally.reasons,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "child_env": {**PINNED_ENV, "removed": list(REMOVED_ENV)},
    }
    return result, context


def describe(workload, result, context):
    counts = context["iterations"]
    lines = [f"== {workload}: {counts['untraced']} untraced and {counts['traced']} traced "
             f"iterations, failed_ratio {context['failed_ratio']:.4g} "
             f"({result['failed']}/{result['attempted']})"]
    lines += [f"   failure: {reason}" for reason in context["failures"]]
    lines += [f"   {name} = {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    return "\n".join(lines)


WORKLOAD_NAMES = ("tree-json", "tree-aggregate", "identities", "lr-box", "lr-large")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "theta_factor" / "__init__.py").is_file():
        print(f"no theta_factor package under {SRC}: run inside a checkout", file=sys.stderr)
        return 1
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result, context = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: cannot run the benchmark: {exc}", file=sys.stderr)
            return 1
        print(describe(name, result, context))
        print("context " + json.dumps(context, sort_keys=True))
        if len(names) == 1:
            summary = result
            break
        print(json.dumps(result))
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
