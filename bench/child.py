"""One iteration of one workload, in a fresh interpreter.

    python3 bench/child.py WORKLOAD INPUT_DIR OUT_JSON TRACE RUN_ID [SHAPE]

run.py starts this with PYTHONPATH pointing at the checkout's src/.  The
inputs are read and parsed before the clock starts; the timed region holds
only the calls a user of the workload waits for.  For CLI workloads the
report goes to this process's standard output, which run.py points at a
file.  The timed calls sit between two calibrations (calibration.py).
What the harness checks afterwards is written to OUT_JSON, and with
TRACE=1 the spans are written next to it.  SHAPE limits an LR workload to
the shape at that index of its list.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from calibration import calibrate


def _cli(argv):
    from theta_factor import cli

    def timed():
        code = cli.run(argv)
        sys.stdout.flush()
        return {"exit": code}

    return timed


def tree_json(inputs: Path, part, recorder):
    return _cli(["decompose", str(inputs / "spec.json")])


def identities(inputs: Path, part, recorder):
    params = json.loads((inputs / "params.json").read_text())
    return _cli(
        ["identities", "--max-rank", str(params["max_rank"]), "--max-level", str(params["max_level"])]
    )


def tree_aggregate(inputs: Path, part, recorder):
    from theta_factor import factorization, parabolic

    spec = parabolic.ModuliSpec.from_json_dict(json.loads((inputs / "spec.json").read_text()))
    value = json.loads((inputs / "params.json").read_text())["oracle"]

    def oracle(leaf):
        return value

    if recorder is not None:
        oracle = recorder.wrap("factorization.leaf_oracle", oracle)

    def timed():
        tree = factorization.build_tree(spec, spec.genus)
        return {"aggregate": factorization.aggregate_dimension(tree, oracle)}

    return timed


def lr_shapes(inputs: Path, part, recorder):
    from theta_factor import symmetric_functions

    shapes = json.loads((inputs / "shapes.json").read_text())
    if part is not None:
        shapes = shapes[int(part) : int(part) + 1]

    def timed():
        clock = time.perf_counter
        latencies = []
        terms = []
        for lam, mu in shapes:
            start = clock()
            expansion = symmetric_functions.skew_schur_expand(lam, mu)
            checked = [
                [list(nu), coeff, symmetric_functions.lr_coefficient(mu, nu, lam)]
                for nu, coeff in expansion.items()
            ]
            latencies.append(clock() - start)
            terms.append(checked)
        return {"latency_s": latencies, "terms": terms}

    return timed


WORKLOADS = {
    "tree-json": tree_json,
    "tree-aggregate": tree_aggregate,
    "identities": identities,
    "lr-box": lr_shapes,
    "lr-large": lr_shapes,
}


def _kostka_cache():
    from theta_factor import symmetric_functions

    kostka = getattr(symmetric_functions, "_kostka", None)
    if kostka is None or not hasattr(kostka, "cache_info"):
        return [0, 0]
    info = kostka.cache_info()
    return [info.hits, info.misses]


def peak_rss_kb() -> int:
    """This process's own peak resident set.  ru_maxrss would also count
    the harness's memory, which a child inherits when it is spawned."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    workload, inputs, out_path, trace, run_id, *part = argv
    recorder = None
    if trace == "1":
        import tracer

        recorder = tracer.Recorder(run_id)
    timed = WORKLOADS[workload](Path(inputs), part[0] if part else None, recorder)
    if recorder is not None:
        # after the inputs are parsed, so only the timed calls are traced
        tracer.install(recorder)
    before = calibrate(2)
    start = time.perf_counter()
    outcome = timed()
    outcome["wall_s"] = time.perf_counter() - start
    outcome["peak_rss_kb"] = peak_rss_kb()
    outcome["calibration_s"] = (before + calibrate(2)) / 2
    outcome["kostka"] = _kostka_cache()
    if recorder is not None:
        recorder.dump(Path(out_path).with_suffix(".spans.json"))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(outcome, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
