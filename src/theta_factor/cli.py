"""Command-line front end emitting deterministic JSON, text, and CSV reports.

Every report embeds the tool version and a sha256 of its input: the raw
file bytes for file-driven commands, the canonical parameter JSON for
flag-driven ones.  Output bytes are identical across repeated runs on
the same input.  Exit status is 0 on success, 1 on validation errors
(with a machine-readable JSON object on standard error), and 2 when an
identity sweep reports a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from itertools import chain, islice

from . import __version__
from .branching import decompose_rectangular, verify_branching_identity
from .codimension import (
    StratumDatum,
    double_det_dim,
    gps_codim_bounds,
    quot_codim_bounds,
    schubert_codim,
    telescoping_check,
)
from .factorization import (
    LeafOracleError,
    aggregate_dimension,
    boundary_levels,
    build_tree,
    mu_indices,
)
from .parabolic import MAX_INT_DIGITS, ModuliSpec, _reject_long_ints, check_star
from .partitions import MAX_ECHO, Partition, _weyl_pairs, dim_schur

TOOL_NAME = "theta-factor"

# Work bounds, checked against a closed-form size before anything is built.
# Every mu is padded to rank entries, so the rank of branch, identities and
# decompose is capped too.
MAX_RANK = 1_000
# A decompose tree of depth d with N = C(rank+level-1, rank) children per
# node has N^0 + ... + N^d nodes; the cap admits the genus-5, rank-2,
# level-3 tree (9,331 nodes).  The depth cap matters only at level 1,
# where N = 1 and the tree is a chain: every node repeats all inherited
# points, indented two spaces per nesting level, so the JSON report grows
# with the cube of the depth (12 MB at 64, 43 MB at 100, 332 MB at 200,
# 1.1 GB at 300).  That size sets the cap; memory does not grow with it, as
# the report goes out in batches.  _indented_json recurses once per container,
# three per tree level, and at the default recursion limit renders chains up
# to 330 levels; to_json_dict up to 496.
MAX_TREE_NODES = 10_000
MAX_TREE_DEPTH = 64
# branch writes one row per mu in the rank x power box, C(rank+power, rank).
MAX_BRANCH_ROWS = 10_000
# The identities balance sweep checks C(r+k-1, r) cases for every rank r
# and level k up to its bounds; the other two sweeps are fixed.
MAX_BALANCE_CASES = 50_000
# dims multiplies min(Weyl pairs, |lam|) factors, each at most lam_1 + vars
# (partitions.dim_schur); their digits bound the numerator.  A numerator
# of that size takes about half a second.
MAX_DIMS_DIGITS = 100_000
# reports reach standard output this many JSON chunks or text lines at a time
BATCH = 4096

class CLIError(Exception):
    """A reportable failure: carries the machine-readable error type."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the exit codes here reserve 2
    # for identity failures, so usage problems become validation errors.
    # error() quotes long arguments, then long --flag=value values, short.
    _long_texts = ()

    def parse_known_args(self, args=None, namespace=None):
        argv = sys.argv[1:] if args is None else args
        texts = [*argv, *(arg.partition("=")[2] for arg in argv)]
        self._long_texts = sorted((t for t in texts if len(t) > MAX_ECHO), key=len, reverse=True)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        for text in self._long_texts:
            message = message.replace(repr(text), _quoted(text)).replace(text, _quoted(text))
        raise CLIError("usage", message)

    def add_argument(self, *names, **kwargs):
        # integer flags are capped, and one too long for int() is named, not echoed
        if kwargs.get("type") is int:
            flag = names[0]

            def parse(text: str) -> int:
                try:
                    return _parse_int(text, flag)
                except ValueError:
                    raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}") from None

            kwargs["type"] = parse
        return super().add_argument(*names, **kwargs)


def _quoted(text: str) -> str:
    """repr(text), or for long text the repr of its start and its length."""
    return repr(text) if len(text) <= MAX_ECHO else f"{text[:MAX_ECHO]!r}... ({len(text)} characters)"


def _sha256_bytes(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _canonical_sha256(value) -> str:
    """sha256 of the sorted, compact JSON of value (parameters or a spec)."""
    return _sha256_bytes(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    )


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise CLIError("io", f"cannot read {path}: {exc}") from exc


def _parse_json(blob: bytes, what: str):
    """The JSON value in an input file; what names the file in errors."""
    try:
        return json.loads(blob)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CLIError("validation", f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        # the stdlib decoder recurses once per nested array or object
        raise CLIError("validation", f"{what} nests JSON arrays or objects too deeply") from None
    except ValueError:
        # the only other ValueError: an integer longer than int() converts
        raise CLIError(
            "validation",
            f"{what} holds an integer of more than {sys.get_int_max_str_digits()} digits",
        ) from None


def _load_spec(path: str, blob: bytes) -> ModuliSpec:
    return ModuliSpec.from_json_dict(_parse_json(blob, path))


def _too_long(what: str) -> CLIError:
    return CLIError("validation", f"{what} has more than {MAX_INT_DIGITS} digits")


def _parse_int(text: str, what: str) -> int:
    """int(text), capped like a spec's integers so a report value can be printed.

    Decimal text too long for int() to convert is over the cap too.
    """
    try:
        value = int(text)
    except ValueError:
        digits = text.strip().lstrip("+-").replace("_", "")
        if len(digits) > MAX_INT_DIGITS and digits.isdecimal():
            raise _too_long(what) from None
        raise
    if abs(value) >= 10**MAX_INT_DIGITS:
        raise _too_long(what)
    return value


def _int_array(flag: str):
    """argparse type for a flag whose value is a JSON array of integers."""

    def parse(text: str) -> list:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CLIError("usage", f"{flag} expects a JSON array of integers: {exc}") from exc
        except RecursionError:
            raise CLIError("usage", f"{flag} nests JSON arrays or objects too deeply") from None
        except ValueError:
            # the only other ValueError: an integer longer than int() converts
            raise _too_long(f"{flag} entry") from None
        if not isinstance(data, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in data
        ):
            raise CLIError("usage", f"{flag} expects a JSON array of integers, got {_quoted(text)}")
        if any(abs(x) >= 10**MAX_INT_DIGITS for x in data):
            raise _too_long(f"{flag} entry")
        return data

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog=TOOL_NAME, description=__doc__)
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-star", help="evaluate the level balance condition on a spec file")
    p.add_argument("spec", help="path to a ModuliSpec JSON file")

    p = sub.add_parser("decompose", help="build the degeneration tree of a spec file")
    p.add_argument("spec", help="path to a ModuliSpec JSON file")
    p.add_argument("--depth", type=int, default=None, help="depth bound (default: the genus)")
    p.add_argument(
        "--oracle",
        default=None,
        help="leaf values: const:V or a JSON file mapping leaf sha256 to integer",
    )

    p = sub.add_parser("branch", help="rectangular branching table and dimension identity")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--power", type=int, required=True)

    p = sub.add_parser("dims", help="Schur module dimension")
    p.add_argument(
        "--partition", type=_int_array("--partition"), required=True, help="JSON array, e.g. [3,1]"
    )
    p.add_argument("--vars", type=int, required=True)

    p = sub.add_parser("codim", help="codimension and dimension formulas")
    kinds = p.add_subparsers(dest="kind", required=True)

    k = kinds.add_parser("schubert", help="flag incidence codimension")
    k.add_argument("--r1", type=int, required=True)
    k.add_argument(
        "--n", type=_int_array("--n"), required=True, help="JSON array of flag multiplicities"
    )
    k.add_argument("--m", type=_int_array("--m"), required=True, help="JSON array splitting r1")

    for name in ("quot", "gps"):
        k = kinds.add_parser(name, help=f"{name} stratum codimension bounds")
        k.add_argument("--rank", type=int, required=True)
        k.add_argument("--genus-tilde", type=int, required=True)
        k.add_argument("--points", type=int, required=True, help="number of marked points")

    k = kinds.add_parser("doubledet", help="double determinantal variety dimension")
    for flag in ("--a", "--b", "--p", "--q", "--rank"):
        k.add_argument(flag, type=int, required=True)

    p = sub.add_parser("identities", help="run the identity sweeps (balance, telescoping, branching)")
    p.add_argument("--max-rank", type=int, default=5, help="balance sweep rank bound")
    p.add_argument("--max-level", type=int, default=6, help="balance sweep level bound")

    # --format comes last on every command; csv only where a row writer exists
    parsers = {**sub.choices, **{f"codim.{kind}": k for kind, k in kinds.choices.items()}}
    for command in _HANDLERS:
        csv = ("csv",) if command in _CSV_ROWS else ()
        parsers[command].add_argument("--format", choices=("json", "text") + csv, default="json")
    return parser


# Each handler takes the parsed flags as keyword arguments (a file-driven
# command gets its parsed spec) and returns the report's result dict.


def _verify_star(spec: ModuliSpec) -> dict:
    lhs, rhs, holds = check_star(spec)
    return {"lhs": lhs, "rhs": rhs, "holds": holds, "derived_n": spec.derived_n()}


def _parse_oracle(text: str | None):
    if text is None:
        return None, None
    if text.startswith("const:"):
        try:
            value = _parse_int(text[len("const:"):], "oracle constant")
        except ValueError as exc:
            raise CLIError("usage", f"bad oracle constant: {_quoted(text)}") from exc
        return (lambda spec: value), f"const:{value}"
    blob = _read_file(text)
    table = _parse_json(blob, f"oracle table {text}")
    if not isinstance(table, dict) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in table.values()
    ):
        raise CLIError("validation", f"oracle table {text} must map leaf sha256 to integer")
    _reject_long_ints(table.values(), f"oracle table {text} entry")

    def lookup(spec: ModuliSpec) -> int:
        digest = spec.sha256()
        if digest not in table:
            raise ValueError(f"no oracle entry for leaf {digest}")
        return table[digest]

    return lookup, f"table:{_sha256_bytes(blob)}"


def _binomial(n: int, k: int, cap: int) -> int | None:
    """C(n, k), or None when it plainly exceeds cap: C(n, k) >= n for 0 < k < n."""
    if 0 < k < n and n > cap:
        return None
    return math.comb(n, k)


def _check_work(what: str, size: int | None, cap: int) -> None:
    """Reject work whose closed-form size is above cap (None: far above)."""
    if size is None or size > cap:
        estimate = f"more than {cap}" if size is None else size
        raise ValueError(f"{what} would be {estimate}, above the cap of {cap}")


def _check_tree_size(spec: ModuliSpec, depth: int) -> None:
    levels = min(depth, spec.genus)
    if levels < 1:
        return
    _check_work("decompose rank", spec.rank, MAX_RANK)
    _check_work("decompose tree depth", levels, MAX_TREE_DEPTH)
    n = _binomial(spec.rank + spec.level - 1, spec.rank, MAX_TREE_NODES)
    # a tree with one level has 1 + n nodes, so n above the cap settles it
    nodes = None if n is None or n > MAX_TREE_NODES else sum(n**i for i in range(levels + 1))
    _check_work("decompose node count", nodes, MAX_TREE_NODES)


def _decompose(spec: ModuliSpec, depth: int | None, oracle: str | None) -> dict:
    depth = spec.genus if depth is None else depth
    leaf_value, oracle_desc = _parse_oracle(oracle)
    _check_tree_size(spec, depth)
    tree = build_tree(spec, depth)
    aggregate = None
    if leaf_value is not None:
        try:
            aggregate = aggregate_dimension(tree, leaf_value)
        except LeafOracleError as exc:
            # the message already says "leaf oracle failed on <spec>"
            raise CLIError("validation", f"{exc} (leaf spec: {exc.spec.canonical_json()})") from exc
    return {
        "depth": depth,
        "oracle": oracle_desc,
        "nodes": tree.node_count(),
        "leaves": tree.leaf_count(),
        "aggregate": aggregate,
        "tree": tree.to_json_dict(),
    }


def _branch(rank: int, power: int) -> dict:
    if rank < 1 or power < 0:
        raise ValueError("need rank >= 1 and power >= 0")
    _check_work("branch rank", rank, MAX_RANK)
    _check_work("branch row count", _binomial(rank + power, rank, MAX_BRANCH_ROWS), MAX_BRANCH_ROWS)
    table = decompose_rectangular(rank, power)
    lhs, rhs, equal = table.identity()
    return {**table.to_json_dict(), "lhs": lhs, "rhs": rhs, "equal": equal}


def _dims(partition: list, vars: int) -> dict:
    lam = Partition(partition)
    if vars < 0:
        raise ValueError(f"--vars must be nonnegative, got {vars}")
    if len(lam) <= vars:
        # every factor has at least one digit, so a factor count above the cap settles it
        factors = min(_weyl_pairs(len(lam), vars), lam.size)
        largest = (lam[0] if lam else 0) + vars
        digits = None if factors > MAX_DIMS_DIGITS else factors * len(str(largest))
        _check_work("dims numerator digit count", digits, MAX_DIMS_DIGITS)
    dimension = dim_schur(lam, vars)
    limit = sys.get_int_max_str_digits()
    if limit and dimension >= 10**limit:
        raise ValueError(f"dims dimension has more than {limit} digits")
    return {"partition": list(lam), "vars": vars, "dimension": dimension}


def _schubert(r1: int, n: list, m: list) -> dict:
    codim = schubert_codim(StratumDatum(r1, n, m))
    return {"r1": r1, "n": n, "m": m, "codim": codim}


def _codim_bounds(bounds, names):
    """Handler for a stratum bound table: bounds(rank, genus_tilde, has_parabolic)."""

    def handler(rank: int, genus_tilde: int, points: int) -> dict:
        if rank < 1 or genus_tilde < 0 or points < 0:
            raise ValueError("need rank >= 1, genus-tilde >= 0, points >= 0")
        values = dict(zip(names, bounds(rank, genus_tilde, points > 0)))
        return {"rank": rank, "genus_tilde": genus_tilde, "points": points, **values}

    return handler


def _doubledet(a: int, b: int, p: int, q: int, rank: int) -> dict:
    value = double_det_dim(a, b, p, q, rank)
    return {"a": a, "b": b, "p": p, "q": q, "rank": rank, "dimension": value}


def _balance_worker(r: int, max_level: int):
    """Balance cases of rank r at levels 1..max_level, failures in (level, mu) order.

    The r x (k-1) box is the r x (max_level-1) box's mus with mu_1 < k, in
    order, so one walk serves every level: mu at levels mu_1+1..max_level.
    """
    count = 0
    failures = [[] for _ in range(max_level + 1)]
    for mu in mu_indices(r, max_level):
        levels = range((mu[0] if mu else 0) + 1, max_level + 1)
        for k, data in zip(levels, boundary_levels(mu, r, levels)):
            contribution, holds = data.balance(r, k)
            count += 1
            if not holds:
                failures[k].append(
                    {"mu": list(mu.padded(r)), "rank": r, "level": k, "contribution": contribution}
                )
    return count, [failure for level in failures for failure in level]


def _compositions(total: int):
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for rest in _compositions(total - head):
            yield (head,) + rest


def _telescoping_worker(r: int):
    flags = list(_compositions(r))
    return len(flags), [{"flag": list(flag)} for flag in flags if not telescoping_check(flag)]


def _branching_worker(case):
    r, m = case
    lhs, rhs, equal = verify_branching_identity(r, m)
    return 1, [] if equal else [{"rank": r, "power": m, "lhs": lhs, "rhs": rhs}]


def _sweep(name: str, worker, cases) -> dict:
    outcomes = [worker(case) for case in cases]
    return {
        "name": name,
        "cases": sum(count for count, _ in outcomes),
        "failures": [failure for _, chunk in outcomes for failure in chunk],
    }


def _balance_cases(max_rank: int, max_level: int) -> int | None:
    """Sum over r <= R, k <= K of C(r+k-1, r) = C(R+K+1, R+1) - K - 1.

    Every (r, k) adds at least one case, so R*K above the cap settles it
    (None) without the binomial.
    """
    if max_rank * max_level > MAX_BALANCE_CASES:
        return None
    return math.comb(max_rank + max_level + 1, max_rank + 1) - max_level - 1


def _identities(max_rank: int, max_level: int) -> dict:
    if max_rank < 1 or max_level < 1:
        raise ValueError("need --max-rank >= 1 and --max-level >= 1")
    _check_work("identities rank", max_rank, MAX_RANK)
    cases = _balance_cases(max_rank, max_level)
    _check_work("identities balance case count", cases, MAX_BALANCE_CASES)
    branching = [(r, m) for r in (1, 2, 3) for m in range(0, 5)]
    sweeps = [
        _sweep("balance", lambda r: _balance_worker(r, max_level), range(1, max_rank + 1)),
        _sweep("telescoping", _telescoping_worker, range(1, 9)),
        _sweep("branching", _branching_worker, branching),
    ]
    return {"sweeps": sweeps, "all_pass": all(not sweep["failures"] for sweep in sweeps)}


def _mu_text(values) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


def _text_rows(command: str, result: dict):
    if command == "branch":
        rows = result["rows"]
        mu_width = max(2, *(len(_mu_text(row["mu"])) for row in rows))
        yield f"{'mu'.ljust(mu_width)}  dim_left  dim_right"
        for row in rows:
            yield (
                f"{_mu_text(row['mu']).ljust(mu_width)}  "
                f"{str(row['dim_left']).ljust(8)}  {row['dim_right']}"
            )
        yield f"lhs = {result['lhs']}"
        yield f"rhs = {result['rhs']}"
        yield f"equal = {_bool_text(result['equal'])}"
    elif command == "identities":
        for sweep in result["sweeps"]:
            yield f"{sweep['name']}: {sweep['cases']} cases, {len(sweep['failures'])} failures"
            for failure in sweep["failures"]:
                yield f"  FAIL {json.dumps(failure, sort_keys=True)}"
        yield "all identities hold" if result["all_pass"] else "IDENTITY FAILURES FOUND"
    elif command == "decompose":
        yield f"depth = {result['depth']}"
        yield f"nodes = {result['nodes']}"
        yield f"leaves = {result['leaves']}"
        if result["aggregate"] is not None:
            yield f"aggregate = {result['aggregate']}"
        for depth, path, node in _tree_rows(result["tree"]):
            spec = node["spec"]
            label = ">".join(_mu_text(mu) for mu in path) or "(root)"
            yield (
                "  " * depth
                + f"{label}: genus={spec['genus']} degree={spec['degree']} points={len(spec['points'])}"
            )
    else:
        for key, value in result.items():
            if isinstance(value, bool):
                yield f"{key} = {_bool_text(value)}"
            elif isinstance(value, (int, str)):
                yield f"{key} = {value}"
            elif isinstance(value, list):
                yield f"{key} = {_mu_text(value)}"


def _tree_rows(tree_dict: dict, depth: int = 0, path: tuple = ()):
    yield depth, path, tree_dict
    for edge in tree_dict["children"]:
        yield from _tree_rows(edge["node"], depth + 1, path + (tuple(edge["mu"]),))


def _branch_csv(result: dict):
    yield "mu,dim_left,dim_right"
    for row in result["rows"]:
        yield f"\"{_mu_text(row['mu'])}\",{row['dim_left']},{row['dim_right']}"


def _decompose_csv(result: dict):
    yield "level,mu_path,leaf_sha256"
    for depth, path, node in _tree_rows(result["tree"]):
        if not node["children"]:
            mu_path = ">".join(_mu_text(mu) for mu in path)
            # a leaf's node["spec"] is its to_json_dict(), so this is its sha256()
            yield f"{depth},\"{mu_path}\",{_canonical_sha256(node['spec'])}"


# The commands that offer --format csv, with their row writers.
_CSV_ROWS = {"branch": _branch_csv, "decompose": _decompose_csv}


def _indented_json(value, out) -> None:
    """Write json.dumps(value, indent=2) to out, byte for byte, in batches of BATCH chunks.

    value holds str, int, None, True or False, in lists and str-keyed dicts;
    anything else raises TypeError.  json.dumps with indent neither streams nor
    uses its C encoder.  A batch ends only before an item of a list of dicts.
    A dict with no dict inside (the points to_json_dict shares) met again at a
    depth is joined once and its text reused there.  It recurses once per container.
    """
    chunks = []
    append = chunks.append
    encode = json.encoder.encode_basestring_ascii
    # (id, depth) of a dict with no dict inside -> its text there (None: met once)
    texts = {}
    # encoded key text with ": ", per key
    keys = {}
    # layouts[d]: the strings around the items of a container at depth d
    layouts = []

    def layout(depth):
        while len(layouts) <= depth:
            outer = "\n" + "  " * len(layouts)
            inner = outer + "  "
            layouts.append(("[" + inner, "{" + inner, "," + inner, outer + "]", outer + "}"))
        return layouts[depth]

    def write(value, depth):
        # returns whether value is or holds a dict; type tests in json.dumps' order (bool is an int)
        if isinstance(value, str):
            append(encode(value))
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif isinstance(value, (list, tuple)):
            if not value:
                append("[]")
                return False
            open_list, _, separator, close_list, _ = layout(depth)
            append(open_list)
            items = iter(value)
            nested = write(next(items), depth + 1)
            for item in items:
                if len(chunks) >= BATCH and isinstance(item, dict):
                    out("".join(chunks))
                    chunks.clear()
                append(separator)
                nested = write(item, depth + 1) or nested
            append(close_list)
            return nested
        elif isinstance(value, dict):
            memo = (id(value), depth)
            text = texts.get(memo) if value else "{}"
            if text is not None:
                append(text)
                return True
            start = len(chunks)
            nested = False
            _, prefix, separator, _, close_dict = layout(depth)
            for key, item in value.items():
                text = keys.get(key)
                if text is None:
                    if not isinstance(key, str):
                        raise TypeError(f"keys must be str, not {type(key).__name__}")
                    text = keys[key] = encode(key) + ": "
                append(prefix)
                append(text)
                prefix = separator
                nested = write(item, depth + 1) or nested
            append(close_dict)
            if not nested:
                texts[memo] = "".join(chunks[start:]) if memo in texts else None
            return True
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not a report value")

    write(value, 0)
    out("".join(chunks))


def _render(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        _indented_json(report, out)
        return out("\n")
    command, result = report["command"], report["result"]
    rows = _text_rows(command, result) if fmt == "text" else _CSV_ROWS[command](result)
    lines = chain([
        f"# {TOOL_NAME} {report['tool']['version']}",
        f"# command: {command}",
        f"# input sha256: {report['input_sha256']}",
    ], rows)
    while batch := list(islice(lines, BATCH)):
        out("\n".join(batch) + "\n")


_HANDLERS = {
    "verify-star": _verify_star,
    "decompose": _decompose,
    "branch": _branch,
    "dims": _dims,
    "codim.schubert": _schubert,
    "codim.quot": _codim_bounds(quot_codim_bounds, ("ss_minus_s", "f_minus_ss")),
    "codim.gps": _codim_bounds(gps_codim_bounds, ("h_minus_ss", "nonstable")),
    "codim.doubledet": _doubledet,
    "identities": _identities,
}


def run(argv=None) -> int:
    """Parse arguments, run one subcommand, print its report."""
    try:
        params = vars(_build_parser().parse_args(argv))
        command = params.pop("command")
        if command == "codim":
            command += "." + params.pop("kind")
        fmt = params.pop("format")
        if "spec" in params:
            blob = _read_file(params["spec"])
            input_sha256 = _sha256_bytes(blob)
            params["spec"] = _load_spec(params["spec"], blob)
        else:
            input_sha256 = _canonical_sha256({"command": command, **params})
        result = _HANDLERS[command](**params)
        report = {
            "tool": {"name": TOOL_NAME, "version": __version__},
            "command": command,
            "input_sha256": input_sha256,
            "result": result,
        }
        try:
            _render(report, fmt, sys.stdout.write)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed standard output: the rest, and the final flush, go nowhere
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 2 if result.get("all_pass") is False else 0
    except CLIError as err:
        error = {"type": err.kind, "message": str(err)}
    except ValueError as exc:
        error = {"type": "validation", "message": str(exc)}
    sys.stderr.write(json.dumps({"error": error}) + "\n")
    return 1


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
