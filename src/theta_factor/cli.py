"""Command-line front end emitting deterministic JSON, text, and CSV reports.

Every report embeds the tool version and a sha256 of its input: the raw
file bytes for file-driven commands, the canonical parameter JSON for
flag-driven ones.  Output bytes are identical across repeated runs on
the same input.  Exit status is 0 on success, 1 on validation errors
(with a machine-readable JSON object on standard error), and 2 when an
identity sweep reports a failure.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from itertools import chain, islice, product

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
    DecompositionTree,
    LeafOracleError,
    _boundary_data,
    aggregate_dimension,
    build_tree,
    mu_indices,
)
from .parabolic import MAX_INT_DIGITS, ModuliSpec, _canonical_sha256, _reject_long_ints, check_star
from .partitions import MAX_ECHO, Partition, _dimension_formula, _shown, dim_schur

TOOL_NAME = "theta-factor"

# Work bounds, checked by _check_work against a closed-form size before anything
# is built; a floor, a cheap lower bound on a size, above its cap settles the
# check.  Every mu is padded to rank entries, so the rank of branch, identities
# and decompose is capped too.
MAX_RANK = 1_000
# A decompose tree of depth d with N = C(rank+level-1, rank) children per
# node has N^0 + ... + N^d nodes, floor N; the cap admits the genus-5, rank-2,
# level-3 tree (9,331 nodes).  The depth cap matters only at level 1,
# where N = 1 and the tree is a chain: every node repeats all inherited
# points, indented six spaces deeper per tree level, so the JSON report grows
# with the cube of the depth (12 MB at 64, 43 MB at 100, 332 MB at 200,
# 1.1 GB at 300).  That size sets the cap; memory does not grow with it, as
# the report goes out BATCH characters at a time and _tree_json holds one
# level's points text at a time on a chain.  _tree_json nests one generator
# per tree level, so Python's default recursion limit (1,000) is far above the cap.
MAX_TREE_NODES = 10_000
MAX_TREE_DEPTH = 64
# branch writes one row per mu in the rank x power box, C(rank+power, rank),
# floor rank + power once power > 0, as C(n, k) >= n for 0 < k < n.
MAX_BRANCH_ROWS = 10_000
# The identities balance sweep checks C(r+k-1, r) >= 1 cases for every rank r
# and level k up to its bounds R and K, C(R+K+1, R+1) - K - 1 in all, floor
# R*K; the other two sweeps are fixed.
MAX_BALANCE_CASES = 50_000
# dims multiplies the F factors of partitions._dimension_formula, each at most
# lam_1 + vars; their digits bound the numerator, floor F.  A numerator of that
# size takes about half a second.
MAX_DIMS_DIGITS = 100_000
# reports reach standard output in writes of this many characters, the last one at most that
BATCH = 1 << 16

class CLIError(Exception):
    """A reportable failure: carries the machine-readable error type."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the exit codes here reserve 2
    # for identity failures, so usage problems become usage errors (exit 1).
    def error(self, message):
        raise CLIError("usage", message)

    def add_argument(self, *names, **kwargs):
        # integer flags are capped, and one too long for int() is named, not echoed
        if kwargs.get("type") is int:
            flag = names[0]

            def parse(text: str) -> int:
                try:
                    return _parse_int(text, flag)
                except ValueError:
                    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None

            kwargs["type"] = parse
        return super().add_argument(*names, **kwargs)


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
            raise CLIError("usage", f"{flag} expects a JSON array of integers, got {text!r}")
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
            raise CLIError("usage", f"bad oracle constant: {text!r}") from exc
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
            raise ValueError("no oracle entry")
        return table[digest]

    return lookup, f"table:{hashlib.sha256(blob).hexdigest()}"


def _check_work(what: str, cap: int, size, floor: int | None = None) -> None:
    """Reject work whose closed-form size is above cap.

    size is an int, or a function that computes it.  floor, if given, is a
    cheap lower bound on size: above cap, it settles the check, the message
    reads "more than" cap, and size is never computed.
    """
    if floor is not None and floor > cap:
        raise ValueError(f"{what} would be more than {cap}, above the cap of {cap}")
    size = size() if callable(size) else size
    if size > cap:
        raise ValueError(f"{what} would be {_shown(size)}, above the cap of {cap}")


def _decompose(spec: ModuliSpec, depth: int | None, oracle: str | None) -> dict:
    depth = spec.genus if depth is None else depth
    leaf_value, oracle_desc = _parse_oracle(oracle)
    # build_tree(spec, depth) is checked against the caps before it is built; a leaf root is one node
    levels = min(depth, spec.genus)
    if levels > 0:
        _check_work("decompose rank", MAX_RANK, spec.rank)
        _check_work("decompose tree depth", MAX_TREE_DEPTH, levels)
        # C(n, rank) >= n once level > 1, so past the cap n stands in for the children per node
        n = spec.rank + spec.level - 1
        children = math.comb(n, spec.rank) if n <= MAX_TREE_NODES or spec.level == 1 else n
        nodes = lambda: sum(children**i for i in range(levels + 1))
        _check_work("decompose node count", MAX_TREE_NODES, nodes, children)
    tree = build_tree(spec, depth)
    aggregate = None
    if leaf_value is not None:
        try:
            aggregate = aggregate_dimension(tree, leaf_value)
        except LeafOracleError as exc:
            raise CLIError("validation", str(exc)) from exc
    return {
        "depth": depth,
        "oracle": oracle_desc,
        "nodes": tree.node_count(),
        "leaves": tree.leaf_count(),
        "aggregate": aggregate,
        "tree": tree,
    }


def _branch(rank: int, power: int) -> dict:
    if rank < 1 or power < 0:
        raise ValueError("need rank >= 1 and power >= 0")
    _check_work("branch rank", MAX_RANK, rank)
    rows = lambda: math.comb(rank + power, rank)
    _check_work("branch row count", MAX_BRANCH_ROWS, rows, rank + power if power else None)
    table = decompose_rectangular(rank, power)
    lhs, rhs, equal = table.identity()
    return {**table.to_json_dict(), "lhs": lhs, "rhs": rhs, "equal": equal}


def _dims(partition: list, vars: int) -> dict:
    lam = Partition(partition)
    if vars < 0:
        raise ValueError(f"--vars must be nonnegative, got {_shown(vars)}")
    if len(lam) <= vars:
        # every factor has at least one digit and at most those of lam_1 + vars
        _, factors = _dimension_formula(lam, vars)
        digits = lambda: factors * len(str((lam[0] if lam else 0) + vars))
        _check_work("dims numerator digit count", MAX_DIMS_DIGITS, digits, factors)
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
    order, so one walk serves every level: mu at levels k0 = mu_1+1..max_level.
    A star term reads only a point's flag and weights, and only the second
    point's alpha, k - mu_1, moves with k, so each mu's points and balance are
    made once, at k0, and the contribution grows by r per level.
    """
    count = 0
    failures = [[] for _ in range(max_level + 1)]
    # mu_indices checks r and max_level once and yields Partitions, each in the r x (k0-1) box, as _boundary_data needs
    for mu in mu_indices(r, max_level):
        k0 = (mu[0] if mu else 0) + 1
        contribution, _ = _boundary_data(mu, r, k0, "x1", "x2").balance(r, k0)
        count += max_level + 1 - k0
        for k in range(k0, max_level + 1):
            if contribution != k * r:
                failures[k].append({"mu": list(mu.padded(r)), "rank": r, "level": k, "contribution": contribution})
            contribution += r
    return count, [failure for level in failures for failure in level]


def _compositions(total: int):
    """The compositions of total >= 1, ordered by first part, then by the rest; a 1 in cuts ends a part."""
    for cuts in product((1, 0), repeat=total - 1):
        ends = [cell for cell, cut in enumerate(cuts, 1) if cut] + [total]
        yield tuple(b - a for a, b in zip([0] + ends, ends))


def _identities(max_rank: int, max_level: int) -> dict:
    if max_rank < 1 or max_level < 1:
        raise ValueError("need --max-rank >= 1 and --max-level >= 1")
    _check_work("identities rank", MAX_RANK, max_rank)
    cases = lambda: math.comb(max_rank + max_level + 1, max_rank + 1) - max_level - 1
    _check_work("identities balance case count", MAX_BALANCE_CASES, cases, max_rank * max_level)
    balance = [_balance_worker(r, max_level) for r in range(1, max_rank + 1)]
    flags = [flag for r in range(1, 9) for flag in _compositions(r)]
    branching = [(r, m, *verify_branching_identity(r, m)) for r in (1, 2, 3) for m in range(0, 5)]
    outcomes = [
        ("balance", sum(count for count, _ in balance), [f for _, chunk in balance for f in chunk]),
        ("telescoping", len(flags), [{"flag": list(flag)} for flag in flags if not telescoping_check(flag)]),
        ("branching", len(branching), [
            {"rank": r, "power": m, "lhs": lhs, "rhs": rhs} for r, m, lhs, rhs, equal in branching if not equal
        ]),
    ]
    sweeps = [{"name": name, "cases": count, "failures": failures} for name, count, failures in outcomes]
    return {"sweeps": sweeps, "all_pass": all(not sweep["failures"] for sweep in sweeps)}


# a text or CSV value is shown as its compact JSON
_compact = json.JSONEncoder(separators=(",", ":")).encode


def _mu_paths(tree: DecompositionTree):
    """Yield (depth, mu path) for every node of tree, preorder, as text and CSV show the path.

    A path is its mus, each padded to the rank and made text once, joined by >; the root's is empty.
    """
    texts = [_compact(mu.padded(tree.spec.rank)) for mu in reversed(tree.mus)]  # the stack pops them in order
    stack = [(0, "")]
    while stack:
        depth, path = stack.pop()
        yield depth, path
        if depth < tree.depth:
            stack.extend([(depth + 1, f"{path}>{text}" if depth else text) for text in texts])


def _text_rows(command: str, result: dict):
    if command == "branch":
        rows = result["rows"]
        mu_width = max(2, *(len(_compact(row["mu"])) for row in rows))
        yield f"{'mu'.ljust(mu_width)}  dim_left  dim_right"
        for row in rows:
            yield (
                f"{_compact(row['mu']).ljust(mu_width)}  "
                f"{str(row['dim_left']).ljust(8)}  {row['dim_right']}"
            )
        for key in ("lhs", "rhs", "equal"):
            yield f"{key} = {_compact(result[key])}"
    elif command == "identities":
        for sweep in result["sweeps"]:
            yield f"{sweep['name']}: {sweep['cases']} cases, {len(sweep['failures'])} failures"
            for failure in sweep["failures"]:
                yield f"  FAIL {json.dumps(failure, sort_keys=True)}"
        yield "all identities hold" if result["all_pass"] else "IDENTITY FAILURES FOUND"
    elif command == "decompose":
        for key in ("depth", "nodes", "leaves", "aggregate"):
            if result[key] is not None:
                yield f"{key} = {_compact(result[key])}"
        root = result["tree"].spec
        for depth, path in _mu_paths(result["tree"]):
            # a node at depth d has the root's degree, d less genus and 2*d more points
            points = len(root.points) + 2 * depth
            yield "  " * depth + f"{path or '(root)'}: genus={root.genus - depth} degree={root.degree} points={points}"
    else:
        for key, value in result.items():
            yield f"{key} = {_compact(value)}"


def _branch_csv(result: dict):
    yield "mu,dim_left,dim_right"
    for row in result["rows"]:
        yield f"\"{_compact(row['mu'])}\",{row['dim_left']},{row['dim_right']}"


def _decompose_csv(result: dict):
    tree = result["tree"]
    yield "level,mu_path,leaf_sha256"
    # the leaves' paths and specs, both preorder; the digest is what an --oracle table keys a leaf on
    paths = (path for depth, path in _mu_paths(tree) if depth == tree.depth)
    for path, spec in zip(paths, tree._leaf_specs()):
        yield f"{tree.depth},\"{path}\",{spec.sha256()}"


# The commands that offer --format csv, with their row writers.
_CSV_ROWS = {"branch": _branch_csv, "decompose": _decompose_csv}


def _tree_json(tree: DecompositionTree, depth: int):
    """Yield json.dumps(tree.to_json_dict(), indent=2) as the value at depth, in pieces, from tree's rows.

    json.dumps lays out each level's node once, null standing for its points and each
    child, and each row entry's two points once.  A node's points list is its parent's,
    six spaces deeper, plus its entry's two points.  It recurses once per tree level.
    """
    root = tree.spec.to_json_dict()

    def dumps(value, at):
        return json.dumps(value, indent=2).replace("\n", "\n" + "  " * at)

    # per level: the node's text cut at each null (the rest is keys and integers), and per
    # row entry the points list it adds
    levels = []
    for level, row in enumerate((*tree.rows, ())):
        at = depth + 3 * level
        spec = {**root, "genus": root["genus"] - level, "points": None}
        children = [{"mu": list(mu.padded(root["rank"])), "node": None} for mu in (tree.mus if row else ())]
        added = [dumps([data.point1.to_json_dict(), data.point2.to_json_dict()], at + 5) for data in row]
        levels.append((dumps({"spec": spec, "children": children}, at).split("null"), added))

    def write(level, points):
        (head, *cuts), added = levels[level]
        yield head + points + cuts[0]
        if added:
            # each child's points list starts as this one, six spaces deeper and left open
            points = points.replace("\n", "\n      ")
            points = "[" if points == "[]" else points.rpartition("\n")[0] + ","
        for i, pair in enumerate(added, 1):
            child = write(level + 1, points + pair[1:])
            if i == len(added):
                points = None  # before the last child runs, so a chain holds one level's points at a time
            yield from child
            yield cuts[i]

    return write(0, dumps(root["points"], depth + 2))


def _render(report: dict, fmt: str, out) -> None:
    """Write report in fmt to out, BATCH characters a write but the last (every report is ASCII).

    The JSON report is json.dumps(report, indent=2), a decompose report's tree
    written by _tree_json.  The stdlib's indent=2 encoder is pure Python and
    streams: its chunks go on BATCH // 16 at a time.
    """
    command, result = report["command"], report["result"]
    if fmt != "json":
        rows = _text_rows(command, result) if fmt == "text" else _CSV_ROWS[command](result)
        header = [
            f"# {TOOL_NAME} {report['tool']['version']}",
            f"# command: {command}",
            f"# input sha256: {report['input_sha256']}",
        ]
        pieces = (line + "\n" for line in chain(header, rows))
    elif command == "decompose":
        # the tree is the last value of result, and result the last of report, so the last null is its place
        head, _, tail = json.dumps({**report, "result": {**result, "tree": None}}, indent=2).rpartition("null")
        pieces = chain([head], _tree_json(result["tree"], 2), [tail, "\n"])
    else:
        # the encoder's chunks are a few characters each; at least one goes on at a time
        chunks, count = json.JSONEncoder(indent=2).iterencode(report), max(1, BATCH // 16)
        pieces = chain(iter(lambda: "".join(islice(chunks, count)), ""), ["\n"])
    held, size = [], 0
    for piece in pieces:
        held.append(piece)
        size += len(piece)
        if size > BATCH:
            # the text past the last full write is held back, so the last write is never empty
            text = "".join(held)
            cut = (size - 1) // BATCH * BATCH
            for start in range(0, cut, BATCH):
                out(text[start:start + BATCH])
            held, size = [text[cut:]], size - cut
    out("".join(held))


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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        params = vars(_build_parser().parse_args(argv))
        command = params.pop("command")
        if command == "codim":
            command += "." + params.pop("kind")
        fmt = params.pop("format")
        if "spec" in params:
            blob = _read_file(params["spec"])
            input_sha256 = hashlib.sha256(blob).hexdigest()
            params["spec"] = ModuliSpec.from_json_dict(_parse_json(blob, params["spec"]))
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
    # a message, of any type, shows each argument or --flag=value value it repeats short: a path too
    texts = [*argv, *(arg.partition("=")[2] for arg in argv)]
    for text in sorted((t for t in texts if len(t) > MAX_ECHO), key=len, reverse=True):
        error["message"] = error["message"].replace(repr(text), _shown(text)).replace(text, _shown(text))
    sys.stderr.write(json.dumps({"error": error}) + "\n")
    return 1


main = run


if __name__ == "__main__":
    sys.exit(main())
