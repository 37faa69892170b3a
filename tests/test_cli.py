"""End-to-end CLI coverage: formats, hashing, determinism, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import string
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from theta_factor import DecompositionTree, MarkedPoint, ModuliSpec, cli, factorization, parabolic, partitions
from theta_factor.partitions import _shown
from test_cli_golden import CASES as GOLDEN_CASES, EXPECTED as GOLDEN_EXPECTED
from test_factorization import small_balanced_specs


SPEC = {"genus": 2, "rank": 2, "degree": 4, "level": 3, "ell": 3, "points": []}
# balanced; "²".isdigit() holds but int("²") fails, so the suffix is no level
X_SQUARED = {"genus": 1, "rank": 1, "degree": 1, "level": 1, "ell": 1,
             "points": [{"label": "x@²", "flag": [1], "weights": [0], "alpha": 0}]}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return path


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyStar:
    def test_json_report(self, capsys, spec_file):
        code, out, err = run_cli(capsys, ["verify-star", str(spec_file)])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["tool"]["name"] == "theta-factor"
        assert report["command"] == "verify-star"
        assert report["input_sha256"] == hashlib.sha256(spec_file.read_bytes()).hexdigest()
        assert report["result"] == {"lhs": 6, "rhs": 6, "holds": True, "derived_n": 2}

    def test_text_report(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, ["verify-star", str(spec_file), "--format", "text"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# theta-factor ")
        assert "holds = true" in lines

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, ["verify-star", "/nonexistent.json"])
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "io"

    def test_malformed_spec(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"genus": 1}')
        code, _, err = run_cli(capsys, ["verify-star", str(bad)])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "validation"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("genus", True),
            ("rank", True),
            ("level", True),
            ("ell", True),
            ("points", 5),
            ("points", [5]),
            ("points", [{"label": "x", "flag": 2, "weights": [0], "alpha": 0}]),
        ],
    )
    def test_malformed_field_is_a_validation_error(self, capsys, tmp_path, field, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SPEC, **{field: value})))
        code, out, err = run_cli(capsys, ["verify-star", str(bad)])
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["type"] == "validation"

    @pytest.mark.parametrize(
        "spec,named",
        [
            (dict(SPEC, colour="red"), "'colour'"),
            (
                dict(SPEC, points=[{"label": "p", "flag": [2], "weights": [0], "alpha": 0, "mult": 2}]),
                "'mult'",
            ),
        ],
        ids=["top-level", "in-point"],
    )
    def test_unknown_key_is_a_validation_error(self, capsys, tmp_path, spec, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, ["verify-star", str(bad)])
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "validation"
        assert named in error["message"]

    def test_duplicate_label_is_a_validation_error(self, capsys, tmp_path):
        point = {"label": "p", "flag": [2], "weights": [0], "alpha": 0}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SPEC, points=[point, dict(point, alpha=1)])))
        code, out, err = run_cli(capsys, ["decompose", str(bad)])
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "validation"
        assert "duplicate point label 'p'" in error["message"]

    @pytest.mark.parametrize(
        "points,message",
        [
            ([{}, {"alpha": 1}], "duplicate point label 'ppp"),
            ([{"flag": [2, 1], "weights": [0, 1]}], "flag multiplicities sum to 3, rank is 2"),
            ([{"weights": [4]}], "weight 4 exceeds level 3"),
            ([{"weights": [0, 1]}], "flag length 1 != weight length 2"),
            ([{"alpha": -1}], "alpha must be a nonnegative integer"),
        ],
        ids=["duplicate", "wrong-rank", "too-heavy", "flag-length", "alpha"],
    )
    def test_long_label_is_shortened(self, capsys, tmp_path, points, message):
        label = "p" * 5000
        base = {"label": label, "flag": [2], "weights": [0], "alpha": 0}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SPEC, points=[dict(base, **point) for point in points])))
        code, out, err = run_cli(capsys, ["verify-star", str(bad)])
        assert code == 1 and out == ""
        assert len(err.encode()) < 300
        error = json.loads(err)["error"]
        assert error["type"] == "validation"
        assert message in error["message"] and "(5000 characters)" in error["message"]

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("genus", "g" * 5000, "genus must be a nonnegative integer, got 'ggg"),
            ("rank", [1] * 3000, "rank must be a positive integer, got [1, 1"),
        ],
        ids=["genus-string", "rank-list"],
    )
    def test_long_field_value_is_shortened(self, capsys, tmp_path, field, value, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SPEC, **{field: value})))
        code, out, err = run_cli(capsys, ["verify-star", str(bad)])
        assert code == 1 and out == ""
        assert len(err.encode()) < 200 and err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["type"] == "validation"
        shown = value if isinstance(value, str) else repr(value)
        assert message in error["message"] and f"({len(shown)} characters)" in error["message"]

    def test_undecodable_bytes_are_a_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"genus": "\xff"}')
        code, out, err = run_cli(capsys, ["verify-star", str(bad)])
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "validation"


class TestDecompose:
    def test_json_counts(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, ["decompose", str(spec_file), "--depth", "1"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["depth"] == 1
        assert result["nodes"] == 7 and result["leaves"] == 6
        assert result["aggregate"] is None
        assert [edge["mu"] for edge in result["tree"]["children"]] == [
            [0, 0], [1, 0], [1, 1], [2, 0], [2, 1], [2, 2],
        ]

    def test_default_depth_is_genus(self, capsys, spec_file):
        code, out, _ = run_cli(capsys, ["decompose", str(spec_file)])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["depth"] == SPEC["genus"]
        assert result["nodes"] == 1 + 6 + 36

    def test_constant_oracle(self, capsys, spec_file):
        code, out, _ = run_cli(
            capsys, ["decompose", str(spec_file), "--depth", "1", "--oracle", "const:5"]
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["aggregate"] == 5 * result["leaves"]
        assert result["oracle"] == "const:5"

    def test_table_oracle(self, capsys, tmp_path, spec_file):
        code, out, _ = run_cli(capsys, ["decompose", str(spec_file), "--depth", "1"])
        leaves = json.loads(out)["result"]["tree"]["children"]
        from theta_factor import ModuliSpec

        table = {
            ModuliSpec.from_json_dict(edge["node"]["spec"]).sha256(): i
            for i, edge in enumerate(leaves)
        }
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps(table))
        code, out, _ = run_cli(
            capsys,
            ["decompose", str(spec_file), "--depth", "1", "--oracle", str(table_path)],
        )
        assert code == 0
        assert json.loads(out)["result"]["aggregate"] == sum(range(6))

    def test_table_oracle_missing_leaf(self, capsys, tmp_path, spec_file):
        table_path = tmp_path / "table.json"
        table_path.write_text("{}")
        code, out, err = run_cli(
            capsys,
            ["decompose", str(spec_file), "--depth", "1", "--oracle", str(table_path)],
        )
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "validation"
        assert "no oracle entry" in error["message"]

    def test_missing_leaf_is_named_by_its_digest(self, capsys, tmp_path):
        # the leaf's spec repeats a 5,000-character label; its sha256 names it short
        spec_path, table_path = tmp_path / "spec.json", tmp_path / "table.json"
        spec_path.write_text(json.dumps(dict(X_SQUARED, points=[dict(X_SQUARED["points"][0], label="p" * 5000)])))
        table_path.write_text("{}")
        _, out, _ = run_cli(capsys, ["decompose", str(spec_path), "--format", "csv"])
        ((_, _, digest),) = csv.reader(out.splitlines()[4:])
        code, out, err = run_cli(capsys, ["decompose", str(spec_path), "--oracle", str(table_path)])
        assert code == 1 and out == ""
        assert len(err.encode()) < 300
        message = f"leaf oracle failed on leaf {digest}: no oracle entry"
        assert json.loads(err) == {"error": {"type": "validation", "message": message}}

    def test_csv_lists_leaves(self, capsys, spec_file):
        code, out, _ = run_cli(
            capsys, ["decompose", str(spec_file), "--depth", "1", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[3] == "level,mu_path,leaf_sha256"
        body = lines[4:]
        assert len(body) == 6
        assert body[0].startswith('1,"[0,0]",')
        digest = body[0].rsplit(",", 1)[1]
        assert len(digest) == 64

    def test_csv_digests_match_json_leaves(self, capsys, spec_file):
        from theta_factor import ModuliSpec

        _, out, _ = run_cli(capsys, ["decompose", str(spec_file), "--format", "csv"])
        rows = list(csv.reader(out.splitlines()[4:]))
        _, out, _ = run_cli(capsys, ["decompose", str(spec_file)])
        tree = json.loads(out)["result"]["tree"]
        leaves = [
            (f"{edge['mu']}>{inner['mu']}".replace(" ", ""), inner["node"]["spec"])
            for edge in tree["children"]
            for inner in edge["node"]["children"]
        ]
        assert len(rows) == len(leaves) == 36
        for (depth, mu_path, digest), (path, spec) in zip(rows, leaves):
            assert (depth, mu_path) == ("2", path)
            assert digest == ModuliSpec.from_json_dict(spec).sha256()

    def test_bad_oracle_argument(self, capsys, spec_file):
        code, _, err = run_cli(
            capsys, ["decompose", str(spec_file), "--oracle", "const:x"]
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "usage"

    def test_long_oracle_constant_is_not_echoed(self, capsys, spec_file):
        text = "const:" + "a" * 5000
        code, out, err = run_cli(capsys, ["decompose", str(spec_file), "--oracle", text])
        assert code == 1 and out == ""
        message = f"bad oracle constant: {text[:40]!r}... (5006 characters)"
        assert json.loads(err) == {"error": {"type": "usage", "message": message}}

    def test_unbalanced_spec_rejected(self, capsys, tmp_path):
        bad = dict(SPEC, degree=5)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(capsys, ["decompose", str(path)])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "validation"

    def test_label_suffix_that_is_not_a_decimal(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(X_SQUARED))
        code, out, err = run_cli(capsys, ["decompose", str(path)])
        assert code == 0 and err == ""
        (edge,) = json.loads(out)["result"]["tree"]["children"]
        labels = [point["label"] for point in edge["node"]["spec"]["points"]]
        assert labels == ["x@²", "x1@1", "x2@1"]

    def test_label_suffix_longer_than_a_spec_integer(self, capsys, tmp_path):
        label = "x@" + "1" * 4301
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(X_SQUARED, points=[dict(X_SQUARED["points"][0], label=label)])))
        code, out, err = run_cli(capsys, ["decompose", str(path)])
        assert code == 1 and out == ""
        message = f"point {label[:40]!r}... (4303 characters): label level has more than 1000 digits"
        assert json.loads(err) == {"error": {"type": "validation", "message": message}}

    @pytest.mark.parametrize("nested", ["spec", "oracle"])
    def test_deeply_nested_input_is_a_validation_error(self, capsys, monkeypatch, tmp_path, spec_file, nested):
        # the stdlib decoder recurses once per array and would raise RecursionError;
        # relative paths keep the message's path short, so it is shown whole
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nested.json").write_text("[" * 100_000 + "]" * 100_000)
        if nested == "spec":
            argv, what = ["decompose", "nested.json"], "nested.json"
        else:
            argv, what = ["decompose", spec_file.name, "--oracle", "nested.json"], "oracle table nested.json"
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        message = f"{what} nests JSON arrays or objects too deeply"
        assert json.loads(err) == {"error": {"type": "validation", "message": message}}


class TestLongPaths:
    """A spec or table path longer than 40 characters shows as _shown shows it, in every message."""

    @pytest.mark.parametrize(
        "name,content,oracle,message",
        [
            ("missing.json", None, False, "cannot read {shown}: "),
            ("bad.json", "{", False, "{shown} is not valid JSON: "),
            ("missing.json", None, True, "cannot read {shown}: "),
            ("bad.json", "{", True, "oracle table {shown} is not valid JSON: "),
            ("list.json", "[]", True, "oracle table {shown} must map leaf sha256 to integer"),
            # a ValueError, not a CLIError, names this table
            ("long.json", '{"a": 1%s}' % ("0" * 1000), True, "oracle table {shown} entry has more than 1000 digits"),
        ],
        ids=["spec-io", "spec-json", "table-io", "table-json", "table-shape", "table-entry"],
    )
    def test_error_line_stays_short(self, capsys, tmp_path, spec_file, name, content, oracle, message):
        # 1,500 "./" steps: a path of over 3,000 characters that names a real file
        path = str(tmp_path) + "/." * 1500 + "/" + name
        if content is not None:
            (tmp_path / name).write_text(content)
        argv = ["decompose", str(spec_file), "--oracle", path] if oracle else ["verify-star", path]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert len(err.encode()) < 300
        assert json.loads(err)["error"]["message"].startswith(message.format(shown=_shown(path)))


class TestBranch:
    def test_anchor(self, capsys):
        code, out, _ = run_cli(capsys, ["branch", "--rank", "2", "--power", "1"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["lhs"] == 6 and result["rhs"] == 6 and result["equal"] is True
        assert result["rows"] == [
            {"mu": [0, 0], "dim_left": 1, "dim_right": 1},
            {"mu": [1, 0], "dim_left": 2, "dim_right": 2},
            {"mu": [1, 1], "dim_left": 1, "dim_right": 1},
        ]

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, ["branch", "--rank", "2", "--power", "1", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[3] == "mu,dim_left,dim_right"
        assert lines[4] == '"[0,0]",1,1'

    def test_text_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, ["branch", "--rank", "2", "--power", "1", "--format", "text"]
        )
        assert code == 0
        assert "equal = true" in out.splitlines()

    def test_validation(self, capsys):
        code, _, err = run_cli(capsys, ["branch", "--rank", "0", "--power", "1"])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "validation"


class TestDims:
    def test_known_dimension(self, capsys):
        code, out, _ = run_cli(capsys, ["dims", "--partition", "[1]", "--vars", "4"])
        assert code == 0
        assert json.loads(out)["result"]["dimension"] == 4

    def test_parameter_hash_is_stable(self, capsys):
        _, out1, _ = run_cli(capsys, ["dims", "--partition", "[2,1]", "--vars", "3"])
        _, out2, _ = run_cli(capsys, ["dims", "--partition", "[2,1]", "--vars", "3"])
        assert out1 == out2
        assert json.loads(out1)["input_sha256"] == json.loads(out2)["input_sha256"]

    def test_invalid_partition(self, capsys):
        code, _, err = run_cli(capsys, ["dims", "--partition", "[1,2]", "--vars", "3"])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "validation"

    def test_unparseable_partition(self, capsys):
        code, _, err = run_cli(capsys, ["dims", "--partition", "nope", "--vars", "3"])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "usage"

    def test_deeply_nested_partition(self, capsys):
        # the stdlib decoder recurses once per array and would raise RecursionError
        argv = ["dims", "--partition", "[" * 100_000 + "]" * 100_000, "--vars", "3"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        message = "--partition nests JSON arrays or objects too deeply"
        assert json.loads(err) == {"error": {"type": "usage", "message": message}}

    @pytest.mark.parametrize(
        "vars_text,message",
        [
            ("-" + "1" * 5000, "--vars has more than 1000 digits"),
            (" +" + "1_0" * 2500 + " ", "--vars has more than 1000 digits"),
            # int() rejects the double underscore, and 1,000 digits are not over the cap
            pytest.param("1" * 500 + "__" + "1" * 500, "argument --vars: invalid int value: ",
                         id="1000-digits-not-an-integer"),
            # long, but not an integer: argparse's wording
            ("1" * 5000 + "x", "argument --vars: invalid int value: "),
        ],
    )
    def test_unconvertible_vars(self, capsys, vars_text, message):
        code, out, err = run_cli(capsys, ["dims", "--partition", "[1]", "--vars", vars_text])
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["message"].startswith(message)

    @pytest.mark.parametrize(
        "flag,text,prefix",
        [
            ("--vars", "1" * 5000 + "x", "argument --vars: invalid int value: "),
            ("--partition", '"' + "a" * 5000 + '"', "--partition expects a JSON array of integers, got "),
        ],
    )
    def test_long_bad_value_is_not_echoed(self, capsys, flag, text, prefix):
        flags = {"--partition": "[1]", "--vars": "3", flag: text}
        code, out, err = run_cli(capsys, ["dims", *(x for item in flags.items() for x in item)])
        assert code == 1 and out == ""
        message = f"{prefix}{text[:40]!r}... ({len(text)} characters)"
        assert json.loads(err) == {"error": {"type": "usage", "message": message}}
        assert len(err) < 200

    @pytest.mark.parametrize(
        "partition,vars,dimension",
        [
            # hook content would multiply a million cells, Weyl's product two factors
            ([1_000_000], 3, 1_000_001 * 1_000_002 // 2),
            # took no bounded time before: conjugate() made one part per column
            ([10**999], 3, (10**999 + 1) * (10**999 + 2) // 2),
            # hook content: two cells, against about 2 * 10**999 Weyl factors
            ([1, 1], 10**999, 10**999 * (10**999 - 1) // 2),
            ([2, 1], 1, 0),
        ],
    )
    def test_large_parts_or_many_vars(self, capsys, partition, vars, dimension):
        argv = ["dims", "--partition", json.dumps(partition), "--vars", str(vars)]
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        assert json.loads(out)["result"]["dimension"] == dimension

    @pytest.mark.parametrize(
        "partition,vars,message",
        [
            # both formulas have about 10**999 factors
            ([10**999], 10**999, "dims numerator digit count would be more than 100000, "
                                 "above the cap of 100000"),
            # 29,999 Weyl factors of up to 5 digits
            ([30000], 30000, "dims numerator digit count would be 149995, "
                             "above the cap of 100000"),
            # under the cap, but the answer has 5,403 digits
            ([5000], 20000, f"dims dimension has more than {sys.get_int_max_str_digits()} digits"),
            # exactly --vars parts: 30,000 hook content factors of up to 5 digits
            ([1] * 30000, 30000, "dims numerator digit count would be 150000, "
                                 "above the cap of 100000"),
        ],
    )
    def test_work_and_size_caps(self, capsys, partition, vars, message):
        argv = ["dims", "--partition", json.dumps(partition), "--vars", str(vars)]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": {"type": "validation", "message": message}}


class TestCodim:
    def test_schubert(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["codim", "schubert", "--r1", "2", "--n", "[2,2]", "--m", "[0,2]"],
        )
        assert code == 0
        assert json.loads(out)["result"]["codim"] == 4

    def test_schubert_validation(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["codim", "schubert", "--r1", "2", "--n", "[2,2]", "--m", "[0,1]"],
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "validation"

    def test_quot_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["codim", "quot", "--rank", "2", "--genus-tilde", "2", "--points", "1"],
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["ss_minus_s"] == 2 and result["f_minus_ss"] == 2

    def test_gps_table_no_points(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["codim", "gps", "--rank", "3", "--genus-tilde", "2", "--points", "0"],
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["h_minus_ss"] == 5 and result["nonstable"] == 4

    @pytest.mark.parametrize(
        "kind,names", [("quot", ["ss_minus_s", "f_minus_ss"]), ("gps", ["h_minus_ss", "nonstable"])]
    )
    def test_rank_one_tables(self, capsys, kind, names):
        # rank 1 is the least rank the bound tables take
        code, out, _ = run_cli(capsys, ["codim", kind, "--rank", "1", "--genus-tilde", "2", "--points", "1"])
        assert code == 0
        result = json.loads(out)["result"]
        assert [result[name] for name in names] == [1, 1]

    def test_doubledet(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["codim", "doubledet", "--a", "1", "--b", "1", "--p", "1", "--q", "1", "--rank", "2"],
        )
        assert code == 0
        assert json.loads(out)["result"]["dimension"] == 3

    def test_doubledet_validation(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["codim", "doubledet", "--a", "2", "--b", "2", "--p", "2", "--q", "2", "--rank", "3"],
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "validation"


class TestIdentities:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, ["identities", "--max-rank", "2", "--max-level", "2"]
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["all_pass"] is True
        names = [sweep["name"] for sweep in result["sweeps"]]
        assert names == ["balance", "telescoping", "branching"]
        balance = result["sweeps"][0]
        assert balance["cases"] == 1 + 2 + 1 + 3  # boxes (1,0),(1,1),(2,0),(2,1)

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, ["identities", "--max-rank", "1", "--max-level", "1", "--format", "text"]
        )
        assert code == 0
        assert "all identities hold" in out

    def test_compositions_in_recursive_order(self):
        def reference(total):
            if total == 0:
                yield ()
                return
            for head in range(1, total + 1):
                for rest in reference(total - head):
                    yield (head,) + rest

        for total in range(1, 11):
            assert list(cli._compositions(total)) == list(reference(total)), total

    def test_telescoping_sweep_lists_every_flag_in_order(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["identities", "--max-rank", "1", "--max-level", "1"])
        assert code == 0
        assert json.loads(out)["result"]["sweeps"][1]["cases"] == 255
        # every flag failing: the failures are the compositions of 1..8, in order
        monkeypatch.setattr(cli, "telescoping_check", lambda flag: False)
        code, out, _ = run_cli(capsys, ["identities", "--max-rank", "1", "--max-level", "1"])
        assert code == 2
        failures = json.loads(out)["result"]["sweeps"][1]["failures"]
        assert [f["flag"] for f in failures] == [list(c) for r in range(1, 9) for c in cli._compositions(r)]
        assert failures[:3] == [{"flag": [1]}, {"flag": [1, 1]}, {"flag": [2]}]

    def test_failure_exits_two(self, capsys, monkeypatch):
        # one case and one failure per (rank, level), in level order
        monkeypatch.setattr(
            cli,
            "_balance_worker",
            lambda r, max_level: (
                max_level, [{"rank": r, "level": k} for k in range(1, max_level + 1)]
            ),
        )
        code, out, _ = run_cli(
            capsys, ["identities", "--max-rank", "1", "--max-level", "1"]
        )
        assert code == 2
        result = json.loads(out)["result"]
        assert result["all_pass"] is False
        assert result["sweeps"][0]["failures"] == [{"rank": 1, "level": 1}]


def reference_balance_sweep(r, max_level):
    """One verify_boundary_balance call per (level, mu), as the sweep is defined."""
    count, failures = 0, []
    for k in range(1, max_level + 1):
        for mu in factorization.mu_indices(r, k):
            contribution, holds = factorization.verify_boundary_balance(mu, r, k)
            count += 1
            if not holds:
                failures.append(
                    {"mu": list(mu.padded(r)), "rank": r, "level": k, "contribution": contribution}
                )
    return count, failures


# star_term offsets that break the balance on some points, keyed on what a star
# term reads: by flag, by first weight (0 on both points of mu = () at every
# level), and a negative one by flag length
FAULTS = {
    "none": lambda pt: 0,
    "flag-starts-with-1": lambda pt: pt.flag[0] == 1,
    "even-first-weight": lambda pt: pt.weights[0] % 2 == 0,
    "two-pieces": lambda pt: -3 * (len(pt.flag) == 2),
}


class TestBalanceSweep:
    """The per-rank sweep gives the reference loop's cases and failures, in order."""

    @pytest.mark.parametrize("fault", FAULTS)
    def test_equals_reference_loop(self, fault, monkeypatch):
        star_term = MarkedPoint.star_term
        offset = FAULTS[fault]
        monkeypatch.setattr(MarkedPoint, "star_term", lambda pt: star_term(pt) + offset(pt))
        failed = 0
        for r in range(1, 5):
            for max_level in range(1, 6):
                count, failures = cli._balance_worker(r, max_level)
                assert (count, failures) == reference_balance_sweep(r, max_level), (r, max_level)
                assert count == sum(math.comb(r + k - 1, r) for k in range(1, max_level + 1))
                failed += len(failures)
        assert (failed == 0) == (fault == "none")

    def test_failures_in_level_then_box_order(self, monkeypatch):
        star_term = MarkedPoint.star_term
        monkeypatch.setattr(MarkedPoint, "star_term", lambda pt: star_term(pt) + FAULTS["even-first-weight"](pt))
        _, failures = cli._balance_worker(2, 4)
        cases = [(f["level"], f["mu"]) for f in failures]
        assert cases == sorted(cases, key=lambda case: case[0]) and len({k for k, _ in cases}) == 4
        # within a level, mus keep the r x (k-1) box's order
        order = {tuple(mu.padded(2)): i for i, mu in enumerate(factorization.mu_indices(2, 4))}
        for k in range(1, 5):
            mus = [order[tuple(mu)] for level, mu in cases if level == k]
            assert mus == sorted(mus)

    def test_two_star_terms_per_mu(self, monkeypatch):
        # 330 mus in the 4 x 7 box, at 792 (level, mu) cases
        star_term = MarkedPoint.star_term
        calls = []
        monkeypatch.setattr(MarkedPoint, "star_term", lambda pt: calls.append(pt) or star_term(pt))
        count, failures = cli._balance_worker(4, 8)
        assert (count, failures) == (sum(math.comb(k + 3, 4) for k in range(1, 9)), [])
        assert len(calls) == 2 * math.comb(11, 4) == 660


def jump_reference(mu, r, k):
    """The BoundaryData of mu at rank r and level k from the r-padded jumps, by the checking constructors."""
    padded = mu.padded(r)
    positions = [i for i in range(1, r) if padded[i - 1] > padded[i]]
    jumps = [padded[i - 1] - padded[i] for i in positions]
    edges = [0, *positions, r]
    flag = [b - a for a, b in zip(edges, edges[1:])]
    weights1 = [padded[-1] + sum(jumps[:i]) for i in range(len(jumps) + 1)]
    weights2 = [padded[-1] + sum(jumps[len(jumps) - i:]) for i in range(len(jumps) + 1)]
    return factorization.BoundaryData(
        MarkedPoint("x1", flag, weights1, padded[-1]), MarkedPoint("x2", flag[::-1], weights2, k - padded[0])
    )


class TestSweepDerivation:
    """The sweep skips mu_to_boundary's checks, not its items."""

    @pytest.mark.parametrize("r,max_level", [*((r, 8) for r in range(1, 8)), (300, 2)])
    def test_items_equal_boundary_data(self, r, max_level):
        for mu in factorization.mu_indices(r, max_level):
            for k in range((mu[0] if mu else 0) + 1, max_level + 1):
                item = factorization._boundary_data(mu, r, k, "x1", "x2")
                assert item == factorization.mu_to_boundary(mu, r, k)
                assert item == jump_reference(mu, r, k)
                assert type(item) is factorization.BoundaryData
                for pt in (item.point1, item.point2):
                    assert type(pt) is MarkedPoint
                    assert type(pt.flag) is parabolic.FlagType
                    assert type(pt.weights) is parabolic.WeightVector

    def test_checks_once_per_rank(self, monkeypatch):
        # 15 mus at max level 3, 330 at 8: a check per mu would tell them apart
        calls = []
        for module in (factorization, partitions):
            check = module._check_int
            monkeypatch.setattr(module, "_check_int", lambda *args, check=check: calls.append(args) or check(*args))
        counts = []
        for max_level in (3, 8):
            calls.clear()
            cli._balance_worker(4, max_level)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


def chain_spec(genus):
    """Rank 1, level 1: one mu per node, so the tree is a chain."""
    return {"genus": genus, "rank": 1, "degree": genus, "level": 1, "ell": 1, "points": []}


def cap_error(what, estimate, cap):
    return {"error": {"type": "validation", "message": f"{what} would be {estimate}, above the cap of {cap}"}}


def no_binomial(n, k):
    raise AssertionError("a binomial was computed where a lower bound settles the cap")


class TestWorkBounds:
    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_deep_chain_rejected_before_building(self, capsys, tmp_path, fmt):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(chain_spec(1100)))
        argv = ["decompose", str(path), "--oracle", "const:1", "--format", fmt]
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert json.loads(err) == cap_error("decompose tree depth", 1100, cli.MAX_TREE_DEPTH)

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_chain_at_depth_cap(self, capsys, tmp_path, fmt):
        depth = cli.MAX_TREE_DEPTH
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain_spec(depth)))
        argv = ["decompose", str(path), "--oracle", "const:1", "--format", fmt]
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        if fmt == "json":
            assert out == json.dumps(json.loads(out), indent=2) + "\n"
            result = json.loads(out)["result"]
            assert (result["nodes"], result["leaves"], result["aggregate"]) == (depth + 1, 1, 1)
            node, levels = result["tree"], 0
            while node["children"]:
                (edge,) = node["children"]
                node, levels = edge["node"], levels + 1
            assert levels == depth
        else:
            # the longest mu paths the caps allow: the whole report is what the JSON report says
            code, report, err = run_cli(capsys, argv[:-1] + ["json"])
            assert code == 0 and err == ""
            assert out == "\n".join(lines_from_json_report(json.loads(report), fmt)) + "\n"
            if fmt == "text":
                assert f"nodes = {depth + 1}" in out.splitlines()
                assert out.splitlines()[-1].startswith("  " * depth + ">".join(["[0]"] * depth))
            else:
                rows = [line for line in out.splitlines() if not line.startswith("#")]
                assert len(rows) == 2 and rows[1].startswith(f"{depth},")

    def test_depth_flag_bounds_the_tree(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(chain_spec(1100)))
        argv = ["decompose", str(path), "--depth", str(cli.MAX_TREE_DEPTH), "--format", "csv"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out.splitlines()[-1].startswith(f"{cli.MAX_TREE_DEPTH},")

    @pytest.mark.parametrize(
        "spec,argv",
        [
            ({"genus": 0, "rank": 2, "degree": 0, "level": 10**6, "ell": 10**6, "points": []}, []),
            ({"genus": 0, "rank": 10**8, "degree": 0, "level": 1, "ell": 1, "points": []}, []),
            ({"genus": 3, "rank": 2, "degree": 6, "level": 10**6, "ell": 10**6, "points": []}, ["--depth", "0"]),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_leaf_root_in_a_huge_box(self, capsys, tmp_path, monkeypatch, spec, argv, fmt):
        # a tree with no levels is one leaf, whatever the size of its mu box
        def no_box(r, k):
            raise AssertionError("the mu box was enumerated for a leaf")

        monkeypatch.setattr(factorization, "mu_indices", no_box)
        path = tmp_path / "leaf.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, ["decompose", str(path), "--oracle", "const:1", "--format", fmt, *argv])
        assert code == 0 and err == ""
        if fmt == "json":
            result = json.loads(out)["result"]
            assert (result["nodes"], result["leaves"], result["aggregate"]) == (1, 1, 1)
            assert result["tree"]["children"] == []

    def test_node_count_cap(self, capsys, tmp_path):
        # genus 6, rank 2, level 3: 6 children per node, 1 + 6 + ... + 6^6 nodes
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({**SPEC, "genus": 6, "degree": 10}))
        code, out, err = run_cli(capsys, ["decompose", str(path)])
        assert code == 1 and out == ""
        assert json.loads(err) == cap_error("decompose node count", 55987, cli.MAX_TREE_NODES)

    @pytest.mark.parametrize("level", [9_999, 10_000])
    def test_node_count_cap_boundary(self, capsys, tmp_path, level):
        # genus 1, rank 1: C(level, 1) = level children, so 1 + level nodes, at the cap and one above it
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"genus": 1, "rank": 1, "degree": 1, "level": level, "ell": level, "points": []}))
        code, out, err = run_cli(capsys, ["decompose", str(path), "--format", "csv"])
        if level == 9_999:
            assert code == 0 and err == ""
            rows = out.splitlines()[3:]
            assert rows[0] == "level,mu_path,leaf_sha256" and len(rows) == 1 + 9_999
            assert len({row.rsplit(",", 1)[1] for row in rows[1:]}) == 9_999
        else:
            assert code == 1 and out == ""
            message = "decompose node count would be 10001, above the cap of 10000"
            assert json.loads(err) == {"error": {"type": "validation", "message": message}}

    def test_huge_box_rejected_without_the_binomial(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.math, "comb", no_binomial)
        path = tmp_path / "huge.json"
        # C(rank + level - 1, rank) children per node: far above the cap
        spec = {"genus": 1, "rank": 1000, "degree": 1, "level": 10**9, "ell": 10**6, "points": []}
        path.write_text(json.dumps(spec))
        code, _, err = run_cli(capsys, ["decompose", str(path)])
        assert code == 1
        cap = cli.MAX_TREE_NODES
        assert json.loads(err) == cap_error("decompose node count", f"more than {cap}", cap)

    @pytest.mark.parametrize(
        "argv,what,cap",
        [
            (["branch", "--rank", "1000", "--power", "9" * 1000], "branch row count", cli.MAX_BRANCH_ROWS),
            (
                ["identities", "--max-rank", "1000", "--max-level", "9" * 1000],
                "identities balance case count",
                cli.MAX_BALANCE_CASES,
            ),
            (["decompose", "huge.json"], "decompose node count", cli.MAX_TREE_NODES),
        ],
    )
    def test_floor_settles_the_check(self, capsys, tmp_path, monkeypatch, argv, what, cap):
        # rank + power rows, R * K cases and rank + level - 1 children per node are far above
        # the cap, so each check is settled without the binomial, which has about a million digits
        monkeypatch.setattr(cli.math, "comb", no_binomial)
        monkeypatch.chdir(tmp_path)
        spec = {"genus": 1, "rank": 1000, "degree": 1, "level": 10**999, "ell": 1, "points": []}
        (tmp_path / "huge.json").write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert json.loads(err) == cap_error(what, f"more than {cap}", cap)

    def test_branch_row_cap(self, capsys):
        code, out, err = run_cli(capsys, ["branch", "--rank", "6", "--power", "14"])
        assert code == 1 and out == ""
        assert json.loads(err) == cap_error("branch row count", 38760, cli.MAX_BRANCH_ROWS)
        code, _, err = run_cli(capsys, ["branch", "--rank", "1000", "--power", "1000000000"])
        cap = cli.MAX_BRANCH_ROWS
        assert json.loads(err) == cap_error("branch row count", f"more than {cap}", cap)

    @pytest.mark.parametrize(
        "argv,what",
        [
            (["branch", "--rank", "1001", "--power", "0"], "branch rank"),
            (["identities", "--max-rank", "1001", "--max-level", "1"], "identities rank"),
            (["decompose", "chain.json"], "decompose rank"),
        ],
    )
    def test_rank_cap(self, capsys, tmp_path, monkeypatch, argv, what):
        monkeypatch.chdir(tmp_path)
        rank = cli.MAX_RANK + 1
        (tmp_path / "chain.json").write_text(json.dumps({**chain_spec(1), "rank": rank, "degree": rank}))
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert json.loads(err) == cap_error(what, rank, cli.MAX_RANK)

    def test_branch_tall_box_at_rank_cap(self, capsys):
        # one row, in a box with more rows than the recursion limit allows frames
        rank = cli.MAX_RANK
        argv = ["branch", "--rank", str(rank), "--power", "0", "--format", "csv"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3 + 1 + 1
        assert lines[-1] == '"[' + ",".join(["0"] * rank) + ']",1,1'

    def test_identities_case_cap(self, capsys):
        code, out, err = run_cli(capsys, ["identities", "--max-rank", "30", "--max-level", "30"])
        assert code == 1 and out == ""
        estimate = math.comb(30 + 30 + 1, 30 + 1) - 30 - 1
        assert estimate == sum(math.comb(r + k - 1, r) for r in range(1, 31) for k in range(1, 31))
        assert json.loads(err) == cap_error("identities balance case count", estimate, cli.MAX_BALANCE_CASES)
        argv = ["identities", "--max-rank", "1000", "--max-level", "1000000000"]
        code, _, err = run_cli(capsys, argv)
        cap = cli.MAX_BALANCE_CASES
        assert json.loads(err) == cap_error("identities balance case count", f"more than {cap}", cap)

    @pytest.mark.parametrize("power", [9_999, 10_000])
    def test_branch_row_cap_boundary(self, capsys, power):
        # rank 1: power + 1 rows, at the cap, and one above it where the floor rank + power settles it
        code, out, err = run_cli(capsys, ["branch", "--rank", "1", "--power", str(power), "--format", "csv"])
        if power == 9_999:
            assert code == 0 and err == ""
            assert len(out.splitlines()) == 3 + 1 + 10_000
        else:
            assert code == 1 and out == ""
            cap = cli.MAX_BRANCH_ROWS
            assert json.loads(err) == cap_error("branch row count", f"more than {cap}", cap)

    @pytest.mark.parametrize("max_level", [315, 316])
    def test_identities_case_cap_boundary(self, capsys, max_level):
        # rank 1: k cases at level k, 49,770 up to level 315 and 50,086 up to 316; the floor 1 * 316 is below the cap
        argv = ["identities", "--max-rank", "1", "--max-level", str(max_level), "--format", "text"]
        code, out, err = run_cli(capsys, argv)
        if max_level == 315:
            assert code == 0 and err == ""
            assert "balance: 49770 cases, 0 failures" in out.splitlines()
        else:
            assert code == 1 and out == ""
            assert json.loads(err) == cap_error("identities balance case count", 50086, cli.MAX_BALANCE_CASES)

    def test_identities_tall_sweep_at_rank_cap(self, capsys):
        rank = cli.MAX_RANK
        argv = ["identities", "--max-rank", str(rank), "--max-level", "1", "--format", "text"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert f"balance: {rank} cases, 0 failures" in out.splitlines()


class TestHarness:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, ["frobnicate"])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "usage"

    def test_csv_rejected_where_unsupported(self, capsys):
        code, _, err = run_cli(
            capsys, ["dims", "--partition", "[1]", "--vars", "2", "--format", "csv"]
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "usage"

    def test_byte_identical_reruns(self, capsys, spec_file):
        _, first, _ = run_cli(capsys, ["decompose", str(spec_file), "--depth", "1"])
        _, second, _ = run_cli(capsys, ["decompose", str(spec_file), "--depth", "1"])
        assert first == second

    def test_version_embedded_everywhere(self, capsys, spec_file):
        from theta_factor import __version__

        for argv in (
            ["verify-star", str(spec_file)],
            ["branch", "--rank", "1", "--power", "1"],
            ["dims", "--partition", "[1]", "--vars", "1"],
        ):
            _, out, _ = run_cli(capsys, argv)
            assert json.loads(out)["tool"]["version"] == __version__


# JSON values as reports hold them: no floats, str keys only.
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**100, -(10**100), -1, 0])
    | st.text(max_size=6)
    | st.sampled_from(["", "\x00\x1f\"\\/", "é€\U0001d11e", " \ud800", "x@²"])
)


def json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)


class SharedRef(int):
    """Stands in a drawn shape for one of the shared dicts."""


SHAPES = st.recursive(JSON_SCALARS | st.integers(0, 2).map(SharedRef), json_containers, max_leaves=16)
SHARED_DICTS = st.lists(
    st.dictionaries(st.text(max_size=3), st.recursive(JSON_SCALARS, json_containers, max_leaves=6), max_size=3),
    min_size=1,
    max_size=3,
)


def with_shared(shape, shared):
    """shape with every SharedRef replaced by that shared dict object itself."""
    if isinstance(shape, SharedRef):
        return shared[shape % len(shared)]
    if isinstance(shape, list):
        return [with_shared(item, shared) for item in shape]
    if isinstance(shape, dict):
        return {key: with_shared(item, shared) for key, item in shape.items()}
    return shape


def shared_value(shape, shared):
    """A value in which the shared dicts recur at one depth and at several,
    inside each other, and as items of lists of dicts, as a tree's points do."""
    shared.append({"first": shared[0], "list": [shared[0]]})
    nodes = [{"points": [*shared, shared[0]], "children": [{"points": shared}]} for _ in range(3)]
    return [with_shared(shape, shared), shared[0], {"again": shared[0], "deeper": [shared[-1], [shared[-1]]]}, nodes]


def report_of(result):
    """A JSON report of a command that has no tree: _render reads its command and its result."""
    return {"command": "branch", "result": result}


def writes(result):
    """The writes of the JSON report holding result, as _render makes them."""
    parts = []
    cli._render(report_of(result), "json", parts.append)
    return parts


def slices(text, size):
    """text cut into writes of size characters, the last one shorter."""
    return [text[start:start + size] for start in range(0, len(text), size)]


class TestIndentedJson:
    @given(SHAPES, SHARED_DICTS)
    @settings(max_examples=80, deadline=None)
    def test_matches_stdlib_indent_2(self, shape, shared):
        value = shared_value(shape, shared)
        assert "".join(writes(value)) == json.dumps(report_of(value), indent=2) + "\n"

    @given(SHAPES, SHARED_DICTS, st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_small_batches(self, shape, shared, size):
        # writes of 1 to 3 characters, cut anywhere, while the encoder's chunks go on one at a time
        value = shared_value(shape, shared)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "BATCH", size)
            parts = writes(value)
        assert parts == slices(json.dumps(report_of(value), indent=2) + "\n", size)

    def test_batch_ends_when_full(self, monkeypatch):
        # every write is 5 characters but the last, wherever that cuts a key, a value or a layout
        monkeypatch.setattr(cli, "BATCH", 5)
        assert writes([{"a": 1}, {"b": 2}]) == [
            '{\n  "', "comma", 'nd": ', '"bran', 'ch",\n', '  "re', 'sult"', ": [\n ", "   {\n", "     ",
            ' "a":', " 1\n  ", "  },\n", "    {", "\n    ", '  "b"', ": 2\n ", "   }\n", "  ]\n}", "\n",
        ]

    def test_long_list_handed_on_in_pieces(self):
        # the first write comes while the encoder is still reading the list, not once the text is whole
        read = 0

        class Counted(list):
            def __iter__(self):
                nonlocal read
                for item in list.__iter__(self):
                    read += 1
                    yield item

        value = Counted([{"a": 1}] * 10_000)
        parts, read_at_write = [], []

        def out(text):
            parts.append(text)
            read_at_write.append(read)

        cli._render(report_of(value), "json", out)
        assert read_at_write[0] < len(value)
        assert "".join(parts) == json.dumps(report_of(value), indent=2) + "\n"


class TestTreeJson:
    @given(
        spec=small_balanced_specs().filter(
            lambda spec: math.comb(spec.rank + spec.level - 1, spec.rank) ** spec.genus <= 64
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_is_the_json_dict_at_a_depth(self, spec, data):
        # labels that JSON escapes, or not, on roots with and without points, at depths 0 to the genus
        prefix = data.draw(st.sampled_from(["", 'é"\\']))
        points = tuple(MarkedPoint(prefix + pt.label, pt.flag, pt.weights, pt.alpha) for pt in spec.points)
        tree = DecompositionTree(spec._replace(points=points), data.draw(st.integers(0, spec.genus)))
        expected = json.dumps(tree.to_json_dict(), indent=2)
        for depth in (0, 2):
            assert "".join(cli._tree_json(tree, depth)) == expected.replace("\n", "\n" + "  " * depth)


# 259 nodes: its JSON report (about 0.9 MB) takes several batches
GENUS_3 = {"genus": 3, "rank": 2, "degree": 7, "level": 3, "ell": 2, "points": [
    {"label": "pwwscp", "flag": [2], "weights": [3], "alpha": 2},
    {"label": "prpfps", "flag": [1, 1], "weights": [2, 3], "alpha": 0},
]}


class Writes:
    """Standard output that keeps each write."""

    def __init__(self):
        self.parts = []
        self.write = self.parts.append

    def flush(self):
        pass


class HashedWrites:
    """Standard output that keeps the byte size of each write and a sha256 of them all."""

    def __init__(self):
        self.sizes = []
        self.digest = hashlib.sha256()

    def write(self, text):
        blob = text.encode()
        self.sizes.append(len(blob))
        self.digest.update(blob)

    def flush(self):
        pass


class TestBatchedReport:
    @pytest.fixture
    def genus_3(self, tmp_path):
        path = tmp_path / "genus-3.json"
        path.write_text(json.dumps(GENUS_3))
        return path

    def written(self, monkeypatch, argv):
        out = Writes()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.run(argv) == 0
        return out.parts

    def test_json_is_stdlib_indent_2(self, monkeypatch, genus_3):
        parts = self.written(monkeypatch, ["decompose", str(genus_3)])
        result = cli._decompose(ModuliSpec.from_json_dict(GENUS_3), None, None)
        report = {
            "tool": {"name": cli.TOOL_NAME, "version": cli.__version__},
            "command": "decompose",
            "input_sha256": hashlib.sha256(genus_3.read_bytes()).hexdigest(),
            # the tree's place holds its JSON dict
            "result": {**result, "tree": result["tree"].to_json_dict()},
        }
        assert len(parts) > 2
        assert "".join(parts) == json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_text_and_csv_lines(self, monkeypatch, genus_3, fmt):
        # writes of 50 characters, cut within lines as the JSON report is
        monkeypatch.setattr(cli, "BATCH", 50)
        parts = self.written(monkeypatch, ["decompose", str(genus_3), "--format", fmt])
        result = cli._decompose(ModuliSpec.from_json_dict(GENUS_3), None, None)
        rows = cli._text_rows("decompose", result) if fmt == "text" else cli._decompose_csv(result)
        header = [
            f"# theta-factor {cli.__version__}",
            "# command: decompose",
            f"# input sha256: {hashlib.sha256(genus_3.read_bytes()).hexdigest()}",
        ]
        lines = [*header, *rows]
        assert len(lines) > 50
        assert parts == slices("\n".join(lines) + "\n", 50)

    @pytest.mark.parametrize("spec", [
        # the largest tree the caps allow: 9,331 nodes and a 54 MB report
        {"genus": 5, "rank": 2, "degree": 10, "level": 3, "ell": 3, "points": []},
        # the deepest: one node's points text alone is far more than a write
        chain_spec(cli.MAX_TREE_DEPTH),
    ])
    def test_large_reports_stream_in_bounded_writes(self, monkeypatch, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = HashedWrites()
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.run(["decompose", str(path)]) == 0
        assert len(out.sizes) > 1 and max(out.sizes) <= 2 * cli.BATCH
        result = cli._decompose(ModuliSpec.from_json_dict(spec), None, None)
        report = {
            "tool": {"name": cli.TOOL_NAME, "version": cli.__version__},
            "command": "decompose",
            "input_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "result": {**result, "tree": result["tree"].to_json_dict()},
        }
        # json.dumps(report, indent=2) + "\n", hashed as it is made
        expected = hashlib.sha256()
        for chunk in json.JSONEncoder(indent=2).iterencode(report):
            expected.update(chunk.encode())
        expected.update(b"\n")
        assert out.digest.hexdigest() == expected.hexdigest()

    def test_closed_stdout_ends_quietly(self, genus_3):
        # the reader takes 10 bytes and closes the pipe while the report is written
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        with subprocess.Popen(
            [sys.executable, "-m", "theta_factor.cli", "decompose", str(genus_3)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as child:
            assert child.stdout.read(10) == b'{\n  "tool"'
            child.stdout.close()
            err = child.stderr.read()
            assert child.wait(timeout=60) == 0
        assert err == b""


def reference_tree_rows(tree_dict, depth=0, path=()):
    """(depth, mu path, node dict) for every node of a JSON report's tree, preorder."""
    yield depth, path, tree_dict
    for edge in tree_dict["children"]:
        yield from reference_tree_rows(edge["node"], depth + 1, path + (tuple(edge["mu"]),))


def lines_from_json_report(report, fmt):
    """The text or CSV lines of a decompose report, read from its JSON report."""
    result = report["result"]
    lines = [
        f"# theta-factor {report['tool']['version']}",
        "# command: decompose",
        f"# input sha256: {report['input_sha256']}",
    ]
    mu_path = lambda path: ">".join("[" + ",".join(map(str, mu)) + "]" for mu in path)
    rows = list(reference_tree_rows(result["tree"]))
    if fmt == "text":
        lines += [f"{key} = {result[key]}" for key in ("depth", "nodes", "leaves")]
        if result["aggregate"] is not None:
            lines.append(f"aggregate = {result['aggregate']}")
        for depth, path, node in rows:
            spec = node["spec"]
            lines.append(
                "  " * depth + f"{mu_path(path) or '(root)'}: genus={spec['genus']} "
                f"degree={spec['degree']} points={len(spec['points'])}"
            )
    else:
        lines.append("level,mu_path,leaf_sha256")
        for depth, path, node in rows:
            if not node["children"]:
                canonical = json.dumps(node["spec"], sort_keys=True, separators=(",", ":"))
                digest = hashlib.sha256(canonical.encode()).hexdigest()
                lines.append(f'{depth},"{mu_path(path)}",{digest}')
    return lines


# rank 3, level 2, genus 1: four children of the root
RANK_3 = ModuliSpec(genus=1, rank=3, degree=3, level=2, ell=2)


class TestTreeRows:
    """decompose text and CSV rows say what the JSON report says."""

    @pytest.fixture(scope="class")
    def spec_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("rows") / "spec.json"

    def reports(self, spec_path, spec, extra=()):
        spec_path.write_text(json.dumps(spec.to_json_dict()))
        reports = {}
        for fmt in ("json", "text", "csv"):
            code, out, _ = run_contract(["decompose", str(spec_path), *extra, "--format", fmt])
            assert code == 0
            reports[fmt] = out
        return reports

    @given(
        spec=small_balanced_specs().filter(
            lambda spec: math.comb(spec.rank + spec.level - 1, spec.rank) ** spec.genus <= 64
        ),
        depth=st.none() | st.integers(0, 3),
        oracle=st.none() | st.integers(-3, 3),
    )
    @example(spec=RANK_3, depth=None, oracle=None)
    @example(spec=RANK_3, depth=0, oracle=2)
    @settings(max_examples=60, deadline=None)
    def test_rows_match_the_json_report(self, spec_path, spec, depth, oracle):
        extra = [] if depth is None else ["--depth", str(depth)]
        extra += [] if oracle is None else ["--oracle", f"const:{oracle}"]
        reports = self.reports(spec_path, spec, extra)
        report = json.loads(reports["json"])
        for fmt in ("text", "csv"):
            assert reports[fmt] == "\n".join(lines_from_json_report(report, fmt)) + "\n"
        rows = list(reference_tree_rows(report["result"]["tree"]))
        assert (report["result"]["nodes"], report["result"]["leaves"]) == (
            len(rows), sum(1 for _, _, node in rows if not node["children"])
        )

    def test_no_format_builds_a_json_tree(self, monkeypatch, spec_path):
        expected = self.reports(spec_path, RANK_3)

        def refuse(tree):
            raise AssertionError("the JSON tree was built")

        monkeypatch.setattr(DecompositionTree, "to_json_dict", refuse)
        for fmt in ("json", "text", "csv"):
            code, out, _ = run_contract(["decompose", str(spec_path), "--format", fmt])
            assert code == 0 and out == expected[fmt]


@st.composite
def flat_report_argv(draw):
    """Valid argv of dims or a codim kind, the commands whose text report is one line per result key."""
    small = st.integers(0, 5)
    kind = draw(st.sampled_from(["dims", "schubert", "quot", "gps", "doubledet"]))
    if kind == "dims":
        partition = sorted(draw(st.lists(small, max_size=4)), reverse=True)
        return ["dims", "--partition", json.dumps(partition), "--vars", str(draw(small))]
    if kind == "schubert":
        n = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        m = [draw(st.integers(0, n_j)) for n_j in n]
        assume(sum(m) >= 1)
        flags = {"--r1": sum(m), "--n": json.dumps(n), "--m": json.dumps(m)}
    elif kind in ("quot", "gps"):
        flags = {"--rank": draw(st.integers(1, 5)), "--genus-tilde": draw(small), "--points": draw(small)}
    else:
        rank, p, q = draw(small), draw(small), draw(small)
        a = draw(st.integers(0, min(p, rank)))
        b = draw(st.integers(0, min(q, rank - a)))
        flags = {"--a": a, "--b": b, "--p": p, "--q": q, "--rank": rank}
    return ["codim", kind, *(str(arg) for flag, value in flags.items() for arg in (flag, value))]


class TestFlatTextRows:
    """dims, codim and verify-star text reports say what the JSON report says, one line per result key."""

    @pytest.fixture(scope="class")
    def spec_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("flat") / "spec.json"

    def check(self, argv):
        code, out, _ = run_contract([*argv, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        lines = [
            f"# {cli.TOOL_NAME} {report['tool']['version']}",
            f"# command: {report['command']}",
            f"# input sha256: {report['input_sha256']}",
        ]
        lines += [f"{key} = {json.dumps(value, separators=(',', ':'))}" for key, value in report["result"].items()]
        code, out, _ = run_contract([*argv, "--format", "text"])
        assert code == 0 and out == "\n".join(lines) + "\n"

    @given(flat_report_argv())
    @settings(max_examples=80, deadline=None)
    def test_dims_and_codim(self, argv):
        self.check(argv)

    @given(spec=small_balanced_specs(), shift=st.integers(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_verify_star(self, spec_path, spec, shift):
        # a degree one higher fails the balance, so holds is false as well as true
        spec_path.write_text(json.dumps({**spec.to_json_dict(), "degree": spec.degree + shift}))
        self.check(["verify-star", str(spec_path)])


def spec_documents():
    """Spec-file text: arbitrary JSON, spec-shaped objects, small balanced specs."""
    values = st.recursive(JSON_SCALARS | st.floats(), json_containers, max_leaves=10)
    small = st.integers(-2, 5)
    point = st.fixed_dictionaries({
        "label": st.sampled_from(["p", "q@1", "x1@2", "x@²"]) | st.text(max_size=4),
        "flag": st.lists(st.integers(0, 3), max_size=3) | values,
        "weights": st.lists(st.integers(-1, 4), max_size=3) | values,
        "alpha": small | values,
    })
    fields = {key: small | values for key in ("genus", "rank", "degree", "level", "ell")}
    spec_shaped = st.fixed_dictionaries(fields, optional={"points": st.lists(point, max_size=3) | values})
    # trees of at most 64 leaves, so each run stays fast
    balanced = small_balanced_specs().filter(
        lambda spec: math.comb(spec.rank + spec.level - 1, spec.rank) ** spec.genus <= 64
    ).map(lambda spec: spec.to_json_dict())
    documents = values | spec_shaped | balanced
    return st.builds(lambda doc, ascii: json.dumps(doc, ensure_ascii=ascii), documents, st.booleans())


def run_contract(argv):
    """Run argv in process and check the exit contract; return (code, out, err).

    A report (exit 0 or 2) leaves standard error empty; exit 1 writes
    nothing to standard output and one {"error": {"type", "message"}} line
    of at most MAX_ERROR_LINE characters to standard error.  An exception
    escaping run() fails the calling test; --help and --version end in
    argparse's SystemExit(0).
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        assert out == "" and err.endswith("\n") and len(err.splitlines()) == 1
        assert len(err) <= MAX_ERROR_LINE
        error = json.loads(err)
        assert list(error) == ["error"] and sorted(error["error"]) == ["message", "type"]
    else:
        assert err == ""
    return code, out, err


# An argument of this length, echoed whole, would break the bound below.
LONG = 20_000
# Every integer the CLI echoes has at most 1,000 digits, and messages show at
# most 40 characters of an array and usage errors 40 characters of text, so
# an error line, which echoes at most two long integers, stays below this bound.
MAX_ERROR_LINE = 10 * (parabolic.MAX_INT_DIGITS + 2)


class TestHostileInput:
    """Every spec file ends in a report (exit 0 or 2) or one error line (exit 1)."""

    @pytest.fixture(scope="class")
    def spec_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "spec.json"

    @given(
        text=spec_documents(),
        command=st.sampled_from(["decompose", "verify-star"]),
        fmt=st.sampled_from(["json", "text", "csv"]),
    )
    @example(text=json.dumps(chain_spec(1100)), command="decompose", fmt="json")
    @example(text=json.dumps(chain_spec(1100)), command="verify-star", fmt="json")
    @example(text=json.dumps(X_SQUARED), command="decompose", fmt="json")
    @example(text="[" * 100_000 + "]" * 100_000, command="verify-star", fmt="json")
    @settings(max_examples=100, deadline=None)
    def test_spec_file_contract(self, spec_path, text, command, fmt):
        # a lone surrogate makes the file invalid UTF-8, which is one more hostile input
        spec_path.write_bytes(text.encode("utf-8", "surrogatepass"))
        code, out, _ = run_contract([command, str(spec_path), "--format", fmt])
        if code != 1:
            assert out.startswith("# theta-factor " if fmt != "json" else "{")
            if fmt == "json":
                assert out == json.dumps(json.loads(out), indent=2) + "\n"


# integer flag text: small and negative, huge, at and past the 1,000-digit
# cap, past the 4,300 digits int() converts, and text that is no integer
INT_TEXTS = (
    st.integers(-2, 6).map(str)
    | st.builds(
        lambda sign, e, d: sign + str(10**e + d),
        st.sampled_from(["", "-"]),
        st.integers(6, 40),
        st.integers(-3, 3),
    )
    | st.sampled_from(
        ["9" * 1000, "-" + "9" * 1000, "1" + "0" * 1000, "1" * 5000, "-" + "1" * 5000,
         "1" * 5000 + "x", "x" * LONG, "", "x", "1.5", " 7 ", "1_0", "²"]
    )
)
INT_ENTRIES = (
    st.integers(-2, 6)
    | st.integers(6, 40).map(lambda e: 10**e)
    | st.sampled_from([-(10**40), 10**1000 - 1, 10**1000])
)
# int-array flag text: short and long arrays of those entries, arbitrary
# JSON, and text that is no JSON or nests too deeply
INT_ARRAYS = (
    st.lists(INT_ENTRIES, max_size=3).map(json.dumps)
    | st.builds(lambda n, last: json.dumps([1] * n + [last]), st.sampled_from([100, 3000, 5000]), INT_ENTRIES)
    | st.recursive(JSON_SCALARS, json_containers, max_leaves=4).map(json.dumps)
    | st.sampled_from(["[1" + "0" * 5000 + "]", "[" * 100_000, "[1,", "nope", "", "x" * LONG])
)
# arguments that argparse itself reports: stray words, unknown and ambiguous options
STRAY = st.lists(
    st.text(max_size=6)
    | st.sampled_from(
        ["--format", "json", "a" * LONG, "--" + "b" * LONG, "--format=" + "c" * LONG, "--max=" + "d" * LONG]
    ),
    max_size=2,
)
SPEC_ARG, TABLE_ARG = "<spec>", "<table>"


@st.composite
def command_argv(draw, command, flags, formats=("json", "text")):
    """command, each of flags (name -> value strategy) or not in drawn order,
    maybe a --format, then stray arguments."""
    parts = [[name, draw(values)] for name, values in flags.items() if draw(st.integers(0, 5))]
    parts = draw(st.permutations(parts))
    if draw(st.booleans()):
        parts.append(["--format", draw(st.sampled_from(formats + ("csv", "x" * LONG)))])
    return command + [arg for part in parts for arg in part] + draw(STRAY)


def _leaf_digests():
    # the nodes at depth d are the leaves of the depth-d tree
    spec = ModuliSpec.from_json_dict(SPEC)
    trees = [factorization.build_tree(spec, depth) for depth in range(SPEC["genus"] + 1)]
    return sorted({node.sha256() for tree in trees for _, node in tree.leaves()})


LEAF_DIGESTS = _leaf_digests()
# oracle tables: arbitrary JSON, tables over some or all of SPEC's node digests
ORACLE_TABLES = (
    st.recursive(JSON_SCALARS, json_containers, max_leaves=6)
    | st.dictionaries(st.sampled_from(LEAF_DIGESTS) | st.text(max_size=3), INT_ENTRIES, max_size=4)
    | st.fixed_dictionaries({digest: INT_ENTRIES for digest in LEAF_DIGESTS})
).map(json.dumps)
CODIM_ARGV = (
    command_argv(["codim", "schubert"], {"--r1": INT_TEXTS, "--n": INT_ARRAYS, "--m": INT_ARRAYS})
    | command_argv(["codim", "quot"], {f: INT_TEXTS for f in ("--rank", "--genus-tilde", "--points")})
    | command_argv(["codim", "gps"], {f: INT_TEXTS for f in ("--rank", "--genus-tilde", "--points")})
    | command_argv(["codim", "doubledet"], {f: INT_TEXTS for f in ("--a", "--b", "--p", "--q", "--rank")})
)


class TestArgvContract:
    """Every argv of every subcommand ends in exit 0, 2, or one bounded error line."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("argv")
        (directory / "spec.json").write_text(json.dumps(SPEC))
        return {SPEC_ARG: str(directory / "spec.json"), TABLE_ARG: str(directory / "table.json")}

    def run(self, paths, argv):
        return run_contract([paths.get(arg, arg) for arg in argv])

    @given(argv=st.lists(st.text(max_size=6), max_size=1) | STRAY)
    @example(argv=["a" * 5000])
    @settings(max_examples=40, deadline=None)
    def test_top_level(self, paths, argv):
        self.run(paths, argv)

    @given(argv=command_argv(["verify-star", SPEC_ARG], {}))
    @example(argv=["verify-star", SPEC_ARG, "--format", "x" * 5000])
    @settings(max_examples=40, deadline=None)
    def test_verify_star(self, paths, argv):
        self.run(paths, argv)

    @given(
        argv=command_argv(
            ["decompose", SPEC_ARG],
            {"--depth": INT_TEXTS, "--oracle": INT_TEXTS.map("const:".__add__) | st.just(TABLE_ARG)},
            formats=("json", "text", "csv"),
        ),
        table=ORACLE_TABLES,
    )
    @example(argv=["decompose", SPEC_ARG, "--oracle", "const:" + "1" * 5000], table="{}")
    @settings(max_examples=60, deadline=None)
    def test_decompose(self, paths, argv, table):
        with open(paths[TABLE_ARG], "w", encoding="utf-8", errors="surrogatepass") as handle:
            handle.write(table)
        self.run(paths, argv)

    @given(argv=command_argv(["branch"], {"--rank": INT_TEXTS, "--power": INT_TEXTS}, ("json", "text", "csv")))
    @example(argv=["branch", "--rank", "1" * 5000, "--power", "1"])
    @settings(max_examples=60, deadline=None)
    def test_branch(self, paths, argv):
        self.run(paths, argv)

    @given(argv=command_argv(["dims"], {"--partition": INT_ARRAYS, "--vars": INT_TEXTS}))
    @example(argv=["dims", "--partition", "[1000000]", "--vars", "3"])
    @example(argv=["dims", "--partition", "[1]", "--vars", "1" * 5000])
    @example(argv=["dims", "--partition", json.dumps([1] * 5000 + [2]), "--vars", "3"])
    @settings(max_examples=60, deadline=None)
    def test_dims(self, paths, argv):
        self.run(paths, argv)

    @given(argv=CODIM_ARGV)
    @example(argv=["codim", "schubert", "--r1", "2", "--n", "[2,2]", "--m", "[0,%s]" % ("1" * 5000)])
    @example(argv=["codim", "schubert", "--r1", "3000", "--n", json.dumps([1] * 3000), "--m", json.dumps([2] + [1] * 2999)])
    @settings(max_examples=80, deadline=None)
    def test_codim(self, paths, argv):
        self.run(paths, argv)

    @given(argv=command_argv(["identities"], {"--max-rank": INT_TEXTS, "--max-level": INT_TEXTS}))
    @example(argv=["identities", "--max-level", "1" * 5000])
    @settings(max_examples=60, deadline=None)
    def test_identities(self, paths, argv):
        self.run(paths, argv)


# the longest integer a spec or an integer flag may hold: 1,000 digits
BIG = 10**999
POINT = {"label": "p", "flag": [2], "weights": [0], "alpha": 0}
# argv, and the spec SPEC_ARG names (None: none), of every message the CLI can
# reach that repeats an input integer or key
LONG_ECHOES = {
    "decompose-depth-estimate": (["decompose", SPEC_ARG], dict(SPEC, genus=BIG)),
    "branch-rank-estimate": (["branch", "--rank", str(BIG), "--power", "1"], None),
    "identities-rank-estimate": (["identities", "--max-rank", str(BIG)], None),
    "dims-vars": (["dims", "--partition", "[1]", "--vars", str(-BIG)], None),
    "balance-lhs-rhs": (["decompose", SPEC_ARG], dict(SPEC, degree=BIG, ell=BIG)),
    "flag-sum-rank": (["verify-star", SPEC_ARG], dict(SPEC, rank=BIG, points=[dict(POINT, flag=[BIG - 1])])),
    "weight-level": (["verify-star", SPEC_ARG], dict(SPEC, level=BIG - 1, points=[dict(POINT, weights=[BIG])])),
    "spec-unknown-key": (["verify-star", SPEC_ARG], dict(SPEC, **{"k" * 5000: 1})),
    "point-unknown-key": (["verify-star", SPEC_ARG], dict(SPEC, points=[dict(POINT, **{"k" * 5000: 1})])),
    "schubert-r1": (["codim", "schubert", "--r1", str(BIG), "--n", "[1]", "--m", "[1]"], None),
    "doubledet-a": (["codim", "doubledet", "--a", str(BIG), "--b", "0", "--p", "1", "--q", "0", "--rank", str(BIG)], None),
    "doubledet-b": (["codim", "doubledet", "--a", "0", "--b", str(BIG), "--p", "0", "--q", "1", "--rank", str(BIG)], None),
    "doubledet-sum": (["codim", "doubledet", *(x for flag in ("--a", "--b", "--p", "--q", "--rank") for x in (flag, str(BIG - 1)))], None),
}
# usage errors from the golden cases, and text for one of them to echo: it
# starts with a letter, so it is no option, integer, JSON value or choice,
# and holds nothing of the "'start'... (N characters)" form a long text takes
GOLDEN_USAGE = [argv for case_id, argv in GOLDEN_CASES if '"type": "usage"' in GOLDEN_EXPECTED[case_id][2]]
ECHO_TEXTS = st.builds(
    str.__add__,
    st.sampled_from(string.ascii_letters),
    st.text(string.ascii_letters + string.digits + "_,:[]{}@+", min_size=cli.MAX_ECHO, max_size=400),
)
# flags some golden usage case takes, and one none does; --oracle is not
# among them, since a value for it names a file to read
ECHO_FLAGS = ["--format", "--rank", "--power", "--vars", "--partition", "--n", "--m", "--depth", "--max", "--colour"]


class TestEchoCap:
    """No error line repeats a long input whole."""

    @pytest.mark.parametrize("argv,spec", LONG_ECHOES.values(), ids=list(LONG_ECHOES))
    def test_long_input_is_shown_short(self, capsys, tmp_path, argv, spec):
        path = tmp_path / "spec.json"
        if spec is not None:
            path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, [str(path) if arg == SPEC_ARG else arg for arg in argv])
        assert code == 1 and out == "" and err.count("\n") == 1
        assert len(err.encode()) < 300
        error = json.loads(err)["error"]
        assert error["type"] == "validation" and " characters)" in error["message"]

    @given(
        argv=st.sampled_from(GOLDEN_USAGE),
        text=ECHO_TEXTS,
        flag=st.none() | st.sampled_from(ECHO_FLAGS),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_usage_error_shows_a_long_argument_short(self, argv, text, flag, data):
        arg = text if flag is None else f"{flag}={text}"
        at = data.draw(st.integers(0, len(argv)))
        code, _, err = run_contract([*argv[:at], arg, *argv[at:]])
        assert code == 1 and json.loads(err)["error"]["type"] == "usage"
        assert len(err.encode()) < 300
        assert not any(text[i : i + cli.MAX_ECHO + 1] in err for i in range(len(text) - cli.MAX_ECHO))
