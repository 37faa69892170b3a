"""End-to-end CLI coverage: formats, hashing, determinism, exit codes."""

import csv
import hashlib
import json

import pytest

from theta_factor import cli


SPEC = {"genus": 2, "rank": 2, "degree": 4, "level": 3, "ell": 3, "points": []}


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

    def test_unbalanced_spec_rejected(self, capsys, tmp_path):
        bad = dict(SPEC, degree=5)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(capsys, ["decompose", str(path)])
        assert code == 1
        assert json.loads(err)["error"]["type"] == "validation"


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

    def test_failure_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "_balance_worker", lambda case: (1, [{"rank": case[0], "level": case[1]}])
        )
        code, out, _ = run_cli(
            capsys, ["identities", "--max-rank", "1", "--max-level", "1"]
        )
        assert code == 2
        result = json.loads(out)["result"]
        assert result["all_pass"] is False
        assert result["sweeps"][0]["failures"] == [{"rank": 1, "level": 1}]


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
