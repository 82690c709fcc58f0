import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import grobasin
from grobasin.cli import main

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "4"])
        assert code == 0
        assert out.splitlines() == ["4", "3,1", "2,2", "2,1,1", "1,1,1,1"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "3", "--json"])
        assert code == 0
        assert json.loads(out) == [
            {"columns": [3]},
            {"columns": [2, 1]},
            {"columns": [1, 1, 1]},
        ]

    def test_ascii(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "2", "--ascii"])
        assert code == 0
        assert out == "#\n#\n\n##\n"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "0", "--ascii"])
        assert code == 0
        assert out.strip() == "(empty)"

    def test_negative_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "-1"])
        assert exc.value.code == 2

    def test_record_counts(self, capsys):
        code, out, _ = run(capsys, ["enumerate", "6", "--json"])
        assert code == 0 and len(json.loads(out)) == 11
        code, out, _ = run(capsys, ["enumerate", "10", "--json"])
        assert code == 0 and len(json.loads(out)) == 42
        code, out, _ = run(capsys, ["enumerate", "0", "--json"])
        assert code == 0 and json.loads(out) == [{"columns": []}]

    def test_styles_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "3", "--json", "--ascii"])
        assert exc.value.code == 2


class TestPoset:
    def test_edges(self, capsys):
        code, out, _ = run(capsys, ["poset", "3", "--order", "et"])
        assert code == 0
        assert out.splitlines() == ["3 -> 2,1", "2,1 -> 1,1,1"]

    def test_dot(self, capsys):
        code, out, _ = run(capsys, ["poset", "3", "--order", "punc", "--dot"])
        assert code == 0
        assert out == (
            'digraph punc_3 {\n'
            '  "3";\n'
            '  "2,1";\n'
            '  "1,1,1";\n'
            '  "3" -> "2,1";\n'
            '  "2,1" -> "1,1,1";\n'
            "}\n"
        )

    @pytest.mark.parametrize("order", ["et", "punc", "dominance"])
    def test_listing_at_14_matches_golden(self, capsys, order):
        code, out, _ = run(capsys, ["poset", "14", "--order", order])
        assert code == 0
        assert out == (DATA / f"poset_n14_{order}.txt").read_text()

    def test_single_node_no_edges(self, capsys):
        code, out, _ = run(capsys, ["poset", "1"])
        assert code == 0
        assert out == ""

    def test_bad_order_name(self):
        with pytest.raises(SystemExit) as exc:
            main(["poset", "3", "--order", "refinement"])
        assert exc.value.code == 2

    def test_n_zero_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["poset", "0"])
        assert exc.value.code == 2


class TestCheck:
    def test_true(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", "punc", '{"columns": [3, 2, 1]}', '{"columns": [3, 1, 1, 1]}'],
        )
        assert code == 0
        assert out.strip() == "true"

    def test_false(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", "et", '{"columns": [3, 2, 1]}', '{"columns": [3, 1, 1, 1]}'],
        )
        assert code == 1
        assert out.strip() == "false"

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, ["check", "et", '{"rows": [1]}', '{"columns": [1]}'])
        assert code == 2
        assert "error" in err

    def test_invalid_json(self, capsys):
        code, _, err = run(capsys, ["check", "et", "not json", '{"columns": [1]}'])
        assert code == 2
        assert "error" in err

    def test_truncated_json(self, capsys):
        # the decoder's own message, from the one ValueError branch
        code, _, err = run(capsys, ["check", "et", '{"columns": [1', '{"columns": [1]}'])
        assert code == 2
        assert err.startswith("error: Expecting ',' delimiter")
        assert "Traceback" not in err

    @pytest.mark.parametrize("depth", [20000, 100000])
    def test_deeply_nested_json(self, capsys, depth):
        # the decoder's RecursionError is a parse error like any other
        nested = "[" * depth + "]" * depth
        code, out, err = run(capsys, ["check", "et", nested, '{"columns": [1]}'])
        assert (code, out, err) == (2, "", "error: JSON nested too deeply\n")

    def test_filter_true(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "check",
                "filter",
                '{"columns": [3, 2, 1]}',
                '{"columns": [3, 1, 1, 1]}',
            ],
        )
        assert code == 0
        assert out.strip() == "true"

    def test_filter_false(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "check",
                "filter",
                '{"columns": [3, 1, 1, 1]}',
                '{"columns": [3, 2, 1]}',
            ],
        )
        assert code == 1
        assert out.strip() == "false"

    @pytest.mark.parametrize(
        "order, cols", [("et", [201]), ("punc", [1] * 201)]
    )
    def test_above_box_bound_is_usage_error(self, capsys, order, cols):
        # one row or column per box of recursion would overflow the stack
        tall = json.dumps({"columns": cols})
        code, out, err = run(capsys, ["check", order, tall, tall])
        assert code == 2 and out == ""
        assert err == "error: staircase of 201 boxes is above 200\n"

    @pytest.mark.parametrize(
        "order, cols", [("et", [200]), ("punc", [1] * 200)]
    )
    def test_at_box_bound_answers(self, capsys, order, cols):
        tall = json.dumps({"columns": cols})
        code, out, err = run(capsys, ["check", order, tall, tall])
        assert (code, out, err) == (0, "true\n", "")

    @pytest.mark.parametrize("order", ["et", "punc"])
    def test_deepest_pair_at_box_bound_answers(self, capsys, order):
        # a column of 200 boxes against a row shares no part with it, so
        # the block search places all 200 parts, one level each
        column = json.dumps({"columns": [200]})
        row = json.dumps({"columns": [1] * 200})
        code, out, err = run(capsys, ["check", order, column, row])
        assert (code, out, err) == (0, "true\n", "")

    @pytest.mark.parametrize("order", ["dominance", "filter"])
    def test_box_bound_spares_dominance(self, capsys, order):
        # dominance and the filter do not recurse, so they take any size;
        # in et and punc, 500 boxes against themselves would cancel whole,
        # but a column of 500 against a row overflows the stack
        tall = json.dumps({"columns": [500]})
        code, out, err = run(capsys, ["check", order, tall, tall])
        assert (code, out, err) == (0, "true\n", "")


class TestSum:
    def test_direction_one(self, capsys):
        code, out, _ = run(
            capsys, ["sum", "1", '{"columns": [2]}', '{"columns": [1]}']
        )
        assert code == 0
        assert json.loads(out) == {"columns": [2, 1]}

    def test_direction_two(self, capsys):
        code, out, _ = run(
            capsys, ["sum", "2", '{"columns": [2]}', '{"columns": [1]}']
        )
        assert code == 0
        assert json.loads(out) == {"columns": [3]}

    def test_direction_two_of_a_tall_column(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(
            capsys, ["sum", "2", '{"columns": [1000000000]}', '{"columns": [1]}']
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (0, '{"columns": [1000000001]}\n')

    def test_bad_direction(self):
        with pytest.raises(SystemExit) as exc:
            main(["sum", "3", '{"columns": [1]}', '{"columns": [1]}'])
        assert exc.value.code == 2

    def test_parse_error(self, capsys):
        code, _, err = run(
            capsys, ["sum", "1", '{"rows": [1]}', '{"columns": [1]}']
        )
        assert code == 2
        assert "error" in err

    def test_invalid_json(self, capsys):
        code, _, err = run(capsys, ["sum", "1", "not json", '{"columns": [1]}'])
        assert code == 2
        assert "error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("depth", [20000, 100000])
    def test_deeply_nested_json(self, capsys, depth):
        nested = "[" * depth + "]" * depth
        code, out, err = run(capsys, ["sum", "1", '{"columns": [1]}', nested])
        assert (code, out, err) == (2, "", "error: JSON nested too deeply\n")


class TestGroebner:
    def test_staircase(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_text("x1 + x2\nx2^2\n")
        code, out, _ = run(capsys, ["groebner", str(path), "--staircase"])
        assert code == 0
        assert json.loads(out) == {"columns": [2]}

    def test_staircase_of_reduced_point(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_text("x1 - 1\nx2 - 2\n")
        code, out, _ = run(capsys, ["groebner", str(path), "--staircase"])
        assert code == 0
        assert json.loads(out) == {"columns": [1]}

    def test_staircase_of_collinear_points(self, capsys, tmp_path):
        from grobasin.groebner import format_ideal, vanishing_ideal

        path = tmp_path / "points.txt"
        ideal = vanishing_ideal([(0, 0), (1, 0), (2, 0)])
        path.write_text(format_ideal(ideal.generators))
        code, out, _ = run(capsys, ["groebner", str(path), "--staircase"])
        assert code == 0
        assert json.loads(out) == {"columns": [1, 1, 1]}

    def test_basis_default(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_text("x1^2 - x2\nx2^2 - 1\n")
        code, out, _ = run(capsys, ["groebner", str(path)])
        assert code == 0
        assert out == "x2^2 - 1\nx1^2 - x2\n"

    def test_limit(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_text("x1 + x2\nx2^2\n")
        code, out, _ = run(capsys, ["groebner", str(path), "--limit=-1,0"])
        assert code == 0
        assert out == "x2^2\nx1\n"

    def test_limit_bad_weight(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_text("x1\nx2\n")
        code, _, err = run(capsys, ["groebner", str(path), "--limit", "a,b"])
        assert code == 2
        assert "two integers" in err

    def test_limit_on_the_line_x1_0(self, capsys, tmp_path):
        # the flow at (1, 0) fixes the points (0, 1) and (0, 2)
        path = tmp_path / "ideal.txt"
        path.write_text("x1\nx2^2 - 3*x2 + 2\n")
        code, out, err = run(capsys, ["groebner", str(path), "--limit=1,0"])
        assert (code, out, err) == (0, "x2^2 - 3*x2 + 2\nx1\n", "")

    def test_limit_off_the_line_x1_0(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_text("x1 - 1\nx2^2 - 3*x2 + 2\n")
        code, out, err = run(capsys, ["groebner", str(path), "--limit=1,0"])
        assert (code, out) == (1, "")
        assert err == (
            "error: limit does not exist in the Hilbert scheme: "
            "ideal is not supported on the line x1 = 0\n"
        )

    def test_limit_undefined(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_text("x1 - 1\nx2 - 1\n")
        code, _, err = run(capsys, ["groebner", str(path), "--limit", "1,1"])
        assert code == 1
        assert "error" in err

    def test_not_zero_dimensional(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_text("x1\n")
        code, _, err = run(capsys, ["groebner", str(path), "--staircase"])
        assert code == 1
        assert "zero-dimensional" in err

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_bytes(b"\xff\xfe x1\n")
        code, out, err = run(capsys, ["groebner", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_parse_error_exit(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_text("x1 + !\n")
        code, _, err = run(capsys, ["groebner", str(path), "--staircase"])
        assert code == 2
        assert "line 1" in err

    def test_zero_denominator_exit(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_text("x1\nx2 + 1/0\n")
        code, out, err = run(capsys, ["groebner", str(path)])
        assert code == 2
        assert out == ""
        assert err == "error: line 2: zero denominator in '1/0'\n"

    def test_huge_exponent_exits_fast(self, capsys, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_text("x1^100000000\n")
        start = time.perf_counter()
        code, out, err = run(capsys, ["groebner", str(path)])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 1: exponent 100000000")
        assert "Traceback" not in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["groebner", str(tmp_path / "absent.txt"), "--basis"]
        )
        assert code == 2

    def test_flags_exclusive(self, tmp_path):
        path = tmp_path / "ideal.txt"
        path.write_text("x1\nx2\n")
        with pytest.raises(SystemExit) as exc:
            main(["groebner", str(path), "--staircase", "--basis"])
        assert exc.value.code == 2


class TestVerify:
    def test_exhaustive_suites(self, capsys):
        code, out, _ = run(capsys, ["verify", "duality", "alg", "--nmax", "4"])
        assert code == 0
        assert "all suites passed" in out
        assert out.count("experiment:") == 2

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "refinement", "--nmax", "3", "--json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["experiment_name"] == "refinement"
        assert data["cases_passed"] == data["cases_run"]

    def test_defaults_match_golden_reports(self, capsys):
        # all ten suites at their defaults, seed 0, byte for byte: a changed
        # rng draw, rejection or staircase anywhere in a suite shows here
        code, out, _ = run(capsys, ["verify", "--json", "--seed", "0"])
        assert code == 0
        assert out == (DATA / "verify_defaults_seed0.jsonl").read_text()

    def test_sampling_suite(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "prop1", "--trials", "3", "--nmax", "5", "--seed", "9"],
        )
        assert code == 0
        assert "cases:      3 run, 3 passed" in out

    def test_unknown_suite(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2

    def test_bad_trials(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "duality", "--trials", "0"])
        assert exc.value.code == 2

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("GROBASIN_SEED", "17")
        code, out, _ = run(
            capsys, ["verify", "prop1", "--trials", "2", "--nmax", "4", "--json"]
        )
        assert code == 0
        assert json.loads(out)["seed"] == 17

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("GROBASIN_SEED", "17")
        code, out, _ = run(
            capsys,
            [
                "verify",
                "prop1",
                "--trials",
                "2",
                "--nmax",
                "4",
                "--seed",
                "3",
                "--json",
            ],
        )
        assert code == 0
        assert json.loads(out)["seed"] == 3

    @pytest.mark.parametrize(
        "suite,smallest",
        [
            ("prop1", 2),
            ("prop2", 2),
            ("divisibility", 2),
            ("calibration", 2),
            ("punc", 2),
            ("et-closure", 2),
            ("single-column", 1),
            ("duality", 1),
            ("refinement", 1),
            ("alg", 1),
        ],
    )
    @pytest.mark.parametrize("below", [1, 2, 3])
    def test_nmax_below_minimum(self, capsys, suite, smallest, below):
        nmax = str(smallest - below)
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--trials", "1", "--nmax", nmax])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--nmax must be at least {smallest} for {suite}" in err

    def test_nmax_checked_before_any_suite_runs(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "duality", "prop1", "--nmax", "1"])
        assert exc.value.code == 2
        assert "experiment:" not in capsys.readouterr().out

    def test_nmax_checked_for_all_suites_when_none_named(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--nmax", "1"])
        assert exc.value.code == 2

    def test_smallest_nmax_runs(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "prop1", "single-column", "--trials", "2", "--nmax", "2"],
        )
        assert code == 0
        assert out.count("cases:      2 run, 2 passed") == 2

    def test_bad_environment_seed(self, monkeypatch):
        monkeypatch.setenv("GROBASIN_SEED", "yes")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "duality", "--nmax", "3"])
        assert exc.value.code == 2


class TestTopLevel:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_closed_pipe_exits_quietly(self):
        # the reader takes 20 bytes of a long listing and closes the pipe
        src = str(pathlib.Path(grobasin.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from grobasin.cli import main; sys.exit(main())",
             "enumerate", "40"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(20).startswith(b"40\n")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert b"Traceback" not in err, err.decode()
