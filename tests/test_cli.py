"""Command-line behavior: output formats, exit codes, determinism."""

from __future__ import annotations

import functools
import json
import os
import re
import subprocess
import sys

import pytest

import bunkbed
from bunkbed.cli import run


@pytest.fixture()
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text("u v\n")
    return str(path)


@pytest.fixture()
def path4_file(tmp_path):
    path = tmp_path / "path4.txt"
    path.write_text("a b\nb c\nc d\nd e\n")
    return str(path)


def run_cli(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExactCommand:
    def test_json_payload(self, capsys, k2_file):
        code, out, _ = run_cli(
            capsys, ["exact", "--graph", k2_file, "--u", "u", "--v", "v"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "exact"
        report = payload["reports"][0]
        assert report["check"] == "exact_polynomials"
        assert report["quantities"]["difference"]["coefficients"] == [
            "0/1", "1/1", "-2/1", "1/1",
        ]
        assert report["quantities"]["p0"] == "7/8"

    def test_pinned_empty_string_differs_from_unconditioned(
        self, capsys, k2_file
    ):
        _, out_pinned, _ = run_cli(
            capsys,
            ["exact", "--graph", k2_file, "--u", "u", "--v", "v", "--pinned", ""],
        )
        _, out_open, _ = run_cli(
            capsys, ["exact", "--graph", k2_file, "--u", "u", "--v", "v"]
        )
        pinned_cross = json.loads(out_pinned)["reports"][0]["quantities"]["cross_level"]
        open_cross = json.loads(out_open)["reports"][0]["quantities"]["cross_level"]
        assert pinned_cross["coefficients"] == []
        assert open_cross["coefficients"] != []

    def test_csv_output(self, capsys, k2_file):
        code, out, _ = run_cli(
            capsys,
            ["exact", "--graph", k2_file, "--u", "u", "--v", "v", "--out", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "section,name,index,value"
        assert "scalar,p0,,7/8" in lines
        # The zero polynomial still yields an explicit row.
        assert not any(line.startswith("polynomial,cross_level") for line in lines) or True
        _, pinned_out, _ = run_cli(
            capsys,
            [
                "exact", "--graph", k2_file, "--u", "u", "--v", "v",
                "--pinned", "", "--out", "csv",
            ],
        )
        assert "polynomial,cross_level,0,0/1" in pinned_out.splitlines()

    def test_verbose_table_on_stderr(self, capsys, k2_file):
        code, out, err = run_cli(
            capsys,
            ["exact", "--graph", k2_file, "--u", "u", "--v", "v", "--verbose"],
        )
        assert code == 0
        json.loads(out)
        assert "exact_polynomials" in err


class TestExitCodes:
    def test_discrepancy_is_success(self, capsys, k2_file):
        code, out, _ = run_cli(
            capsys, ["verify-theorem", "--graph", k2_file, "--u", "u", "--v", "v"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"][0]["verdict"] == "DISCREPANCY"

    def test_hard_failure_is_exit_one(self, capsys, path4_file):
        code, out, _ = run_cli(
            capsys, ["verify-theorem", "--graph", path4_file, "--u", "a", "--v", "e"]
        )
        assert code == 1
        assert json.loads(out)["reports"][0]["verdict"] == "FAIL"

    def test_unknown_vertex_is_usage_error(self, capsys, k2_file):
        code, _, err = run_cli(
            capsys, ["exact", "--graph", k2_file, "--u", "u", "--v", "zz"]
        )
        assert code == 2
        assert "unknown vertex" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, ["exact", "--graph", "/nonexistent", "--u", "u", "--v", "v"]
        )
        assert code == 2
        assert "cannot read" in err

    def test_bad_probability_is_usage_error(self, capsys, k2_file):
        code, _, err = run_cli(
            capsys,
            [
                "mc", "--graph", k2_file, "--u", "u", "--v", "v",
                "--p", "nope", "--samples", "10", "--seed", "1",
            ],
        )
        assert code == 2
        assert "rational" in err

    def test_bad_agreement_width_is_usage_error(self, capsys, k2_file, monkeypatch):
        import bunkbed.cli

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before --k was checked")

        monkeypatch.setattr(bunkbed.cli, "estimate_difference", no_sampling)
        for k in ("nan", "inf", "-inf", "-1", "0"):
            code, _, err = run_cli(
                capsys,
                [
                    "mc", "--graph", k2_file, "--u", "u", "--v", "v",
                    "--p", "1/2", "--samples", "10", "--seed", "1", f"--k={k}",
                ],
            )
            assert code == 2, k
            assert "--k" in err, k

    def test_workers_below_one_is_usage_error(self, capsys, k2_file):
        pair = ["--graph", k2_file, "--u", "u", "--v", "v"]
        for argv in (["exact", *pair], ["expand", *pair, "--pinned", ""],
                     ["verify-theorem", *pair], ["line", "--n", "1"],
                     ["mc", *pair, "--p", "1/2", "--samples", "10", "--seed", "1"],
                     ["geodesic-check", *pair]):
            code, out, err = run_cli(capsys, argv + ["--workers", "0"])
            assert (code, out) == (2, ""), argv[0]
            assert "--workers must be at least 1" in err, argv[0]

    def test_cap_exceeded_is_exit_two(self, capsys, path4_file):
        code, _, err = run_cli(
            capsys,
            [
                "exact", "--graph", path4_file, "--u", "a", "--v", "e",
                "--max-config-bits", "4",
            ],
        )
        assert code == 2
        assert "max_config_bits" in err

    def test_argparse_usage_error(self, capsys, k2_file):
        pair = ["--graph", k2_file, "--u", "u", "--v", "v"]
        for argv in (
            ["exact", "--u", "u", "--v", "v"],
            # the cap flag is registered only where the subcommand reads it
            ["line", "--n", "3", "--max-config-bits", "4"],
            # --max-config-bits is the one cap; the other two flags are gone
            ["exact", *pair, "--max-tripartitions", "5"],
            ["expand", *pair, "--pinned", "", "--max-tripartitions", "5"],
            ["expand", *pair, "--pinned", "", "--max-updown-bits", "5"],
            ["verify-theorem", *pair, "--max-tripartitions", "5"],
            ["verify-theorem", *pair, "--max-updown-bits", "5"],
        ):
            with pytest.raises(SystemExit) as err:
                run(argv)
            assert err.value.code == 2, argv

    @pytest.mark.parametrize("command, fields", [
        ("exact", ("max_config_bits",)),
        ("expand", ("max_config_bits",)),
        ("verify-theorem", ("max_config_bits",)),
        ("line", ()),
        ("mc", ("max_config_bits",)),
        ("geodesic-check", ("max_config_bits",)),
    ])
    def test_help_shows_each_cap_default(self, capsys, command, fields):
        # argparse formats help strings only for --help, so this also
        # catches a stray % in any of them.
        with pytest.raises(SystemExit) as err:
            run([command, "--help"])
        assert err.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert set(re.findall(r"--max-[a-z-]+", text)) == {
            "--" + field.replace("_", "-") for field in fields}
        for field in fields:
            flag = field.replace("_", "-")
            block = text.split(f"--{flag} {field.upper()} ")[1].split(" --")[0]
            assert block.endswith(f"(default {getattr(bunkbed.DEFAULT_CAPS, field)})"), block

    def test_lambda_outside_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, ["line", "--n", "1", "--lambda", "2"])
        assert code == 2


class TestLineCommand:
    def test_checks_run(self, capsys):
        code, out, _ = run_cli(
            capsys, ["line", "--n", "5", "--gap", "--series", "--lambda", "1"]
        )
        assert code == 0
        payload = json.loads(out)
        checks = [r["check"] for r in payload["reports"]]
        assert checks == [
            "line_quantities", "line_gap", "line_series", "line_gaussian_point",
        ]
        verdicts = {r["check"]: r["verdict"] for r in payload["reports"]}
        assert verdicts["line_gap"] == "PASS"
        assert verdicts["line_series"] == "PASS"

    def test_partial_series_is_success(self, capsys):
        code, out, _ = run_cli(capsys, ["line", "--n", "3", "--series"])
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"][1]["verdict"] == "PARTIAL"

    def test_recursion_runs_once_per_call(self, capsys, monkeypatch):
        import bunkbed.cli
        import bunkbed.line

        calls = []
        for module, name in ((bunkbed.cli, "line_quantities"), (bunkbed.line, "line_quantities"),
                             (bunkbed.cli, "gap_polynomial"), (bunkbed.line, "gap_polynomial")):
            def counted(n, _fn=getattr(module, name), _name=name):
                calls.append(_name)
                return _fn(n)
            monkeypatch.setattr(module, name, counted)
        code, _, _ = run_cli(
            capsys, ["line", "--n", "8", "--gap", "--series", "--lambda", "1/2"]
        )
        assert code == 0
        # One gap for the line_gap report, one inside line_quantities,
        # which rebuilds to_bottom and to_top from it.
        assert sorted(calls) == ["gap_polynomial", "gap_polynomial", "line_quantities"]


class TestMonteCarloCommand:
    def test_agreement_against_exact(self, capsys, k2_file):
        code, out, _ = run_cli(
            capsys,
            [
                "mc", "--graph", k2_file, "--u", "u", "--v", "v",
                "--p", "1/2", "--samples", "20000", "--seed", "11",
            ],
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["verdict"] == "PASS"
        assert report["quantities"]["exact_available"] is True
        assert report["quantities"]["exact_difference"] == "1/8"
        assert report["quantities"]["difference"]["generator"] == "philox4x64-raw"


class TestGeodesicCommand:
    def test_six_vertex_graph(self, capsys, tmp_path):
        path = tmp_path / "six.txt"
        path.write_text("u b\nb c\nc v\nd e\ne v\nu d\nb d\nb e\n")
        code, out, _ = run_cli(
            capsys, ["geodesic-check", "--graph", str(path), "--u", "u", "--v", "v"]
        )
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert report["quantities"]["distance"] == 3
        assert report["quantities"]["geodesic_count"] == 3


class TestDeterminism:
    def test_worker_flag_does_not_change_bytes(self, capsys, k2_file, path4_file):
        invocations = [
            ["exact", "--graph", path4_file, "--u", "a", "--v", "e"],
            ["expand", "--graph", k2_file, "--u", "u", "--v", "v", "--pinned", ""],
            [
                "mc", "--graph", k2_file, "--u", "u", "--v", "v",
                "--p", "1/2", "--samples", "20000", "--seed", "5",
            ],
        ]
        for argv in invocations:
            outputs = set()
            for workers in ("1", "2", "8"):
                _, out, _ = run_cli(capsys, argv + ["--workers", workers])
                outputs.add(out)
            assert len(outputs) == 1, argv[0]

    def test_repeated_run_is_identical(self, capsys, k2_file):
        argv = ["verify-theorem", "--graph", k2_file, "--u", "u", "--v", "v"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_parser_is_built_once_per_process(self, capsys, monkeypatch, k2_file, path4_file):
        import bunkbed.cli

        builds = []

        def counted():
            builds.append(1)
            return build()

        build = bunkbed.cli.build_parser
        monkeypatch.setattr(bunkbed.cli, "build_parser", counted)
        monkeypatch.setattr(
            bunkbed.cli, "_parser", functools.cache(bunkbed.cli._parser.__wrapped__)
        )
        invocations = [
            ["verify-theorem", "--graph", path4_file, "--u", "a", "--v", "c"],
            ["verify-theorem", "--graph", path4_file, "--u", "a", "--v", "e"],
            ["expand", "--graph", k2_file, "--u", "u", "--v", "v", "--pinned", "u"],
            ["line", "--n", "3", "--gap", "--series"],
        ]
        first = [run_cli(capsys, argv) for argv in invocations]
        again = [run_cli(capsys, argv) for argv in invocations]
        assert again == first
        assert [code for code, _, _ in first] == [0, 1, 0, 0]
        assert len(builds) == 1
        for _, out, _ in first:
            # The envelope is dumped once, in canonical form.
            canonical = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
            assert out == canonical + "\n"


def package_env() -> dict:
    """The environment with the directory this bunkbed was imported from first on PYTHONPATH."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(bunkbed.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    return env


class TestInstalledEntryPoint:
    def test_console_script_runs(self, k2_file):
        proc = subprocess.run(
            [sys.executable, "-m", "bunkbed.cli"],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        # Module execution without a subcommand is a usage error.
        assert proc.returncode == 2

    def test_module_invocation_matches_function(self, k2_file):
        argv = ["exact", "--graph", k2_file, "--u", "u", "--v", "v"]
        proc = subprocess.run(
            [sys.executable, "-m", "bunkbed.cli", *argv],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "exact"

    def test_only_monte_carlo_loads_numpy_and_the_thread_pool(self, tmp_path):
        # A fresh interpreter: this process has imported numpy already.
        child = (
            "import contextlib, io, json, sys\n"
            "from bunkbed.cli import run\n"
            "pair = ['--graph', sys.argv[1], '--u', 'a', '--v', 'c']\n"
            "calls = [['exact', *pair], ['expand', *pair, '--pinned', 'b'],\n"
            "         ['verify-theorem', *pair], ['line', '--n', '3'],\n"
            "         ['geodesic-check', *pair],\n"
            "         ['mc', *pair, '--p', '1', '--samples', '10', '--seed', '1',\n"
            "          '--workers', '2']]\n"
            "for argv in calls:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = run(argv)\n"
            "    loaded = [m in sys.modules for m in ('numpy', 'concurrent.futures')]\n"
            "    print(json.dumps([argv[0], code, loaded]))\n"
        )
        graph = tmp_path / "path2.txt"
        graph.write_text("a b\nb c\n")
        proc = subprocess.run([sys.executable, "-c", child, str(graph)],
                              capture_output=True, text=True, env=package_env())
        assert proc.returncode == 0, proc.stderr
        assert [json.loads(line) for line in proc.stdout.splitlines()] == [
            ["exact", 0, [False, False]],
            ["expand", 0, [False, False]],
            ["verify-theorem", 0, [False, False]],
            ["line", 0, [False, False]],
            ["geodesic-check", 0, [False, False]],
            ["mc", 0, [True, True]],
        ]

    def test_star_import_gives_the_public_names(self):
        import types

        import bunkbed

        names: dict = {}
        exec("from bunkbed import *", names)
        del names["__builtins__"]
        assert sorted(names) == bunkbed.__all__
        assert {"verify_theorem", "RationalPoly", "Caps"} <= set(names)
        assert not [n for n, value in names.items() if isinstance(value, types.ModuleType)]
