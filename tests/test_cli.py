"""End-to-end runs of the installed command line tool.

Each case pins the exact output bytes under golden/.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from helpers import reference_parser

from tropikit import cli

ROOT = Path(__file__).resolve().parent
DATA = ROOT / "data"
GOLDEN = ROOT / "golden"
# the child finds the package in this checkout, installed or not
PATH = os.pathsep.join(filter(None, [str(ROOT.parent / "src"), os.environ.get("PYTHONPATH")]))


def run_cli(argv):
    return subprocess.run([sys.executable, "-m", "tropikit", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": PATH})


CASES = [
    ("axioms_minplus.txt", ["axioms", "--semiring", "minplus", "--trials", "200", "--seed", "7"]),
    ("axioms_deformed.txt", ["axioms", "--semiring", "deformed:0.5", "--trials", "200", "--seed", "7"]),
    ("sp_graph.txt", ["sp", "--graph", str(DATA / "graph.txt")]),
    ("bellman_jacobi.txt", ["bellman", "--h-matrix", str(DATA / "h.txt"),
                            "--f-matrix", str(DATA / "f.txt"), "--semiring", "minplus"]),
    ("bellman_gs.txt", ["bellman", "--h-matrix", str(DATA / "h.txt"),
                        "--f-matrix", str(DATA / "f.txt"), "--semiring", "minplus",
                        "--method", "gauss-seidel"]),
    ("interval_bellman.txt", ["interval-bellman", "--graph", str(DATA / "interval_graph.txt"),
                              "--target", "2"]),
    ("newton_square.txt", ["newton", "--poly", str(DATA / "poly_newton.txt")]),
    ("tropcurve_conic.txt", ["tropcurve", "--poly", str(DATA / "poly_conic.txt")]),
    ("amoeba_h1.txt", ["amoeba", "--h", "1", "--samples", "60"]),
    ("legendre_phi.txt", ["legendre", "--input", str(DATA / "phi.txt"),
                          "--xi-start", "-2", "--xi-step", "0.5", "--xi-count", "9"]),
    ("convolve_phi_psi.txt", ["convolve", "--phi", str(DATA / "phi.txt"),
                              "--psi", str(DATA / "psi.txt")]),
    ("hopflax_s0.txt", ["hopflax", "--input", str(DATA / "s0.txt"), "--t", "0.5"]),
    ("dequant_demo.txt", ["dequant-demo", "--u", "0", "--v", "0"]),
]


# The "1-" prefix is the id these cases had when they also ran with a
# 4-thread cap; keeping it keeps each case's test history under one name.
@pytest.mark.parametrize("golden,argv", CASES, ids=[f"1-{c[0]}" for c in CASES])
def test_golden_outputs_are_byte_identical(golden, argv):
    r = run_cli(argv)
    assert r.returncode == 0, r.stderr
    assert r.stderr == b""
    assert r.stdout == (GOLDEN / golden).read_bytes()


def test_output_flag_writes_the_same_bytes(tmp_path):
    out = tmp_path / "sp.tsv"
    r = run_cli(["sp", "--graph", str(DATA / "graph.txt"), "-o", str(out)])
    assert r.returncode == 0
    assert r.stdout == b""
    assert out.read_bytes() == (GOLDEN / "sp_graph.txt").read_bytes()


def test_cross_method_agreement_is_pinned():
    j = (GOLDEN / "bellman_jacobi.txt").read_bytes()
    g = (GOLDEN / "bellman_gs.txt").read_bytes()
    assert j == g


def test_negative_cycle_exits_1():
    r = run_cli(["sp", "--graph", str(DATA / "graph_negcycle.txt")])
    assert r.returncode == 1
    assert r.stdout == b""
    assert r.stderr.startswith(b"ERROR NegativeCycle:")
    # one line that names the cycle
    assert r.stderr.count(b"\n") == 1
    assert b"1 -> 2 -> 1" in r.stderr


def test_overflowing_star_is_one_error_line():
    # weights that overflow float64 along a path, with and without a cycle
    for edges, name in (("0 1 -1e308\n1 0 -1e308\n", b"NegativeCycle"),
                        ("0 1 -1e308\n1 2 -1e308\n", b"DomainError")):
        with tempfile.TemporaryDirectory() as tmp:
            graph = Path(tmp) / "g.txt"
            graph.write_text("n 3\n" + edges)
            r = run_cli(["sp", "--graph", str(graph)])
        assert r.returncode == 1
        assert r.stdout == b""
        assert r.stderr.startswith(b"ERROR " + name + b":")
        assert r.stderr.count(b"\n") == 1


def test_out_of_memory_is_one_error_line(monkeypatch, capsys):
    def exhausted(graph):
        raise MemoryError("Unable to allocate 2.68 GiB for an array")

    monkeypatch.setattr(cli, "shortest_paths", exhausted)
    assert cli.main(["sp", "--graph", str(DATA / "graph.txt")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ERROR OutOfMemory:")
    assert err.count("\n") == 1


def test_library_error_exits_1():
    # zero coefficient is not a generalized-polynomial term
    r = run_cli(["newton", "--poly", str(DATA / "poly_conic.txt")])
    assert r.returncode == 1
    assert r.stderr.startswith(b"ERROR DomainError:")
    r = run_cli(["legendre", "--input", str(DATA / "s0.txt"),
                 "--xi-start", "0", "--xi-step", "1", "--xi-count", "1"])
    assert r.returncode == 1
    assert r.stderr.startswith(b"ERROR DomainError:")


def test_parse_errors_exit_2():
    r = run_cli(["sp", "--graph", str(DATA / "graph_bad.txt")])
    assert r.returncode == 2
    assert r.stderr.startswith(b"ERROR FileFormatError:")
    r = run_cli(["hopflax", "--input", str(DATA / "fun_bad.txt"), "--t", "1"])
    assert r.returncode == 2
    r = run_cli(["sp", "--graph", str(DATA / "no_such_file.txt")])
    assert r.returncode == 2


def test_usage_errors_exit_2():
    assert run_cli([]).returncode == 2
    assert run_cli(["axioms", "--semiring", "bogus"]).returncode == 2
    assert run_cli(["axioms", "--semiring", "deformed:-1"]).returncode == 2
    assert run_cli(["hopflax", "--input", str(DATA / "s0.txt"), "--t", "-1"]).returncode == 2
    assert run_cli(["amoeba", "--h", "0"]).returncode == 2
    assert run_cli(["dequant-demo", "--h", "-1"]).returncode == 2
    assert run_cli(["dequant-demo", "--h", "0,1"]).returncode == 2


SUBCOMMANDS = ["axioms", "sp", "bellman", "interval-bellman", "newton", "tropcurve", "amoeba",
               "legendre", "convolve", "hopflax", "dequant-demo"]
USAGE_CASES = [[], ["-h"], ["--help"], ["bogus"], ["--bogus"], ["-o", "x"], ["SP"],
               *([sub, "--help"] for sub in SUBCOMMANDS),
               ["sp", "--graph", "g", "--bogus"], ["amoeba", "--h", "0"],
               ["bellman", "--method", "newton"], ["axioms", "--semiring", "bogus"],
               ["dequant-demo", "--h", "a,b"], ["dequant-demo", "--h", "-1"], ["dequant-demo", "--h", "0,1"]]


@pytest.mark.parametrize("argv", USAGE_CASES, ids=lambda a: " ".join(a) or "(none)")
def test_help_and_usage_errors_match_the_reference_parser(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    got = []
    for parse in (cli.main, reference_parser().parse_args):
        with pytest.raises(SystemExit) as e:
            parse(argv)
        got.append((e.value.code, *capsys.readouterr()))
    assert got[0] == got[1]


@pytest.mark.parametrize("h", [",", ",,", ""])
def test_dequant_demo_refuses_an_h_list_with_no_value(h):
    r = run_cli(["dequant-demo", "--h", h])
    assert r.returncode == 2
    assert r.stdout == b""
    assert r.stderr.decode().splitlines()[-1].endswith(
        f"error: argument --h: not a comma-separated float list: {h!r}")
    assert r.stderr.count(b"error:") == 1


@pytest.mark.parametrize("argv", [["amoeba", "--h", "inf"], ["dequant-demo", "--h", "inf"],
                                  ["dequant-demo", "--h", "1,inf"]])
def test_an_infinite_h_is_a_domain_error_in_both_commands(argv, capsys):
    # one rule reads --h in both: positive is a usage check, finite the library's
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("ERROR DomainError:") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["3", "-1"])
def test_interval_bellman_target_out_of_range_exits_2(target):
    r = run_cli(["interval-bellman", "--graph", str(DATA / "interval_graph.txt"), "--target", target])
    assert r.returncode == 2
    assert r.stdout == b""
    assert r.stderr == f"ERROR FileFormatError: target {target} out of range for 3 nodes\n".encode()


def test_dequant_demo_skips_empty_h_fields(capsys):
    assert cli.main(["dequant-demo", "--h", "1,,2,"]) == 0
    assert capsys.readouterr().out == "1\t0.69314718055994529\n2\t1.3862943611198906\n"


def test_library_rejects_the_command_line_values_outside_the_domain(capsys):
    bellman = ["bellman", "--h-matrix", str(DATA / "h.txt"), "--f-matrix", str(DATA / "f.txt"),
               "--semiring", "minplus"]
    for argv in (["axioms", "--semiring", "minplus", "--trials", "-1"],
                 ["axioms", "--semiring", "minplus", "--trials", "0"],
                 ["axioms", "--semiring", "minplus", "--seed", "-1"],
                 [*bellman, "--max-iter", "-1"],
                 [*bellman, "--method", "gauss-seidel", "--max-iter", "0"],
                 ["interval-bellman", "--graph", str(DATA / "interval_graph.txt"), "--target", "2",
                  "--max-iter", "0"],
                 ["amoeba", "--h", "1e308", "--samples", "256"],
                 ["dequant-demo", "--u", "inf", "--v", "inf"],
                 ["dequant-demo", "--u", "nan"]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("ERROR DomainError:")
        assert err.count("\n") == 1


def test_fractional_node_id_exits_2_in_a_plain_run(tmp_path):
    # a fresh interpreter, with Python's default warning filters
    path = tmp_path / "g.txt"
    path.write_text("n 3\n0 1 1\n0 1.7 2\n")
    r = run_cli(["sp", "--graph", str(path)])
    assert r.returncode == 2
    assert r.stderr == b"ERROR FileFormatError: line 3: bad integer '1.7'\n"


_F = "start 0 step 1 convention maxplus\n"
MALFORMED = [
    (["sp", "--graph"], "n 3\n# c\n\n0 1 nan\n", "line 4: NaN is not a carrier value"),
    (["sp", "--graph"], "n 3\n0 1 1\n\n0 1 1.5 # tail\n", "line 4: expected 'src dst weight'"),
    (["bellman", "--semiring", "minplus", "--f-matrix", str(DATA / "f.txt"), "--h-matrix"],
     "# H\n0 1\n\n1 0 1\n", "line 4: ragged row (3 of 2 entries)"),
    (["interval-bellman", "--target", "0", "--graph"], "n 2\n\n0 1 3 1\n",
     "line 3: wmin 3.0 exceeds wmax 1.0"),
    (["hopflax", "--t", "1", "--input"], "# s\n" + _F + "0\n1_000\n", "line 4: not a number: '1_000'"),
]


@pytest.mark.parametrize("argv,text,want", MALFORMED, ids=[c[0][0] + str(i) for i, c in enumerate(MALFORMED)])
def test_malformed_numeric_file_is_one_error_line_naming_the_file_line(argv, text, want, tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text(text)
    assert cli.main([*argv, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ERROR FileFormatError: " + want)
    assert err.count("\n") == 1


OVERSIZED = [(["sp", "--graph"], "n 4294967296\n0 1 1.0\n"),
             (["interval-bellman", "--target", "0", "--graph"], "n 4294967296\n0 1 1.0 2.0\n")]


@pytest.mark.parametrize("argv,text", OVERSIZED, ids=[c[0][0] for c in OVERSIZED])
def test_oversized_graph_header_is_one_error_line(argv, text, tmp_path, capsys):
    # n * n exceeds numpy's largest array dimension, so nothing is allocated
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert cli.main([*argv, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "ERROR OutOfMemory: a 4294967296 x 4294967296 matrix is too large to allocate\n"
    r = run_cli([*argv, str(path)])
    assert r.returncode == 1
    assert (r.stdout, r.stderr) == (b"", err.encode())


@pytest.mark.parametrize("samples", [10**30, 2**62])
def test_amoeba_beyond_numpy_largest_array_is_one_error_line(samples, capsys):
    # numpy refuses the sample grid before it allocates anything
    argv = ["amoeba", "--h", "1", "--samples", str(samples)]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"ERROR OutOfMemory: {samples} samples are too many to allocate\n"
    r = run_cli(argv)
    assert r.returncode == 1
    assert (r.stdout, r.stderr) == (b"", err.encode())


HUGE_COUNTS = [
    (["axioms", "--semiring", "minplus", "--trials"], "trials are too many to allocate"),
    (["legendre", "--input", str(DATA / "phi.txt"), "--xi-start", "0", "--xi-step", "1", "--xi-count"],
     "slopes are too many to allocate"),
]


@pytest.mark.parametrize("count", [10**23, 2**63])
@pytest.mark.parametrize("argv,message", HUGE_COUNTS, ids=["axioms", "legendre"])
def test_a_count_beyond_numpy_largest_array_is_one_error_line(argv, message, count, capsys):
    # the count is refused before anything is allocated
    assert cli.main([*argv, str(count)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"ERROR OutOfMemory: {count} {message}\n")
    r = run_cli([*argv, str(count)])
    assert r.returncode == 1
    assert (r.stdout, r.stderr) == (b"", err.encode())


def test_newton_coefficient_beyond_float_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text("n 1\n1e400 1\n1 0\n")
    assert cli.main(["newton", "--poly", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("ERROR DomainError: cannot read coefficient")
    assert err.count("\n") == 1 and len(err) <= 120  # not the 401 digits of 1e400


def test_newton_exponent_with_a_huge_decimal_exponent_is_one_error_line(tmp_path, capsys):
    # refused before Fraction forms 10**99999999, which would take seconds
    path = tmp_path / "p.txt"
    path.write_text("n 1\n1 1e99999999\n1 0\n")
    assert cli.main(["newton", "--poly", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "ERROR FileFormatError: line 2: not a rational: '1e99999999'\n")
