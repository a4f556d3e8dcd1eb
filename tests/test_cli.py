"""End-to-end runs of the installed command line tool.

Each case pins the exact output bytes under golden/.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent
DATA = ROOT / "data"
GOLDEN = ROOT / "golden"


def run_cli(argv):
    return subprocess.run([sys.executable, "-m", "tropikit", *argv], capture_output=True)


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
