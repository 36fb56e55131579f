"""Byte-level golden tests for the command line front end."""

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hochlat import checks, cli
from hochlat.cli import main
from hochlat.limits import MAX_ELEMENTS, MAX_N

DOT_HOCH_1 = """digraph hoch_1 {
  rankdir=BT;
  0 [label="(0)"];
  1 [label="(1)"];
  0 -> 1;
}
"""

TABLE_3 = """u        tau(u)  l1(u)  sigma(u)
(0,0,0)  23      0      23
(0,0,2)  2       0      2
(0,2,0)  3       0      3
(0,2,2)  ε       0      ε
(1,0,0)  23      1      \U0001d7d923
(1,0,2)  2       1      \U0001d7d92
(1,1,0)  23      2      2\U0001d7d93
(1,1,1)  23      3      23\U0001d7d9
(1,1,2)  2       2      2\U0001d7d9
(1,2,0)  3       1      \U0001d7d93
(1,2,1)  3       3      3\U0001d7d9
(1,2,2)  ε       1      \U0001d7d9
"""

TABLE_2_ASCII = """u      tau(u)  l1(u)  sigma(u)
(0,0)  2       0      2
(0,2)  eps     0      eps
(1,0)  2       1      1* 2
(1,1)  2       2      2 1*
(1,2)  eps     1      1*
"""

M3_TEXT = (
    "x^3*y^3 - 5*x^2*y^3 + 5*x^2*y^2 + 7*x*y^3 - 12*x*y^2"
    " - 3*y^3 + 5*x*y + 7*y^2 - 5*y + 1\n"
)

TRIANGLES_CHECK_3 = """ok   m-triangle
ok   f-triangle
ok   h-triangle
"""

CHECK_ALL_7 = """ok   triword count
ok   componentwise join/meet
ok   extremal/semidistributive/spherical/intersection
ok   doubling reconstruction
ok   galois characterization
ok   orthogonal-pair reconstruction
ok   canonical join complex
ok   sigma order isomorphism
ok   shuffle statistics
ok   m-triangle
ok   f-triangle
ok   h-triangle
ok   face vector
ok   boolean baselines
note g-triangle conjecture at n=7: matches
"""

CHECK_ALL_10_STUBBED = """ok   triword count
ok   componentwise join/meet
ok   extremal/semidistributive/spherical/intersection
ok   doubling reconstruction
ok   galois characterization
ok   orthogonal-pair reconstruction
ok   canonical join complex
ok   sigma order isomorphism
ok   shuffle statistics
ok   m-triangle
ok   f-triangle
ok   h-triangle
ok   face vector
ok   boolean baselines
note g-triangle conjecture at n=10: matches
"""

GALOIS_MO_3 = """vertices: 5
  (1,0,0)
  (1,1,0)
  (1,1,1)
  (0,0,2)
  (0,2,0)
edges: 5
  (1,1,0) -> (1,0,0)
  (1,1,1) -> (1,0,0)
  (1,1,1) -> (1,1,0)
  (0,0,2) -> (1,1,1)
  (0,2,0) -> (1,1,0)
orthogonal pairs: 12
reconstruction isomorphic: yes
"""

GALOIS_MO_3_JSON = """{
  "schema": "hochlat/1",
  "kind": "digraph",
  "vertices": [
    "(1,0,0)",
    "(1,1,0)",
    "(1,1,1)",
    "(0,0,2)",
    "(0,2,0)"
  ],
  "edges": [
    [
      1,
      0
    ],
    [
      2,
      0
    ],
    [
      2,
      1
    ],
    [
      3,
      2
    ],
    [
      4,
      1
    ]
  ],
  "orthogonal_pairs": 12,
  "reconstruction_isomorphic": true
}
"""

OFF_CJC_3 = """OFF
5 3 0
# 0 b3
# 1 b2
# 2 a1
# 3 a2
# 4 a3
2 0 3
2 1 4
3 0 1 2
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_dot_golden(capsys):
    code, out, err = run(capsys, "build", "--family", "hoch", "--n", "1", "--format", "dot")
    assert code == 0
    assert out == DOT_HOCH_1
    assert err == ""
    assert out.count("->") == 1 and out.count("label=") == 2


def test_faces_golden(capsys):
    code, out, _ = run(capsys, "faces", "--n", "3")
    assert code == 0
    assert out == "12 18 8 1\n"


def test_faces_fails_with_the_shared_check(capsys, monkeypatch):
    from hochlat import cli

    monkeypatch.setattr(cli, "face_vector", lambda n: [12, 18, 8, 2])
    code, out, err = run(capsys, "faces", "--n", "3")
    assert code == 1
    assert out == ""
    assert err == "counted face vector [12, 18, 8, 2] fails the face-vector check\n"


def test_check_faces_checks_the_counted_vector(monkeypatch):
    from hochlat import checks

    assert checks.check_faces(3)
    for wrong in ([12, 18, 8, 2], [12, 19, 9, 1]):  # the second keeps both ends and the alternating sum
        monkeypatch.setattr(checks, "face_vector", lambda n: wrong)
        assert not checks.check_faces(3)


def test_triangles_m3_golden(capsys):
    code, out, _ = run(capsys, "triangles", "--family", "hoch", "--n", "3", "--which", "m")
    assert code == 0
    assert out == M3_TEXT


def test_triangles_check_golden(capsys):
    code, out, err = run(capsys, "triangles", "--n", "3", "--check")
    assert code == 0
    assert out == TRIANGLES_CHECK_3
    assert err == ""


def test_triangles_check_runs_every_bundle_at_n9(capsys):
    code, out, _ = run(capsys, "triangles", "--n", "9", "--check")
    assert code == 0
    assert out == "ok   m-triangle\nok   f-triangle\nok   h-triangle\n"


def test_check_all_runs_every_bundle_at_n10(capsys, monkeypatch):
    from hochlat import checks

    # Every bundle is stubbed; the names are the registry's own.
    stubbed = [(name, lambda n: True) for name, _ in checks.CHECKS]
    monkeypatch.setattr(checks, "CHECKS", stubbed)
    monkeypatch.setattr(checks, "g_conjecture_check", lambda n: {"match": True})
    code, out, _ = run(capsys, "check", "all", "--n", "10")
    assert code == 0
    assert out == CHECK_ALL_10_STUBBED


def test_check_all_golden_with_conjecture_note(capsys):
    code, out, err = run(capsys, "check", "all", "--n", "7")
    assert code == 0
    assert out == CHECK_ALL_7
    assert err == ""


def test_check_all_golden_at_n1_to_8(capsys):
    """The stdout of ``check all --n 1`` to ``--n 8`` in turn, byte for byte."""
    outs = []
    for n in range(1, 9):
        code, out, err = run(capsys, "check", "all", "--n", str(n))
        assert (code, err) == (0, "")
        outs.append(out)
    golden = Path(__file__).resolve().parent / "golden" / "check_all.txt"
    assert "".join(outs) == golden.read_text(encoding="utf-8")


def test_triangles_closed_form_past_max_n(capsys):
    """The closed forms take n up to MAX_N, like every other n; past it they exit 2 at once."""
    code, out, err = run(capsys, "triangles", "--n", str(MAX_N), "--which", "m")
    assert code == 0
    assert out.startswith(f"x^{MAX_N}*y^{MAX_N} ")
    assert err == ""
    code, out, err = run(capsys, "triangles", "--n", str(MAX_N + 1), "--which", "m")
    assert (code, out) == (2, "")
    assert err == f"size bound exceeded: n must satisfy 1 <= n <= {MAX_N}, got {MAX_N + 1}\n"


def test_sigma_table_goldens(capsys):
    code, out, _ = run(capsys, "clo", "--family", "hoch", "--n", "3", "--table")
    assert code == 0
    assert out == TABLE_3
    code, out, _ = run(capsys, "clo", "--family", "hoch", "--n", "2", "--table", "--ascii")
    assert code == 0
    assert out == TABLE_2_ASCII


def test_cjc_off_golden(capsys):
    code, out, _ = run(capsys, "cjc", "--family", "hoch", "--n", "3", "--format", "off")
    assert code == 0
    assert out == OFF_CJC_3


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
@pytest.mark.parametrize("family", ["hoch", "bool"])
def test_clo_prints_what_build_clo_of_prints(capsys, family, fmt):
    via_clo = run(capsys, "clo", "--family", family, "--n", "3", "--format", fmt)
    via_build = run(capsys, "build", "--family", "clo-of", "--of", family, "--n", "3", "--format", fmt)
    assert via_clo == via_build and via_clo[0] == 0 and via_clo[1]


def test_output_is_deterministic(capsys):
    seen = {}
    for argv in (
        ["build", "--family", "hoch", "--n", "3", "--format", "json"],
        ["clo", "--family", "hoch", "--n", "3", "--table"],
        ["galois", "--family", "hoch", "--n", "3", "--format", "dot"],
        ["cjc", "--family", "hoch", "--n", "4", "--format", "json"],
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        seen[tuple(argv)] = first


def test_json_envelopes(capsys):
    for argv in (
        ["build", "--family", "clo-of", "--of", "hoch", "--n", "2", "--format", "json"],
        ["faces", "--n", "2", "--format", "json"],
        ["triangles", "--n", "2", "--format", "json"],
        ["conjecture", "g", "--n", "2", "--format", "json"],
        ["irr", "--family", "hoch", "--n", "2", "--format", "json"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "hochlat/1"


def test_triangles_json_terms(capsys):
    code, out, _ = run(capsys, "triangles", "--n", "1", "--which", "m", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"]["terms"] == [
        {"x": 1, "y": 1, "c": "1"},
        {"x": 0, "y": 1, "c": "-1"},
        {"x": 0, "y": 0, "c": "1"},
    ]


@pytest.mark.parametrize("fmt, golden", [("text", GALOIS_MO_3), ("json", GALOIS_MO_3_JSON)])
def test_galois_mo_golden(capsys, fmt, golden):
    assert run(capsys, "galois", "--family", "hoch", "--n", "3", "--mo", "--format", fmt) == (0, golden, "")


def test_galois_mo_verdict(capsys):
    code, out, _ = run(capsys, "galois", "--family", "hoch", "--n", "2", "--mo")
    assert code == 0
    assert "orthogonal pairs: 5" in out
    assert "reconstruction isomorphic: yes" in out


def test_galois_mo_verdict_past_five_hundred_elements(capsys):
    code, out, _ = run(capsys, "galois", "--family", "hoch", "--n", "8", "--mo")
    assert code == 0
    assert "orthogonal pairs: 704" in out
    assert "reconstruction isomorphic: yes" in out


def test_check_all_small(capsys):
    code, out, _ = run(capsys, "check", "all", "--n", "2")
    assert code == 0
    assert out.count("ok   ") == 14
    assert "FAIL" not in out
    assert "g-triangle conjecture" in out


def test_conjecture_verdict(capsys):
    code, out, _ = run(capsys, "conjecture", "g", "--n", "3")
    assert code == 0
    assert out.endswith("verdict: match\n")


def test_usage_errors(capsys):
    code, _, err = run(capsys, "irr", "--family", "hoch")
    assert code == 2
    assert "usage error" in err
    code, _, err = run(capsys, "build", "--family", "shuffle", "--n", "3")
    assert code == 2
    assert "--a and --b" in err


def test_size_guard_reports_bound(capsys):
    code, _, err = run(capsys, "build", "--family", "bool", "--n", str(MAX_ELEMENTS.bit_length()))
    assert code == 2
    assert f"0 <= n <= {MAX_ELEMENTS.bit_length() - 1}, got" in err  # 2**n passes MAX_ELEMENTS from there on
    code, _, err = run(capsys, "build", "--family", "shuffle", "--a", str(MAX_N - 1), "--b", "2")
    assert code == 2
    assert f"(cap {MAX_ELEMENTS})" in err  # Shuf(MAX_N - 1, 2) is past the cap, Shuf(MAX_N - 1, 1) at it
    code, _, err = run(capsys, "build", "--family", "hoch", "--n", str(MAX_N + 1))
    assert code == 2
    assert str(MAX_N) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "all", "--n", str(MAX_N + 1)],
        ["build", "--family", "shuffle", "--a", "-1", "--b", "1"],
        ["build", "--family", "bool", "--n", "-1"],
        ["conjecture", "g", "--n", "0"],
        ["triangles", "--n", "0"],
    ],
)
def test_bad_sizes_exit_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("size bound exceeded: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--family", "bool", "--n", "x"],
        ["build", "--family", "bool", "--n", "1" * 4301],  # past Python's 4,300-digit int() limit
        ["build", "--family", "tree", "--n", "2"],
        ["faces", "--n", "2", "--bogus"],
        [],
    ],
)
def test_argument_errors_exit_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_table_rejects_non_hoch(capsys):
    code, _, err = run(capsys, "clo", "--family", "bool", "--n", "2", "--table")
    assert code == 2
    assert "hoch" in err


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_table_rejects_non_text_format(capsys, fmt):
    code, out, err = run(capsys, "clo", "--family", "hoch", "--n", "2", "--table", "--format", fmt)
    assert code == 2
    assert out == ""
    assert "--format" in err


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_2_with_one_line(capsys, monkeypatch):
    """Exit 1 means a failed check; a reader that leaves early, as in ``check all | head -1``, gets
    exit 2 and one stderr line, and stdout then points at os.devnull for the flush at exit."""
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["check", "all", "--n", "2"])
    sys.stdout.close()  # the file main opened; monkeypatch restores the captured stdout
    assert code == 2 and sys.stdout.name == os.devnull
    assert capsys.readouterr().err == "error: stdout closed before the output was written\n"


def test_check_bundles_do_not_load_numpy_ma():
    """The 14 bundles deduplicate by sorting, not by np.unique, which loads numpy.ma on its first call."""
    code = (
        "import sys\n"
        "from hochlat.checks import CHECKS\n"
        "print(len(CHECKS), [name for name, fn in CHECKS if not fn(6)],"
        " sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "14 [] []\n"


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hochlat.cli", "faces", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "12 18 8 1\n"


# -- the exit-code contract, swept ---------------------------------------------------

SIZES = [-1, 0, 1, 2, 3, MAX_N, MAX_N + 1, None]  # None leaves the size out
HUGE = [
    ["build", "--family", "bool", "--n", "15000"],
    ["build", "--family", "bool", "--n", str(10**9)],
    ["build", "--family", "shuffle", "--a", "20000", "--b", "1"],
    ["galois", "--family", "shuffle", "--a", "1", "--b", "20000", "--mo"],
    ["triangles", "--n", "400"],
    ["triangles", "--n", "400", "--which", "m", "--format", "json"],
    ["check", "all", "--n", str(10**9)],
    ["faces", "--n", str(10**9)],
    ["clo", "--family", "hoch", "--n", str(10**9), "--table"],
]


def _shapes():
    """Every subcommand with every family, inner family, format and flag it takes, less the size."""
    formats = {"build": ["text", "json", "dot"], "irr": ["text", "json"], "cjc": ["text", "json", "off"],
               "clo": ["text", "json", "dot"], "galois": ["text", "json", "dot"]}
    families = {"build": ["hoch", "shuffle", "bool", "clo-of", "galois-of"], "irr": ["hoch", "shuffle", "bool"],
                "cjc": ["hoch", "bool"], "clo": ["hoch", "bool"], "galois": ["hoch", "shuffle", "bool"]}
    for command, fams in families.items():
        for family in fams:
            inner = ["hoch", "shuffle", "bool"] if family.endswith("-of") else [None]
            for of in inner:
                for fmt in formats[command]:
                    argv = [command, "--family", family, "--format", fmt] + (["--of", of] if of else [])
                    yield argv
                    if command == "galois":
                        yield argv + ["--mo"]
    for argv in (["--ascii"], [], ["--format", "json"]):  # the last exits 2: the table prints text only
        yield ["clo", "--family", "hoch", "--table"] + argv
    yield ["clo", "--family", "bool", "--table"]  # exits 2: the table is the hoch family's
    for which in ["m", "f", "h", "rank", "char", "all"]:
        for fmt in ["text", "json"]:
            yield ["triangles", "--which", which, "--format", fmt]
    yield ["triangles", "--check"]
    for fmt in ["text", "json"]:
        yield ["faces", "--format", fmt]
        yield ["conjecture", "g", "--format", fmt]


def _size(argv, n, b):
    if "shuffle" not in argv:
        return [] if n is None else [f"--n={n}"]
    return [f"--{name}={value}" for name, value in (("a", n), ("b", b)) if value is not None]


def _sweep(seed=33, per_shape=4):
    """The huge inputs; check all at n <= 3 and past MAX_N; per_shape seeded sizes up to 3 (or none) for
    every shape; and MAX_N and MAX_N + 1 once each for every subcommand, in a seeded shape (a first build
    at those sizes can take a few tenths of a second, so once per subcommand keeps the sweep near 1 s)."""
    rng = random.Random(seed)
    small = [n for n in SIZES if n is None or n <= 3]
    argvs = HUGE + [["check", "all"] + _size([], n, None) for n in small + [MAX_N + 1]]
    commands = {}
    for argv in _shapes():
        for n, b in zip(rng.sample(small, per_shape), rng.sample(small, per_shape)):
            argvs.append(argv + _size(argv, n, b))
        commands.setdefault(argv[0], []).append(argv)
    for shapes in commands.values():
        for big in (MAX_N, MAX_N + 1):
            argv, pair = rng.choice(shapes), [big, rng.choice(small)]
            argvs.append(argv + _size(argv, *(rng.sample(pair, 2) if "shuffle" in argv else pair)))
    return argvs


def test_exit_code_sweep(capsys):
    """Every argument list exits 0 with stdout only or 2 with one stderr line; exit 1 is a failed check alone."""
    argvs = _sweep()
    assert 350 <= len(argvs) <= 450
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert code in (0, 2), argv
        if code == 2:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n"), argv
        else:
            assert out and err == "", argv


def test_a_failing_bundle_exits_1(capsys, monkeypatch):
    """Stubbed to return False, one bundle prints FAIL and turns the exit code to 1, in check all and triangles --check."""
    def stub(bundles):
        return [(name, (lambda n: False) if name == "f-triangle" else fn) for name, fn in bundles]

    monkeypatch.setattr(checks, "CHECKS", stub(checks.CHECKS))
    monkeypatch.setattr(cli, "TRIANGLE_CHECKS", stub(cli.TRIANGLE_CHECKS))
    code, out, err = run(capsys, "check", "all", "--n", "2")
    assert (code, err) == (1, "")
    assert out.count("FAIL ") == 1 and "FAIL f-triangle\n" in out
    assert run(capsys, "triangles", "--n", "2", "--check") == (1, "ok   m-triangle\nFAIL f-triangle\nok   h-triangle\n", "")
