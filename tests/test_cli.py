"""Byte-level golden tests for the command line front end."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hochlat.cli import main

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
    code, out, err = run(capsys, "triangles", "--n", "11", "--which", "m")
    assert code == 0
    assert out.startswith("x^11*y^11 ")
    assert err == ""


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
    code, _, err = run(capsys, "build", "--family", "bool", "--n", "13")
    assert code == 2
    assert "5000" in err
    code, _, err = run(capsys, "build", "--family", "hoch", "--n", "11")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "all", "--n", "11"],
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
