import json
import subprocess
import sys

import pytest

from simspec.cli import main
from simspec.fields import QQ, PrimeField
from simspec.matrices import Mat, conjugate
from simspec.canonical import MatrixPair
from simspec.serialize import dumps, pair_from_json, pair_to_json


@pytest.fixture
def pair_files(tmp_path):
    def write(name, pair):
        path = tmp_path / name
        path.write_text(dumps(pair_to_json(pair)))
        return str(path)
    return write


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_canonicalize_roundtrip(capsys, pair_files):
    P = MatrixPair(Mat.diag(QQ, [0, 1]), Mat(QQ, [[1, 3], [0, 2]]))
    path = pair_files("p.json", P)
    code, out = _run(capsys, ["canonicalize", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["arrows"] == [[1, 2]]
    assert doc["star"] == ["*1", "**"]
    # output pair re-canonicalizes to itself with identity witness
    recon = pair_from_json(doc["pair"])
    from simspec.canonical import canonicalize
    res = canonicalize(recon)
    assert res.canon.reconstituted() == recon
    assert res.g == Mat.identity(QQ, 2)


def test_orbit_eq_exit_codes(capsys, pair_files):
    P = MatrixPair(Mat.diag(QQ, [0, 1]), Mat(QQ, [[1, 3], [0, 2]]))
    Q = MatrixPair(Mat.diag(QQ, [0, 1]), Mat(QQ, [[1, 6], [0, 2]]))
    R = MatrixPair(Mat.diag(QQ, [0, 1]), Mat(QQ, [[5, 3], [0, 2]]))
    p, q, r = pair_files("p.json", P), pair_files("q.json", Q), pair_files("r.json", R)
    code, out = _run(capsys, ["orbit-eq", p, q, "--method", "all"])
    assert code == 0 and json.loads(out)["equal"]
    code, out = _run(capsys, ["orbit-eq", p, r, "--method", "all"])
    assert code == 1
    doc = json.loads(out)
    assert doc["verdicts"]["canonical"] is False and doc["verdicts"]["rank"] is False


def test_orbit_eq_brute_over_fp(capsys, pair_files):
    F3 = PrimeField(3)
    P = MatrixPair(Mat.diag(F3, [0, 1]), Mat.unit(F3, 2, 1, 2))
    Q = MatrixPair(Mat.diag(F3, [0, 1]), Mat.unit(F3, 2, 1, 2) * F3.elem(2))
    p, q = pair_files("p.json", P), pair_files("q.json", Q)
    code, out = _run(capsys, ["orbit-eq", p, q, "--method", "all"])
    assert code == 0
    assert json.loads(out)["verdicts"] == {"canonical": True, "rank": True, "brute": True}


def test_type_eq(capsys, pair_files):
    P = MatrixPair(Mat.diag(QQ, [0, 1]), Mat.unit(QQ, 2, 2, 1))
    Q = MatrixPair(Mat.diag(QQ, [0, 1]), Mat.zeros(QQ, 2))
    p, q = pair_files("a.json", P), pair_files("b.json", Q)
    code, out = _run(capsys, ["type-eq", p, q])
    assert code == 1
    doc = json.loads(out)
    assert doc["witness"]["probe"]["label"] == "zero(2,1)"


def test_forests_lists_patterns(capsys):
    code, out = _run(capsys, ["forests", "--n", "2", "--stars"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    stars = [f["star"] for f in doc["forests"]]
    assert ["*0", "0*"] in stars and ["*1", "**"] in stars and ["*0", "1*"] in stars


def test_staircase_command(capsys):
    code, out = _run(capsys, ["staircase", "--k", "3", "--delta", "FRF"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"] == {"r": 3, "ws": ["x1", "x2", "x3"], "u1": "1", "u2": "1"}
    assert all(row["ok"] for row in doc["table"])
    code, out = _run(capsys, ["staircase", "--k", "2", "--delta", "RR",
                              "--field", "F7", "--alpha=-1,0,3"])
    assert code == 0
    assert json.loads(out)["ok"]


def test_staircase_bad_delta(capsys):
    code, _ = _run(capsys, ["staircase", "--k", "2", "--delta", "FX"])
    assert code == 2


def test_probes_command(capsys, pair_files):
    P = MatrixPair(Mat.diag(QQ, [0, 1, 2]), Mat(QQ, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    path = pair_files("p.json", P)
    code, out = _run(capsys, ["probes", path])
    assert code == 0
    doc = json.loads(out)
    kinds = {p["kind"] for p in doc["probes"]}
    assert kinds == {"sigma", "zeta", "rank"}
    n = doc["n"]
    for probe in doc["probes"]:
        if probe["kind"] == "zeta":
            assert probe["degree"] <= 2 * n - 1
        if probe["kind"] == "rank":
            assert probe["degree"] <= (n + 1) * (2 * n - 1)


def test_verify_staircase_suite(capsys):
    code, out = _run(capsys, ["verify", "--suite", "staircase", "--k", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["checks"] == (2 + 4 + 8) * 2


def test_verify_oracle_suite(capsys):
    code, out = _run(capsys, ["verify", "--suite", "oracle", "--n", "2",
                              "--p", "3", "--trials", "10", "--seed", "5"])
    assert code == 0
    assert json.loads(out)["agreements"] == 10


def test_verify_oracle_defaults_leave_out_infeasible_brute(capsys):
    """With its defaults (n = 3 over F_7) GL_3(F_7) is above the search guard,
    so the suite runs without the brute oracle; over F_5 it includes it."""
    code, out = _run(capsys, ["verify", "--suite", "oracle", "--trials", "5"])
    doc = json.loads(out)
    assert code == 0 and doc["ok"] and doc["n"] == 3 and doc["p"] == 7
    assert doc["brute_included"] is False
    code, out = _run(capsys, ["verify", "--suite", "oracle", "--p", "5", "--trials", "1"])
    assert code == 0 and json.loads(out)["brute_included"] is True


def test_orbit_eq_all_leaves_out_infeasible_brute(capsys, pair_files):
    """--method all over F_7 at n = 4 reports its canonical and rank verdicts
    without the brute oracle; --method brute still refuses the search."""
    F7 = PrimeField(7)
    A2 = Mat(F7, [[1, 2, 0, 3], [4, 0, 1, 0], [0, 5, 2, 1], [6, 0, 0, 1]])
    P = MatrixPair(Mat.diag(F7, [0, 1, 2, 3]), A2)
    g = Mat(F7, [[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 1], [1, 0, 0, 2]])
    Q = MatrixPair(*conjugate(g, P.mats()))
    R = MatrixPair(P.A1, A2 + Mat.unit(F7, 4, 4, 4))
    p, q, r = pair_files("p.json", P), pair_files("q.json", Q), pair_files("r.json", R)
    code, out = _run(capsys, ["orbit-eq", p, q, "--method", "all"])
    assert code == 0
    assert json.loads(out)["verdicts"] == {"canonical": True, "rank": True}
    code, out = _run(capsys, ["orbit-eq", p, r, "--method", "all"])
    assert code == 1
    assert json.loads(out)["verdicts"] == {"canonical": False, "rank": False}
    assert main(["orbit-eq", p, q, "--method", "brute"]) == 2


def test_verify_counterexamples_quick(capsys):
    code, out = _run(capsys, ["verify", "--suite", "counterexamples", "--quick"])
    assert code == 0
    doc = json.loads(out)
    assert doc["single_image"]["ok"] and doc["sigma_zero"]["ok"]


def test_input_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": "Q", "A1": [[0, "x"]], "A2": [[1]]}')
    assert main(["canonicalize", str(bad)]) == 2
    capsys.readouterr()
    missing = tmp_path / "missing.json"
    assert main(["canonicalize", str(missing)]) == 2
    capsys.readouterr()
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    assert main(["canonicalize", str(notjson)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["staircase", "--k", "0", "--delta="],
    ["staircase", "--k", "256", "--delta=" + "F" * 256],
    ["verify", "--suite", "oracle", "--n", "0"],
    ["verify", "--suite", "oracle", "--p", "4"],
    ["verify", "--suite", "staircase", "--p", "4"],
    ["verify", "--suite", "staircase", "--k", "0"],
    ["verify", "--suite", "staircase", "--k", "13"],
    ["verify", "--suite", "staircase", "--k", "20"],
    ["verify", "--suite", "oracle", "--trials", "-1"],
    # 2^89 - 1 is prime, but above the deterministic Miller-Rabin bound
    ["verify", "--suite", "oracle", "--p", str(2 ** 89 - 1)],
    # a certified prime whose root scan is refused; the sampler must not
    # list its residues first
    ["verify", "--suite", "oracle", "--p", str(2 ** 61 - 1)],
    ["forests", "--n", "-2"],
    ["forests", "--n", "6"],
    ["forests", "--n", "30"],
], ids=" ".join)
def test_bad_numeric_options_exit_2(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:      # argparse rejects the option
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


def test_default_field_env(capsys, tmp_path, monkeypatch):
    doc = {"A1": [[0, 0], [0, 1]], "A2": [[0, 1], [0, 0]]}
    path = tmp_path / "nofield.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("SIMSPEC_FIELD", "F7")
    code, out = _run(capsys, ["canonicalize", str(path)])
    assert code == 0
    assert json.loads(out)["field"] == {"Fp": 7}
    monkeypatch.delenv("SIMSPEC_FIELD")
    assert main(["canonicalize", str(path)]) == 2
    capsys.readouterr()


def test_determinism_byte_identical(capsys, pair_files):
    P = MatrixPair(Mat.diag(QQ, [0, 1]), Mat(QQ, [[1, 3], [0, 2]]))
    path = pair_files("p.json", P)
    _, out1 = _run(capsys, ["canonicalize", path])
    _, out2 = _run(capsys, ["canonicalize", path])
    assert out1 == out2
    _, v1 = _run(capsys, ["verify", "--suite", "oracle", "--n", "2", "--p", "3",
                          "--trials", "5", "--seed", "1"])
    _, v2 = _run(capsys, ["verify", "--suite", "oracle", "--n", "2", "--p", "3",
                          "--trials", "5", "--seed", "1"])
    assert v1 == v2


def test_console_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "simspec.cli", "forests", "--n", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 1
