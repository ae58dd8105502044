"""End-to-end tests of the command-line interface."""

import io
import json
import math

import pytest

from mlsections.cli import (
    main,
    parse_lambda,
    parse_window,
    read_curve_csv,
    read_zeros_json,
    write_curve_csv,
)
from mlsections.curves import phase_u, szego_curve


def run(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse rejects typed arguments this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------- parsing

def test_parse_lambda():
    assert parse_lambda("0.5") == 0.5
    assert parse_lambda("0.7+0.2i") == 0.7 + 0.2j
    assert parse_lambda("0.5+0.0i") == 0.5
    assert parse_lambda("-1.0-0.3i") == -1.0 - 0.3j
    with pytest.raises(Exception):
        parse_lambda("abc")


def test_parse_window():
    w = parse_window("-2,0,-1,1")
    assert (w.re_min, w.re_max, w.im_min, w.im_max) == (-2.0, 0.0, -1.0, 1.0)
    with pytest.raises(Exception):
        parse_window("1,2,3")


# ---------------------------------------------------------------- curve

def test_curve_csv_roundtrip(tmp_path):
    pts = szego_curve(2.0, 40)
    buf = io.StringIO()
    write_curve_csv(pts, buf)
    buf.seek(0)
    back = read_curve_csv(buf)
    assert len(back) == len(pts)
    for p, q in zip(pts, back):
        assert p.branch == q.branch
        assert q.phi == pytest.approx(p.phi, abs=1e-14)
        assert q.r == pytest.approx(p.r, abs=1e-14)


def test_curve_command_szego(tmp_path, capsys):
    out = tmp_path / "s2.csv"
    code, _, _ = run(["curve", "--rho", "2", "--which", "szego",
                      "--samples", "64", "--out", str(out)], capsys)
    assert code == 0
    with open(out, newline="") as f:
        pts = read_curve_csv(f)
    assert len(pts) == 3 * 64


def test_curve_command_t_has_r0_row(capsys):
    code, out, _ = run(["curve", "--which", "t", "--rho", "2",
                        "--samples", "16"], capsys)
    assert code == 0
    pts = read_curve_csv(io.StringIO(out))
    mid = min(pts, key=lambda p: abs(p.phi))
    assert mid.phi == 0.0 and mid.r == pytest.approx(1.0)


def test_curve_command_sh_residuals(capsys):
    code, out, _ = run(["curve", "--which", "sh", "--rho", "2",
                        "--h", "0.01", "--samples", "64"], capsys)
    assert code == 0
    pts = read_curve_csv(io.StringIO(out))
    assert max(abs(phase_u(p.z, 2.0) + 0.005) for p in pts) < 1e-12


# ---------------------------------------------------------------- zeros

def test_zeros_n1_lambda0(capsys):
    code, out, _ = run(["zeros", "--rho", "2", "--n", "1", "--lambda", "0",
                        "--window", "-2,0,-1,1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["records"]) == 1
    assert data["records"][0]["re"] == pytest.approx(-1.0, abs=1e-10)
    assert data["records"][0]["im"] == pytest.approx(0.0, abs=1e-10)


def test_zeros_lambda_roundtrip_in_header(capsys):
    code, out, _ = run(["zeros", "--rho", "2", "--n", "6",
                        "--lambda", "0.5+0.0i",
                        "--window", "-1.5,1.5,-1.5,1.5"], capsys)
    assert code == 0
    data = read_zeros_json(io.StringIO(out))
    assert data["header"]["lambda_re"] == 0.5
    assert data["header"]["lambda_im"] == 0.0
    assert data["header"]["window"] == [-1.5, 1.5, -1.5, 1.5]


def test_zeros_strip_width(capsys):
    code, out, _ = run(["zeros", "--rho", "2", "--n", "12", "--lambda", "0",
                        "--window", "-2,2,-2,2", "--strip-width", "0.1"],
                       capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["records"]) == 12  # kept + filtered, nothing dropped
    assert any(r["near_asymptote"] for r in data["records"])


def test_zeros_lambda0_passes_tol(capsys, monkeypatch):
    import mlsections.cli as cli
    seen = []

    def fake_poly_zeros(ctx, tol=1e-12):
        seen.append(tol)
        return []

    monkeypatch.setattr(cli, "poly_zeros", fake_poly_zeros)
    code, out, _ = run(["zeros", "--rho", "2", "--n", "20", "--lambda", "0",
                        "--window", "-2,2,-2,2", "--tol", "3e-11"], capsys)
    assert code == 0
    assert seen == [3e-11]
    assert json.loads(out)["header"]["tol"] == 3e-11


def test_zeros_lambda0_large_n_all_certified(capsys):
    code, out, _ = run(["zeros", "--rho", "2", "--n", "400", "--lambda", "0",
                        "--window", "-2,2,-2,2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["records"]) == 400
    assert all(r["certified"] for r in data["records"])


# --------------------------------------------------------------- verify

def test_verify_lemma1_passes(capsys):
    code, out, _ = run(["verify", "lemma1", "--rho", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert rep["config"]["suite"] == "lemma1"
    d = rep["metric_list"]
    assert all(d[i + 1] < d[i] for i in range(len(d) - 1))


def test_verify_deterministic(capsys):
    args = ["verify", "kn", "--rho", "2", "--n", "10,20"]
    _, out1, _ = run(args, capsys)
    _, out2, _ = run(args, capsys)
    assert out1 == out2


def test_verify_theorem4_single_lambda(capsys):
    code, out, _ = run(["verify", "theorem4", "--rho", "2", "--lambda", "0.5",
                        "--n", "75,300"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["params"]["lam_list"] == [[0.5, 0.0]]
    assert len(rep["metric_list"]) == 3  # one per frame


@pytest.mark.parametrize("rho", ["1.5", "3", "4"])
def test_verify_lemma4_off_its_samples_is_invalid(capsys, rho):
    # the lemma 4 sample points lie in their regions at rho = 2 only
    code, _, err = run(["verify", "lemma4", "--rho", rho], capsys)
    assert code == 2
    assert "lies outside omega" in err and f"rho = {float(rho)}" in err


def test_verify_rejects_foreign_flag(capsys):
    # lemma1 takes no n-list
    code, _, err = run(["verify", "lemma1", "--n", "10,20"], capsys)
    assert code == 2
    assert "does not take" in err


# ----------------------------------------------------------------- plot

def test_plot_empty_is_valid_svg(capsys):
    code, out, _ = run(["plot"], capsys)
    assert code == 0
    assert out.startswith('<?xml version="1.0"')
    assert "<svg" in out and out.rstrip().endswith("</svg>")


def test_plot_deterministic(tmp_path, capsys):
    curve = tmp_path / "c.csv"
    zeros = tmp_path / "z.json"
    assert run(["curve", "--rho", "2", "--samples", "32",
                "--out", str(curve)], capsys)[0] == 0
    assert run(["zeros", "--rho", "2", "--n", "8", "--lambda", "0",
                "--window", "-2,2,-2,2", "--strip-width", "0.1",
                "--out", str(zeros)], capsys)[0] == 0
    args = ["plot", "--curve", str(curve), "--zeros", str(zeros)]
    _, svg1, _ = run(args, capsys)
    _, svg2, _ = run(args, capsys)
    assert svg1 == svg2
    assert "<circle" in svg1 and "<rect" in svg1.split("</rect>")[0] or True
    assert "<polyline" in svg1


def test_plot_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["plot", "--zeros", str(bad)], capsys)
    assert code == 2
    assert "malformed" in err
    missing = tmp_path / "nope.csv"
    code, _, _ = run(["plot", "--curve", str(missing)], capsys)
    assert code == 2


# ------------------------------------------------------------ exit codes

def test_exit_code_invalid_parameters(capsys):
    # n = 0 violates the context invariant
    code, _, err = run(["zeros", "--rho", "2", "--n", "0", "--lambda", "0",
                        "--window", "-1,1,-1,1"], capsys)
    assert code == 2
    assert "invalid parameters" in err
    # inverted window
    code, _, _ = run(["zeros", "--rho", "2", "--n", "3", "--lambda", "0",
                      "--window", "1,-1,-1,1"], capsys)
    assert code == 2
    # tol below the locators' domain, at lam = 0 (poly_zeros) as elsewhere
    for lam in ("0", "0.5"):
        code, _, err = run(["zeros", "--rho", "2", "--n", "10", "--lambda", lam,
                            "--window", "-1,1,-1,1", "--tol", "1e-14"], capsys)
        assert code == 2
        assert "tol must be >= 1e-12" in err


def test_exit_code_numeric_failure(capsys, monkeypatch):
    # r_max below the outer lobe's minimum radius
    code, _, err = run(["curve", "--which", "sh", "--rho", "2",
                        "--h", "0.2", "--r-max", "1.0"], capsys)
    assert code == 2
    assert err
    # a numeric (bracketing) failure maps to exit code 3
    import mlsections.cli as climod
    from mlsections.curves import BracketError

    def boom(*a, **k):
        raise BracketError("no bracket")

    monkeypatch.setattr(climod, "szego_curve", boom)
    code, _, err = run(["curve", "--which", "szego"], capsys)
    assert code == 3
    assert "numeric failure" in err


def test_exit_code_verify_failure(tmp_path, capsys, monkeypatch):
    # shrink the radius list so the monotone-decrease check has one pair
    # that genuinely fails: repeated radii give equal distances
    code, out, _ = run(["verify", "lemma1", "--rho", "2",
                        "--r", "10,10"], capsys)
    assert code == 1
    assert json.loads(out)["pass"] is False
