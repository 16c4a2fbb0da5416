"""CLI contract: JSON output, exit codes, determinism."""

import hashlib
from itertools import product
import json
import math
import os
from pathlib import Path
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import affkit.cli
import affkit.surface
from affkit import paperchecks
from affkit.cli import MAX_GRID, main
from affkit.surface import (sphere, surface_from_json, surface_to_json, type_a,
                            type_b)
from affkit.symexpr import MAX_EXPONENT

from conftest import EARLY_STOPS, LATE_CONSTRAINTS, SPARSE_PATTERNS

# Stdout of `classify` and `killing --basis` recorded before the exact core
# skipped zeros and real-only work; exact answers must not change by a byte.
# The type_a_*_m2 surfaces have dimension 4: their Type B search runs the
# whole candidate stream (272 candidates, which ends by itself; only
# dimension 6 is cut at WITNESS_BUDGET) without a witness, and the real ones
# list 446 skipped eigenvalues each, so their bytes also pin the
# np.roots-driven diagnostics; the last one has a Gaussian (non-real) symbol.
GOLDEN = Path(__file__).parent / "data" / "cli"
GOLDEN_SURFACES = {
    "sphere": sphere,
    "flat": lambda: type_a({}),
    "type_a_112_221": lambda: type_a({"112": 1, "221": 1}),
    "type_b_221": lambda: type_b({"221": 1}),
    "type_a_111_221_m2": lambda: type_a({"111": 1, "221": -2}),
    "type_a_112_222_m2": lambda: type_a({"112": 1, "222": -2}),
    "type_a_111_221_2": lambda: type_a({"111": 1, "221": 2}),
    "type_a_112_222_2": lambda: type_a({"112": 1, "222": 2}),
    "type_a_112i_222_m2": lambda: surface_from_json({"gamma": {"112": "i", "222": "-2"}}),
}
# `tensors` with every flag, recorded before R was built once per call; the
# trig/exp surface adds tan poles, Gaussian and real exponentials.
TENSOR_SURFACES = {
    **GOLDEN_SURFACES,
    "trig_exp": lambda: surface_from_json({
        "gamma": {"112": "2*tan(x1)", "121": "-1/2*exp(1*i*x2)",
                  "221": "sin(x1)*cos(x1)", "222": "x1*exp(-1*x2)"},
        "domain": "|x1| < pi/2"}),
}
TENSOR_FLAGS = ("--ricci", "--torsion", "--curvature", "--nabla-ricci", "--flat")


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return {
        "sphere": write("sphere.json", surface_to_json(sphere())),
        "flat": write("flat.json", {"gamma": {}, "basepoint": ["0", "0"]}),
        "type_b": write("type_b.json", surface_to_json(type_b({"111": -1}))),
        "d1": write("d1.json", {"a1": "1", "a2": "0"}),
        "d2": write("d2.json", {"a1": "0", "a2": "1"}),
        "radial": write("radial.json", {"a1": "-x1", "a2": "-x2"}),
        "bad_field": write("bad.json", {"a1": "x1", "a2": "0"}),
        "broken": write("broken.json", {"gamma": {"111": "1/x1"},
                                        "basepoint": ["0", "0"]}),
        "not_json": str((tmp_path / "nope.json")),
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


def test_tensors_ricci_sphere(files, capsys):
    code, payload, _ = run(capsys, "tensors", files["sphere"], "--ricci")
    assert code == 0
    assert payload["rho"] == [["1", "0"], ["0", "cos(x1)^2"]]


def test_tensors_flat_flag(files, capsys):
    code, payload, _ = run(capsys, "tensors", files["flat"], "--flat")
    assert code == 0
    assert payload == {"flat": True}


def test_tensors_torsion_of_twisted_type_b(tmp_path, capsys):
    path = tmp_path / "tw.json"
    path.write_text(json.dumps(surface_to_json(type_b({"122": 1, "212": 2}))))
    code, payload, _ = run(capsys, "tensors", str(path), "--torsion")
    assert code == 0
    assert payload["torsion"]["122"] == "-x1^-1"


def test_killing_dim(files, capsys):
    code, payload, _ = run(capsys, "killing", files["sphere"], "--dim")
    assert code == 0 and payload == {"dim": 3}
    code, payload, _ = run(capsys, "killing", files["flat"], "--dim")
    assert code == 0 and payload == {"dim": 6}


def test_killing_basis(files, capsys):
    code, payload, _ = run(capsys, "killing", files["flat"], "--basis")
    assert code == 0
    assert payload["dim"] == 6
    assert len(payload["basis"]) == 6
    assert payload["basis"][0] == ["1", "0", "0", "0", "0", "0"]


def test_killing_check_passes_and_fails(files, capsys):
    code, payload, _ = run(capsys, "killing", files["sphere"], "--check", files["d2"])
    assert code == 0 and payload["killing"] is True
    code, payload, _ = run(capsys, "killing", files["sphere"], "--check",
                           files["bad_field"])
    assert code == 1 and payload["killing"] is False


def test_killing_check_probes_inside_the_domain(tmp_path, capsys):
    # Near the right end of a domain the probe steps at most half the way
    # to it in x1, so it never evaluates a symbol on or past the edge.
    field = tmp_path / "d1.json"
    field.write_text(json.dumps({"a1": "1"}))
    surface = tmp_path / "pole.json"
    surface.write_text(json.dumps({"gamma": {"111": "x1^-1"}, "domain": "x1 < 0",
                                   "basepoint": ["-1/20", "0"]}))
    code, payload, err = run(capsys, "killing", str(surface), "--check", str(field))
    assert code == 1 and payload["killing"] is False, err
    # The only residual is X(G_11^1) = 2 x1, here probed at x1 = 0.01.
    surface.write_text(json.dumps({"gamma": {"111": "x1^2"}, "domain": "x1 < 1/50",
                                   "basepoint": ["0", "0"]}))
    code, payload, _ = run(capsys, "killing", str(surface), "--check", str(field))
    assert code == 1
    assert payload["max_residual_at_probe"] == pytest.approx(0.02)


def test_classify_outputs(files, capsys):
    code, payload, _ = run(capsys, "classify", files["sphere"])
    assert code == 0
    assert [b["kind"] for b in payload["branches"]] == ["so3"]
    code, payload, _ = run(capsys, "classify", files["flat"])
    assert code == 0
    assert "TypeA" in [b["kind"] for b in payload["branches"]]
    code, payload, _ = run(capsys, "classify", files["type_b"])
    assert code == 0
    assert "TypeB" in [b["kind"] for b in payload["branches"]]


def test_classify_rigid_surface_exits_one(tmp_path, capsys):
    path = tmp_path / "rigid.json"
    path.write_text(json.dumps({
        "gamma": {"111": "x1", "122": "x2", "222": "x1*x2"},
        "basepoint": ["0", "0"]}))
    code, payload, _ = run(capsys, "classify", str(path))
    assert code == 1
    assert payload["error"] == "NotHomogeneousCandidate"


def test_chart_normalize(files, capsys):
    code, payload, _ = run(capsys, "chart", files["sphere"],
                           "--mode", "normalize", "--field", files["d2"])
    assert code == 0
    assert payload["pass"] is True
    assert payload["max_deviations"]["gamma_111_max"] < 1e-6
    # The same chart against a tolerance no float meets fails verification.
    code, payload, _ = run(capsys, "chart", files["sphere"], "--mode", "normalize",
                           "--field", files["d2"], "--tol", "1e-300")
    assert code == 1
    assert payload["mode"] == "normalize" and payload["pass"] is False
    assert payload["report"]["pass"] is False and payload["report"]["tol"] == 1e-300
    assert payload["report"]["gamma_111_max"] > 1e-300


def test_chart_commuting_flat(files, capsys):
    code, payload, _ = run(capsys, "chart", files["flat"], "--mode", "commuting",
                           "--field", files["d1"], "--field", files["d2"])
    assert code == 0
    assert payload["max_deviations"]["gamma_spread"] < 1e-8


def test_chart_type_b_roundtrip(files, capsys):
    code, payload, _ = run(capsys, "chart", files["type_b"], "--mode", "type-b",
                           "--field", files["radial"], "--field", files["d2"])
    assert code == 0
    assert payload["pass"] is True
    assert abs(payload["constants"]["111"] + 1.0) < 1e-3


def test_chart_type_b_past_x1_zero_exits_two(files, capsys):
    code, payload, err = run(capsys, "chart", files["type_b"], "--mode", "type-b",
                             "--field", files["radial"], "--field", files["d2"],
                             "--half-width", "1")
    assert code == 2 and payload is None
    assert "x1 must stay positive" in err


def test_chart_precondition_failure_exits_two(files, capsys):
    code, _, err = run(capsys, "chart", files["sphere"], "--mode", "normalize",
                       "--field", files["bad_field"])
    assert code == 2
    assert "input error" in err


def test_chart_on_non_real_symbols_exits_two(files, tmp_path, capsys):
    path = tmp_path / "gaussian.json"
    path.write_text(json.dumps({"gamma": {"111": "i", "221": "1"}, "basepoint": ["0", "0"]}),
                    encoding="utf-8")
    code, payload, err = run(capsys, "chart", str(path), "--mode", "normalize",
                             "--field", files["d1"])
    assert code == 2 and payload is None
    assert "connection symbols are not real" in err


def test_chart_on_a_non_real_field_exits_two(files, tmp_path, capsys):
    path = tmp_path / "gaussian_field.json"
    path.write_text(json.dumps({"a1": "i", "a2": "1"}), encoding="utf-8")
    code, payload, err = run(capsys, "chart", files["flat"], "--mode", "normalize",
                             "--field", str(path))
    assert code == 2 and payload is None
    assert "field (i, 1) is not real" in err


def test_chart_invalid_config_exits_two(files, capsys):
    code, _, err = run(capsys, "chart", files["sphere"], "--mode", "normalize",
                       "--field", files["d2"], "--grid", "2")
    assert code == 2
    code, _, err = run(capsys, "chart", files["sphere"], "--mode", "normalize",
                       "--field", files["d2"], "--tol", "-1")
    assert code == 2


@pytest.mark.parametrize("option, value", [
    ("--tol", "nan"), ("--step", "inf"), ("--step", "nan"),
    ("--half-width", "inf"), ("--half-width", "nan"),
])
def test_chart_non_finite_config_exits_two(option, value, files, capsys):
    code, payload, err = run(capsys, "chart", files["flat"], "--mode", "commuting",
                             "--field", files["d1"], "--field", files["d2"], option, value)
    assert code == 2 and payload is None
    assert "invalid run configuration" in err


@pytest.mark.parametrize("option, value, message", [
    ("--step", "1e-300", "MAX_RK4_STEPS"), ("--half-width", "1e300", "MAX_RK4_STEPS"),
    ("--step", "1e-7", "MAX_RK4_STEPS"), ("--grid", str(MAX_GRID + 1), f"grid <= {MAX_GRID}"),
])
def test_chart_past_a_work_bound_exits_two_at_once(option, value, message, files, capsys):
    # Unbounded, --step 1e-300 or --half-width 1e300 asked for ~1e300 RK4 steps.
    start = time.perf_counter()
    code, payload, err = run(capsys, "chart", files["flat"], "--mode", "normalize",
                             "--field", files["d2"], option, value)
    assert code == 2 and payload is None
    assert "input error" in err or "invalid run configuration" in err
    assert message in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("mode, fields", [
    ("normalize", ["d1", "d2"]), ("commuting", ["d1"]), ("type-b", []),
])
def test_chart_wrong_field_count_exits_two(mode, fields, files, capsys):
    argv = [arg for name in fields for arg in ("--field", files[name])]
    code, payload, err = run(capsys, "chart", files["flat"], "--mode", mode, *argv)
    assert code == 2 and payload is None
    assert f"{mode} mode takes" in err


def test_input_errors_exit_two(files, tmp_path, capsys):
    code, _, err = run(capsys, "tensors", files["not_json"], "--ricci")
    assert code == 2
    code, _, err = run(capsys, "tensors", files["broken"], "--ricci")
    assert code == 2
    assert "Gamma_111" in err
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{gamma: 111", encoding="utf-8")
    code, payload, err = run(capsys, "tensors", str(garbage), "--ricci")
    assert code == 2 and payload is None
    assert "not valid JSON" in err
    code, payload, err = run(capsys, "tensors", files["sphere"])
    assert code == 2 and payload is None
    assert "no tensor requested" in err


@pytest.mark.parametrize("kind, content, named", [
    ("surface", {"gamma": {}, "basepoint": ["0"]}, '"basepoint"'),
    ("surface", {"gamma": {}, "basepoint": [0.5, 0]}, '"basepoint"'),
    ("surface", {"gamma": ["111"]}, '"gamma"'),
    ("surface", {"gamma": {"111": 5}}, "'111'"),
    ("surface", ["x"], "JSON object"),
    ("surface", {"gamma": {}, "domain": 5}, '"domain"'),
    ("surface", {"gamma": {}, "domian": "x1 > 0"}, "'domian'"),
    ("field", {"a1": 1}, '"a1"'),
    ("field", ["x"], "JSON object"),
    ("field", {"a1": "0", "A2": "1"}, "'A2'"),
], ids=["short-basepoint", "float-basepoint", "gamma-list", "gamma-number", "surface-list",
        "domain-number", "misspelled-domain", "field-number", "field-list", "misspelled-a2"])
def test_malformed_input_files_exit_two(kind, content, named, files, tmp_path, capsys):
    # Exit 1 means a verification failure; a file of the wrong shape is an
    # input error whose message names the key.  A misspelled key is one too:
    # {"a1": "0", "A2": "1"} used to be read as the zero field, a Killing field.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    if kind == "surface":
        runs = [("tensors", str(path), "--flat"), ("killing", str(path), "--dim")]
    else:
        runs = [("killing", files["flat"], "--check", str(path))]
    for argv in runs:
        code, payload, err = run(capsys, *argv)
        assert code == 2 and payload is None
        assert "input error" in err and named in err


@pytest.mark.parametrize("symbol, bound", [
    (f"x1^{MAX_EXPONENT + 1}", "MAX_EXPONENT"),
    ("sin(x1)^20000", "MAX_EXPONENT"),
    ("(1+x1+x2)^80", "MAX_PRODUCT_PAIRS"),
    pytest.param("*".join(["x1^10000"] * 400), "MAX_EXPONENT", id="x1^10000-chain"),
    pytest.param("1" * 5000, "integer literal", id="5000-digit-literal"),
    pytest.param("(" * 300 + "x1" + ")" * 300, "MAX_NESTING", id="300-parentheses"),
    pytest.param("-" * 3000 + "x1", "MAX_NESTING", id="3000-minuses"),
])
def test_oversized_symbols_exit_two_naming_the_bound(symbol, bound, tmp_path, capsys):
    # Unbounded, sin(x1)^20000 stalled `tensors` for minutes and
    # (1+x1+x2)^80 took seconds; x1^10001 at x1 = 1/2 is cheap either way.
    # A chain of 400 factors x1^10000 built x1^4000000 term by term; the
    # 5000-digit literal raised Python's ValueError past the parser, and
    # deep nesting a RecursionError (exit 1).
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"gamma": {"111": symbol}, "basepoint": ["1/2", "0"]}))
    start = time.perf_counter()
    code, payload, err = run(capsys, "tensors", str(path), "--ricci")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and payload is None
    assert "input error" in err and bound in err


def test_classify_skips_type_b_proposals_that_overflow_a_float(tmp_path, capsys):
    # 9^400 makes the characteristic coefficients too large for np.roots'
    # float input; those candidates propose no eigenvalue (they raised an
    # OverflowError, exit 1), and the exact searches still find both pairs.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"gamma": {"111": "9^400"}}))
    code, payload, _ = run(capsys, "classify", str(path))
    assert code == 0 and payload["dim"] == 6
    assert [b["kind"] for b in payload["branches"]] == ["TypeA", "TypeB"]
    assert payload["diagnostics"][0] == (
        "skipped candidate [1, 0, 0, 0, 0, 0]: its charpoly overflows a float")
    assert len(payload["diagnostics"]) == 31
    assert all(d.endswith("overflows a float") for d in payload["diagnostics"])


def test_classify_on_a_symbol_past_the_print_limit_is_an_input_error(tmp_path, capsys):
    # 9^5000 has 4 772 digits, past Python's integer print limit.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"gamma": {"111": "9^5000"}}))
    code, _, err = run(capsys, "classify", str(path))
    assert code not in (0, 1) and "Traceback" not in err
    assert "input error" in err


@pytest.mark.parametrize("gamma, argv", [
    ({"111": "9^5000"}, ("classify",)),
    ({"111": "9^3000*x1", "221": "9^3000*x1"}, ("tensors", "--ricci")),
], ids=["classify", "tensors-ricci"])
def test_a_result_past_the_print_limit_names_the_environment_variable(gamma, argv, tmp_path,
                                                                      capsys):
    # Python's own advice, sys.set_int_max_str_digits(), is out of a CLI
    # user's reach; the variable that raises the limit is not.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"gamma": gamma}))
    code, payload, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2 and payload is None and "Traceback" not in err
    assert "longer than Python prints (4300 digits by default)" in err
    assert "PYTHONINTMAXSTRDIGITS" in err and "set_int_max_str_digits" not in err


def test_lifting_the_print_limit_prints_the_result(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"gamma": {"111": "9^5000"}}))
    src = str(Path(affkit.cli.__file__).parents[1])
    path_var = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "0", "PYTHONPATH": path_var}
    proc = subprocess.run([sys.executable, "-m", "affkit.cli", "classify", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dim"] == 6


@pytest.mark.parametrize("gamma, field", [({}, {"a1": "1/x1"}), ({"111": "1/x1"}, {"a1": "1"})],
                         ids=["pole-in-field", "pole-in-symbol"])
def test_killing_check_probes_off_a_pole(gamma, field, tmp_path, capsys):
    # From x1 = -1/20 the probe's step of 0.05 lands on the pole x1 = 0,
    # which turned an exact verdict into an input error.
    surface, field_path = tmp_path / "s.json", tmp_path / "f.json"
    surface.write_text(json.dumps({"gamma": gamma, "basepoint": ["-1/20", "0"]}))
    field_path.write_text(json.dumps(field))
    code, payload, err = run(capsys, "killing", str(surface), "--check", str(field_path))
    assert code == 1 and payload["killing"] is False, err
    assert math.isfinite(payload["max_residual_at_probe"])


DEEP = 100_000


@pytest.mark.parametrize("argv", [
    ("tensors", "{deep}", "--ricci"), ("killing", "{deep}", "--dim"), ("classify", "{deep}"),
    ("killing", "{flat}", "--check", "{deep_field}"),
], ids=["tensors", "killing", "classify", "killing-check"])
def test_deeply_nested_json_exits_two(argv, files, tmp_path, capsys):
    # json's decoder raised RecursionError here (exit 1).
    nested = "[" * DEEP + "]" * DEEP
    paths = {"flat": files["flat"]}
    for name, text in (("deep", f'{{"gamma": {{"111": {nested}}}}}'),
                       ("deep_field", f'{{"a1": {nested}}}')):
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
        paths[name] = str(tmp_path / f"{name}.json")
    code, payload, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2 and payload is None
    assert "input error" in err and "nested too deeply" in err


@pytest.mark.parametrize("gamma, dim", LATE_CONSTRAINTS)
def test_killing_dim_of_flat_surfaces_with_late_constraints(gamma, dim, tmp_path, capsys):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"gamma": gamma, "basepoint": ["0", "0"]}), encoding="utf-8")
    code, payload, _ = run(capsys, "killing", str(path), "--dim")
    assert code == 0
    assert payload == {"dim": dim}


@pytest.mark.xfail(strict=True, reason="two stagnant rounds below 6 are taken as the answer")
@pytest.mark.parametrize("gamma, dim", EARLY_STOPS)
def test_killing_dim_stops_early(gamma, dim, tmp_path, capsys):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"gamma": gamma, "basepoint": ["0", "0"]}), encoding="utf-8")
    code, payload, _ = run(capsys, "killing", str(path), "--dim")
    assert code == 0
    assert payload == {"dim": dim}


def test_verify_paper_pristine(files, capsys):
    code, payload, _ = run(capsys, "verify-paper", "--sweep", "5")
    assert code == 0
    assert payload["pass"] is True
    names = [item["name"] for item in payload["items"]]
    assert "sphere-ricci" in names and "symbol-kernel-rank" in names


@pytest.mark.parametrize("control", ["ricci-sign", "drop-kernel-row",
                                     "corrupt-structure"])
def test_verify_paper_negative_controls(control, capsys):
    code, payload, _ = run(capsys, "verify-paper", "--sweep", "2",
                           "--negative-control", control)
    assert code == 1
    assert payload["pass"] is False


def test_output_is_byte_stable(files, capsys):
    main(["classify", files["sphere"]])
    out1 = capsys.readouterr().out
    main(["classify", files["sphere"]])
    out2 = capsys.readouterr().out
    assert out1 == out2


@pytest.mark.parametrize("name", sorted(GOLDEN_SURFACES))
@pytest.mark.parametrize("command", ["classify", "killing_basis"])
def test_output_matches_recorded_bytes(name, command, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(surface_to_json(GOLDEN_SURFACES[name]())))
    argv = (["classify", str(path)] if command == "classify"
            else ["killing", str(path), "--basis"])
    assert main(argv) == 0
    want = (GOLDEN / f"{name}.{command}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


# `SPARSE_PATTERNS`, each as Type A and as A/x1.  Stdout recorded before the
# Gaussian-integer arithmetic moved into `linalg` and the witness search got
# one candidate stream.
SPARSE_CLASSIFY_SHA256 = "6684f7728014a2e2619f1476ca41a8738cd44df5603ff6d53b71d0b79109f054"


def test_classify_matches_recorded_digest_on_sparse_surfaces(tmp_path, capsys):
    codes, out = [], []
    for n, (build, gamma) in enumerate(product((type_a, type_b), SPARSE_PATTERNS)):
        path = tmp_path / f"{n}.json"
        path.write_text(json.dumps(surface_to_json(build(gamma))))
        codes.append(main(["classify", str(path)]))
        out.append(capsys.readouterr().out)
    assert len(codes) == 184 and codes == [0] * 184
    assert hashlib.sha256("".join(out).encode()).hexdigest() == SPARSE_CLASSIFY_SHA256


# Stdout of `verify-paper`, recorded before ad, spectra and the Killing form
# moved onto the integer tables; the Jacobi item runs through them, and the
# grading item reads its verdict.
VERIFY_PAPER_RUNS = {
    "verify_paper": [],
    **{f"verify_paper.{control}": ["--sweep", "2", "--negative-control", control]
       for control in ("ricci-sign", "drop-kernel-row", "corrupt-structure")},
}


@pytest.mark.parametrize("name", sorted(VERIFY_PAPER_RUNS))
def test_verify_paper_matches_recorded_bytes(name, monkeypatch, capsys):
    monkeypatch.delenv("AFFKIT_SEED", raising=False)
    main(["verify-paper", *VERIFY_PAPER_RUNS[name]])
    want = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name", sorted(TENSOR_SURFACES))
def test_tensors_match_recorded_bytes(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(surface_to_json(TENSOR_SURFACES[name]())))
    assert main(["tensors", str(path), *TENSOR_FLAGS]) == 0
    want = (GOLDEN / f"{name}.tensors.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name", ["sphere", "trig_exp", "type_b_221"])
def test_tensors_flags_combine_as_a_union(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(surface_to_json(TENSOR_SURFACES[name]())))
    union = {}
    for flag in TENSOR_FLAGS:
        code, payload, _ = run(capsys, "tensors", str(path), flag)
        assert code == 0 and len(payload) == 1
        union.update(payload)
    code, payload, _ = run(capsys, "tensors", str(path), *TENSOR_FLAGS)
    assert code == 0 and payload == union


def test_tensors_builds_the_curvature_once(files, monkeypatch, capsys):
    calls = []
    real = affkit.surface.curvature
    counted = lambda s: calls.append(s) or real(s)
    # ricci and nabla_ricci reach R through the surface module's name.
    monkeypatch.setattr(affkit.surface, "curvature", counted)
    monkeypatch.setattr(affkit.cli, "curvature", counted)
    code, payload, _ = run(capsys, "tensors", files["sphere"], *TENSOR_FLAGS)
    assert code == 0 and len(payload) == 5
    assert len(calls) == 1


def test_verify_paper_builds_the_sphere_curvature_once(monkeypatch, capsys):
    calls = []
    real = affkit.surface.curvature
    monkeypatch.setattr(affkit.surface, "curvature",
                        lambda s: calls.append(s) or real(s))
    code, payload, _ = run(capsys, "verify-paper", "--sweep", "1")
    assert code == 0 and payload["pass"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("dim", [5, 1])
def test_verify_paper_dimension_bound_fails_off_the_classification(dim, monkeypatch, capsys):
    # A jet solver that reports a dimension the classification excludes (5),
    # or one below the 2 of the translations d1, d2, turns the bound red.
    monkeypatch.setattr(paperchecks, "killing_jet_space", lambda s: SimpleNamespace(dim=dim))
    code, payload, _ = run(capsys, "verify-paper", "--sweep", "2")
    assert code == 1 and payload["pass"] is False
    assert [item["name"] for item in payload["items"] if not item["pass"]] == ["dimension-bound"]


# The parser is built by the first main call and reused by every later one.

def test_reused_parser_forgets_the_output_path(files, capsys, tmp_path):
    target = tmp_path / "result.json"
    assert main(["--output", str(target), "killing", files["flat"], "--dim"]) == 0
    code, payload, _ = run(capsys, "killing", files["sphere"], "--dim")
    assert code == 0 and payload == {"dim": 3}
    assert json.loads(target.read_text()) == {"dim": 6}


def test_reused_parser_recovers_from_a_usage_error(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tensors", files["sphere"], "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, payload, _ = run(capsys, "tensors", files["sphere"], "--ricci")
    assert code == 0 and payload["rho"] == [["1", "0"], ["0", "cos(x1)^2"]]


def test_reused_parser_runs_the_current_handler(files, monkeypatch, capsys):
    # A wrapper installed on the module after the first call (as a tracer
    # does) must be the handler that runs, not the function seen at build.
    assert run(capsys, "tensors", files["flat"], "--flat")[0] == 0
    seen = []
    monkeypatch.setattr(affkit.cli, "cmd_tensors", lambda args: seen.append(args) or 0)
    code, payload, _ = run(capsys, "tensors", files["flat"], "--flat")
    assert code == 0 and payload is None
    assert len(seen) == 1 and seen[0].flat


def test_reused_parser_gives_each_call_fresh_fields(files, capsys):
    for _ in range(2):
        code, payload, _ = run(capsys, "chart", files["flat"], "--mode", "commuting",
                               "--field", files["d1"], "--field", files["d2"])
        assert code == 0 and payload["pass"] is True


@pytest.mark.parametrize("domain, basepoint", [
    ("x1 >= 0", ["1", "0"]),          # not in the grammar
    ("x2 > 0", ["1", "0"]),           # constrains the wrong coordinate
    ("x1 > 0", ["-1", "0"]),          # basepoint outside the domain
    ("|x1| < pi/2", ["2", "0"]),
])
def test_bad_domain_exits_two(domain, basepoint, tmp_path, capsys):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"gamma": {}, "basepoint": basepoint, "domain": domain}))
    code, payload, err = run(capsys, "killing", str(path), "--dim")
    assert code == 2 and payload is None
    assert "domain" in err


@pytest.mark.parametrize("domain, basepoint", [
    ("", ["1/0", "0"]),
    ("x1 > 1/0", ["1", "0"]),
    ("x1 < pi/0", ["1", "0"]),
])
def test_zero_denominators_exit_two(domain, basepoint, tmp_path, capsys):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"gamma": {}, "basepoint": basepoint, "domain": domain}))
    code, payload, err = run(capsys, "killing", str(path), "--dim")
    assert code == 2 and payload is None
    assert "input error" in err and "zero denominator" in err


def test_a_zero_pi_denominator_is_quoted_as_written(tmp_path, capsys):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"domain": "x1 < pi/0"}))
    code, payload, err = run(capsys, "killing", str(path), "--dim")
    assert code == 2 and payload is None
    assert "zero denominator in 'pi/0'" in err


LONG = "1" * 5000    # past Python's 4 300-digit limit on reading an int


@pytest.mark.parametrize("text, argv, named", [
    (json.dumps({"basepoint": [LONG, "0"]}), ("killing",), "an input number"),
    (json.dumps({"domain": f"x1 > {LONG}"}), ("killing",), "an input number"),
    ('{"basepoint": [%s, 0]}' % LONG, ("killing",), "surface file holds an integer"),
    ('{"a1": %s}' % LONG, ("killing", "{flat}", "--check"), "field file holds an integer"),
], ids=["basepoint-string", "domain-bound", "basepoint-json-int", "field-json-int"])
def test_an_input_number_past_the_digit_limit_is_named(text, argv, named, files, tmp_path,
                                                       capsys):
    # These were blamed on a number "in the result".
    path = tmp_path / "long.json"
    path.write_text(text)
    code, payload, err = run(capsys, *(arg.format(**files) for arg in argv), str(path))
    assert code == 2 and payload is None and "Traceback" not in err
    assert named in err and "PYTHONINTMAXSTRDIGITS" in err
    assert "in the result" not in err and LONG[:100] not in err


def test_verify_paper_negative_sweep_exits_two(capsys):
    code, payload, err = run(capsys, "verify-paper", "--sweep", "-3")
    assert code == 2 and payload is None
    assert "sweep" in err


def test_verify_paper_sweep_past_the_bound_exits_two_at_once(capsys):
    # A sweep of 10^9 surfaces would run for days; it is refused before
    # the first check.
    t0 = time.monotonic()
    code, payload, err = run(capsys, "verify-paper", "--sweep", str(paperchecks.MAX_SWEEP + 1))
    assert code == 2 and payload is None
    assert "sweep" in err and time.monotonic() - t0 < 1.0
    code, payload, err = run(capsys, "verify-paper", "--sweep", "1000000000")
    assert code == 2 and payload is None


HUGE = "1" + "0" * 400     # an exact number beyond the float range (about 1.8e308)


@pytest.mark.parametrize("gamma_file, argv, named", [
    ({"domain": "x1 < " + "1" * 4000}, ("killing", "{s}"), "domain bound"),
    ({"domain": "x1 < " + "1" * 4000}, ("tensors", "{s}", "--ricci"), "domain bound"),
    ({"basepoint": [HUGE, "0"]}, ("killing", "{s}", "--check", "{d2}"), "basepoint"),
    ({"basepoint": [HUGE, "0"]}, ("chart", "{s}", "--mode", "normalize", "--field", "{d2}"),
     "basepoint"),
], ids=["domain-killing", "domain-tensors", "basepoint-check", "basepoint-chart"])
def test_a_number_beyond_the_float_range_exits_two(gamma_file, argv, named, files, tmp_path,
                                                   capsys):
    # These exited 1 with an OverflowError traceback.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(gamma_file))
    code, payload, err = run(capsys, *(arg.format(s=path, **files) for arg in argv))
    assert code == 2 and payload is None and "Traceback" not in err
    assert named in err and "float range" in err


def test_exact_commands_take_a_basepoint_beyond_the_float_range(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"basepoint": [HUGE, "0"]}))
    code, payload, _ = run(capsys, "killing", str(path))
    assert code == 0 and payload == {"dim": 6}


def test_output_file_flag(files, capsys, tmp_path):
    target = tmp_path / "result.json"
    code = main(["--output", str(target), "killing", files["sphere"], "--dim"])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text()) == {"dim": 3}
