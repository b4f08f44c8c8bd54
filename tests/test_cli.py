"""CLI surface: subcommands, exit codes, determinism, round-trips."""

import hashlib
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from exactwkb.cli import build_parser, main
from exactwkb.series import PuiseuxSeries

V_JSON = '[["1",["1","0"]],["2",["1/2","0"]]]'


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_airy_subcommand(capsys):
    code, out = run_cli(["airy", "--z", "1", "0", "--eps", "0.05", "0",
                         "--orders", "24"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["rel_error_borel_vs_contour"] < 1e-8
    assert abs(d["value"][0] - d["oracle"][0]) < 1e-12


def test_reduce_subcommand_exact(capsys):
    code, out = run_cli(["reduce", "--V", V_JSON, "--orders", "6"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["F0"] == "-9/140"
    assert d["master_residual_max_coeff"] == "0"


def test_reduce_subcommand_float_mode(capsys):
    code, out = run_cli(["reduce", "--V", '[["1",[1,0]],["2",[0.5,0]]]',
                         "--orders", "6"], capsys)
    assert code == 0
    d = json.loads(out)
    assert abs(d["F0"][0] + 9 / 140) < 1e-12


def test_transport_subcommand_float_mode(capsys):
    # a complex residual of the consistency check prints as its modulus
    code, out = run_cli(["transport", "--F", '[["0",[0.3,0.1]],["1",[-0.2,0]]]',
                         "--orders", "3"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["consistency"]["orders"] == 3
    assert isinstance(d["consistency"]["expansion_residual"], float)
    assert 0 <= d["consistency"]["expansion_residual"] < 1e-12


def test_determinism_identical_bytes(capsys):
    args = ["airy", "--z", "1", "0", "--eps", "0.1", "0", "--orders", "16"]
    _, out1 = run_cli(args, capsys)
    _, out2 = run_cli(args, capsys)
    assert out1 == out2


# SHA-256 of the stdout of exact README commands; any change to the exact
# pipelines that moves a value, a truncation or the layout shows here
PINNED_STDOUT = {
    "transport": (["transport", "--F", '[["0",["1/3","0"]],["1",["-2/7","0"]]]', "--orders", "6"],
                  "9d781c617f151031bf5a21aa258cbcd13898dc0124bd5d5a4bce38ddf62002fe"),
    "pde": (["pde", "--F", '[["1",["1","0"]]]', "--h", "[]", "--orders", "12,12"],
            "324cd235915317a0b50fbf602d9e956452aa3f603205c23c53093f3c35012c74"),
    "reduce": (["reduce", "--V", V_JSON, "--orders", "6"],
               "b0753b105cc10ebff76397a3fae273a9bf2d347dc263398744bfe91eabebe3b2"),
    "hardy": (["hardy", "--n", "3"],
              "99e16633772a31aac3d8a582a3e971fc3474ed8b5b1560e2952095a518093ad6"),
    "hardy-n8": (["hardy", "--n", "8"],
                 "c7d40500fe1cf287ea541a93843ad44bbe5f96276e36afc35b2eef02ff3cdd15"),
    # the float bits of the value follow the thimble's closed form and the
    # nodes of its trapezoid sum; the value, -0.01385515321849297i, is
    # c_5 sqrt(z) K_{1/7} to 9e-18 (tests/test_hardy.py)
    "hardy-eval": (["hardy", "--n", "5", "--eval", "0.9", "0.1"],
                   "8e9920b919aee754ce0537f58d11166e544deb37b0a9decba4392de6800589d4"),
}


@pytest.mark.parametrize("args,digest", PINNED_STDOUT.values(),
                         ids=PINNED_STDOUT.keys())
def test_exact_commands_print_pinned_bytes(args, digest, capsys):
    code, out = run_cli(args, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_emitted_series_roundtrip(capsys):
    code, out = run_cli(["transport", "--F", '[["0",["1/3","0"]]]',
                         "--orders", "4"], capsys)
    assert code == 0
    d = json.loads(out)
    for blob in d["g"] + d["p"]:
        s = PuiseuxSeries.from_json_dict(blob)
        assert PuiseuxSeries.from_json_dict(s.to_json_dict()) == s


def test_validation_error_exit_2(capsys):
    code = main(["transport", "--F", "not json", "--orders", "3"])
    assert code == 2


def test_series_object_without_coeffs_exit_2(capsys):
    args = ["--z", "0.9", "0.3", "--eps", "0.08", "0"]
    code = main(["confluent", "--F", '{"0": "1/3", "1": "-2/7"}',
                 "--h", '{"0": "1/5"}', *args])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    # the documented list form and the full object form read the same data
    code, listed = run_cli(["confluent", "--F", '[["0", ["1/3", "0"]], ["1", ["-2/7", "0"]]]',
                            "--h", '[["0", ["1/5", "0"]]]', *args], capsys)
    assert code == 0
    code, full = run_cli(["confluent", "--F",
                          '{"trunc": "inf", "coeffs": [["0", ["1/3", "0"]], ["1", ["-2/7", "0"]]]}',
                          "--h", '{"min_exp": "0", "coeffs": [["0", ["1/5", "0"]]]}', *args],
                         capsys)
    assert code == 0
    assert full == listed


@pytest.mark.parametrize("F, message", [
    ('[["0", ["1/0", "0"]]]', "error: Fraction(1, 0)"),
    ('[["0", 5]]', "error: cannot unpack"),
    ('{"coeffs": 5}', "error: 'int' object is not iterable"),
    ('[["0", [1' + "0" * 400 + ', 0]]]', "error: int too large"),
    ('[["0", [1e400, 0]]]', "error: coefficient (inf+0j) is not finite"),
    ('[["1/4", ["1", "0"]]]', "error: exponent 1/4 not on the 1/6 lattice"),
    ('[["1/3", ["1", "0"]]]', "error: F must be holomorphic at 0 (a Taylor series)"),
])
def test_malformed_or_inadmissible_series_exit_2(F, message, capsys):
    code = main(["transport", "--F", F, "--orders", "3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(message) and "Traceback" not in err


@pytest.mark.parametrize("V", ['[["1",["1","0"]],["5/2",["1","0"]]]',
                               '[["1/2",["1","0"]]]'])
def test_stokes_non_taylor_potential_exit_2(V, capsys):
    code = main(["stokes", "--V", V, "--extent", "1.0"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: V must be holomorphic at 0 (a Taylor series)\n"


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [c for c in re.sub(r"\\\n\s*", "", block).splitlines()
                if c.startswith("exactwkb ")]
    assert len(commands) >= 10
    parser = build_parser()
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        parser.parse_args(argv)


def test_precision_floor():
    with pytest.raises(SystemExit):
        main(["--precision", "8", "airy", "--z", "1", "0",
              "--eps", "0.1", "0"])


def test_stokes_csv_and_convention(tmp_path, capsys):
    csv = tmp_path / "lines.csv"
    code, out = run_cli(["stokes", "--V", V_JSON, "--alpha", "0.0",
                         "--extent", "0.6", "--plot-data", str(csv)], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["max_node_residual"] < 1e-10
    assert "S1" in d["sector_convention"]
    lines = csv.read_text().splitlines()
    assert lines[0] == "q_re,q_im,branch_id"
    assert len(lines) > 10


def test_verify_subcommand(capsys):
    code, out = run_cli(["verify", "--suite", "identities"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["passed"] is True


def test_hardy_subcommand(capsys):
    code, out = run_cli(["hardy", "--n", "2", "--eval", "1.0", "0.1"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["ode_residual"] < 1e-6
    assert ["2", "0", "1/2"] in d["S"] or [2, 0, "1/2"] in d["S"]


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "exactwkb.cli", "borel",
                           "--z", "1", "0", "--eps", "0.1", "0",
                           "--orders", "12"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    d = json.loads(proc.stdout)
    assert d["est_error"] < 1e-8


def test_pde_subcommand_comma_orders(capsys):
    code, out = run_cli(["pde", "--F", '[["1",["1","0"]]]', "--h", "[]",
                         "--orders", "8,8"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["residual_max_coeff"] == "0"
    assert d["Nx"] == 8 and d["Nz"] == 8


def test_confluent_turning_point_exit_3(capsys):
    code, out = run_cli(["confluent", "--F", "[]", "--h", "[]",
                         "--z", "0", "0", "--eps", "0.05", "0.02"], capsys)
    assert code == 3
    assert out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    ["borel", "--z", "0", "0", "--eps", "0.1", "0", "--orders", "1"],
    ["borel", "--z", "0", "0", "--eps", "0.1", "0", "--orders", "24"],
    ["airy", "--z", "0", "0", "--eps", "0.1", "0", "--orders", "16"],
    ["jump", "--z", "0", "0", "--eps", "0.1", "0", "--orders", "24"]],
    ids=["borel-N1", "borel", "airy", "jump"])
def test_airy_turning_point_exit_3(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "z = 0 is the turning point" in err


def test_contour_overflow_exit_3(capsys):
    code, out = run_cli(["confluent", "--F", "[]", "--h", "[]",
                         "--z", "-3.22", "3.83", "--eps", "0.01", "0"], capsys)
    assert code == 3
    assert out == ""


def test_borel_ray_outside_the_half_plane_of_eps_exit_3(capsys):
    code = main(["borel", "--z", "1", "0.5", "--eps", "0.1", "0", "--theta", "1.6"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "outside the half-plane of eps" in err


def test_reduce_negative_orders_exit_2(capsys):
    code = main(["reduce", "--V", '[["1",["1","0"]]]', "--orders", "-1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: N must be >= 0\n"


Z_EPS0 = ["--z", "1", "0", "--eps", "0", "0"]


@pytest.mark.parametrize("args, message", [
    (["airy", *Z_EPS0], "eps must be nonzero and finite"),
    (["borel", *Z_EPS0], "eps must be nonzero and finite"),
    (["jump", *Z_EPS0], "eps must be nonzero and finite"),
    (["confluent", "--F", "[]", "--h", "[]", *Z_EPS0], "eps must be nonzero and finite"),
    (["airy", "--z", "1", "0", "--eps", "nan", "0"], "eps must be nonzero and finite"),
    (["airy", "--z", "inf", "0", "--eps", "0.1", "0"], "z must be finite"),
    (["hardy", "--n", "2", "--eval", "1", "0"], "eps must be nonzero and finite"),
    (["hardy", "--n", "2", "--eval", "nan", "0.1"], "z must be finite"),
    (["stokes", "--V", V_JSON, "--step", "0"], "--step must be positive and finite"),
    (["stokes", "--V", V_JSON, "--step", "-0.01"], "--step must be positive and finite"),
    (["stokes", "--V", "builtin:canonical", "--extent", "0"],
     "--extent must be positive and finite"),
    (["airy", "--z", "1", "0", "--eps", "0.1", "0", "--orders", "-3"], "N must be >= 0"),
    (["borel", "--z", "1", "0", "--eps", "0.1", "0", "--orders", "-3"], "N must be >= 0"),
    (["jump", "--z", "1", "0", "--eps", "0.1", "0", "--orders", "-3"], "N must be >= 0"),
    (["reduce", "--V", '[["0",["1","0"]],["1",["1","0"]]]'], "V(0) != 0"),
    (["reduce", "--V", '[["1",["2","0"]]]'], "V'(0) != 1"),
    (["stokes", "--V", V_JSON, "--region", "0"], "--region must be positive and finite"),
    (["stokes", "--V", V_JSON, "--region", "-1"], "--region must be positive and finite"),
    (["stokes", "--V", V_JSON, "--region", "nan"], "--region must be positive and finite"),
    (["stokes", "--V", V_JSON, "--alpha", "nan"], "--alpha must be finite"),
    (["stokes", "--V", "builtin:canonical", "--alpha", "inf"], "--alpha must be finite"),
    (["borel", "--z", "1", "0", "--eps", "0.1", "0", "--theta", "nan"],
     "--theta must be finite"),
    (["borel", "--z", "1", "0", "--eps", "0.1", "0", "--theta", "inf"],
     "--theta must be finite"),
])
def test_out_of_range_numbers_exit_2(args, message, capsys):
    # each of these once crashed with a bare exception, printed a
    # meaningless result with exit 0 or, for an inadmissible V, exited 3
    code = main(args)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("args", [
    ["pde", "--F", "[]", "--h", "[]", "--orders=0,0"],
    ["pde", "--F", "[]", "--h", "[]", "--orders=-1,3"],
    ["confluent", "--F", "[]", "--h", "[]", "--z", "1", "0", "--eps", "0.1", "0",
     "--nx", "0"],
    ["confluent", "--F", "[]", "--h", "[]", "--z", "1", "0", "--eps", "0.1", "0",
     "--nz", "-2"],
], ids=["pde_nx0", "pde_nx_negative", "confluent_nx0", "confluent_nz_negative"])
def test_kernel_orders_out_of_range_exit_2(args, capsys):
    # Nx = 0 once ended in a bare AssertionError, and Nz = -2 gave a value
    code = main(args)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: pde orders need Nx >= 1 and Nz >= 0")


@pytest.mark.parametrize("args", [
    ["transport", "--F", '[["0",[1e308,0]],["1",[1e308,0]]]', "--orders", "6"],
    ["reduce", "--V", '[["1",[1,0]],["2",[1e308,0]]]', "--orders", "4"],
], ids=["transport", "reduce"])
def test_non_finite_output_exit_3(args, capsys):
    # an overflow is a numeric failure, not JSON with bare NaN tokens
    code = main(args)
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("numeric failure: ")


@pytest.mark.parametrize("cmd", ["borel", "jump"])
def test_prefactor_overflow_exit_3(cmd, capsys):
    # exp(-action/eps) past double range once ended in a bare OverflowError
    code = main([cmd, "--z", "-29.172957055337232", "-12.73952454848831",
                 "--eps", "5.9813724622421845e-05", "9.57467412062531e-05"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("numeric failure: prefactor exp(")


def test_import_leaves_scipy_out():
    code = "import sys, exactwkb; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("extra, degrees", [
    (["--orders", "24"], [11, 11]),     # 23 coefficients: (12, 12) clamps
    (["--orders", "25"], [11, 12]),
    (["--pade", "5", "5"], [5, 5]),
    (["--orders", "1"], [0, 0]),        # no coefficient: the minor is 0/1
])
def test_borel_meta_pade_is_the_solved_degrees(extra, degrees, capsys):
    code, out = run_cli(["borel", "--z", "1", "0", "--eps", "0.1", "0", *extra],
                        capsys)
    assert code == 0
    assert json.loads(out)["meta"]["pade"] == degrees


def test_tp_precision_env(monkeypatch, capsys):
    monkeypatch.setenv("TP_PRECISION", "20")
    code, out = run_cli(["borel", "--z", "1", "0", "--eps", "0.1", "0",
                         "--orders", "12"], capsys)
    assert code == 0
    assert json.loads(out)["meta"]["precision"] == 20


def test_jump_subcommand(capsys):
    code, out = run_cli(["jump", "--z", "-0.4", "0.6928", "--eps", "0.05", "0",
                         "--orders", "40"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["rel_error"] < 1e-6
    assert d["meta"]["mirror"] is False


def test_stokes_builtin_canonical(capsys):
    code, out = run_cli(["stokes", "--V", "builtin:canonical", "--extent", "1.5"],
                        capsys)
    assert code == 0
    d = json.loads(out)
    assert d["n_lines"] == 3 and d["max_node_residual"] == 0.0
    assert all(abs(abs(complex(*q)) - 1.5) < 1e-12 for q in d["line_endpoints"])


def test_out_writes_the_stdout_bytes_to_a_file(tmp_path, capsys):
    args = ["borel", "--z", "1", "0", "--eps", "0.1", "0", "--orders", "12"]
    _, printed = run_cli(args, capsys)
    path = tmp_path / "out.json"
    code, out = run_cli(["--out", str(path), *args], capsys)
    assert code == 0 and out == ""
    assert path.read_text() == printed


def test_series_from_a_file_path(tmp_path, capsys):
    path = tmp_path / "V.json"
    path.write_text(V_JSON)
    _, inline = run_cli(["reduce", "--V", V_JSON, "--orders", "4"], capsys)
    code, out = run_cli(["reduce", "--V", str(path), "--orders", "4"], capsys)
    assert code == 0 and out == inline


def test_confluent_explicit_contour_file(tmp_path, capsys):
    # a polyline from the valley at arg zhat = -pi/3 through 0 to the one
    # at +pi/3 carries the same integral as the default thimbles
    path = tmp_path / "path.json"
    path.write_text("[[1.5, -2.598], [0, 0], [1.5, 2.598]]")
    args = ["confluent", "--F", "[]", "--h", "[]", "--z", "1", "0",
            "--eps", "0.1", "0"]
    _, default = run_cli(args, capsys)
    code, out = run_cli([*args, "--contour", str(path)], capsys)
    assert code == 0
    got, want = json.loads(out), json.loads(default)
    assert got["nodes_used"] != want["nodes_used"]
    assert abs(complex(*got["value"]) - complex(*want["value"])) \
        <= 1e-10 * abs(complex(*want["value"]))


def test_reduce_prints_null_f0_when_f_is_not_known_at_z0(capsys):
    # V = q + O(q^2) leaves F known only below z^-1; F0 once printed "0"
    code, out = run_cli(["reduce", "--V", '{"coeffs": [["1", ["1", "0"]]], "trunc": "2"}',
                         "--orders", "2"], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["F0"] is None and d["F"]["trunc"] == "-1"


@pytest.mark.parametrize("V, trunc", [('{"coeffs": [["1", ["1", "0"]]], "trunc": "1"}', "1"),
                                      ('{"coeffs": [], "trunc": "0"}', "0")],
                         ids=["slope_cut", "value_cut"])
def test_reduce_v_truncated_before_its_linear_term_exit_2(V, trunc, capsys):
    code = main(["reduce", "--V", V, "--orders", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: V(0) or V'(0) lies past V's truncation O(q^{trunc})\n"


def test_transport_on_a_truncated_f_reports_the_orders_it_knows(capsys):
    F = '{"coeffs": [["0", ["1/3", "0"]], ["1", ["-2/7", "0"]]], "trunc": "1"}'
    code, out = run_cli(["transport", "--F", F, "--orders", "5"], capsys)
    assert code == 0
    assert json.loads(out)["consistency"] == {
        "orders": 1, "odd_even_residual": "0", "expansion_residual": "0"}
