import json

import numpy as np
import pytest

from robinopt.cli import main
from tests.conftest import run_fresh


def run(args):
    return main(args)


def test_oracle_command(capsys):
    assert run(["oracle", "interval-robin-p2", "1", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - 1.7070529755509227) < 1e-9
    assert run(["oracle", "interval-robin-p", "2", "1", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["args"] == [2.0, 1.0, 1.0] and abs(out["value"] - 1.7070529755509227) < 1e-13


def test_dirichlet_command(capsys):
    assert run(["dirichlet", "--domain", "builtin:interval:100"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["lambda"] - np.pi**2) / np.pi**2 < 0.01
    assert out["weak_residual_check"]["ok"]


def test_robin_command_with_dirac(capsys):
    assert run(["robin", "--domain", "builtin:interval:100", "--sigma", "dirac:0:1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["lambda"] - 0.740173884394967) < 0.005


def test_minimize_refused_exit_code(capsys):
    code = run(["minimize", "--domain", "builtin:square:0.25", "--p", "2", "--m", "1"])
    assert code == 3
    assert "exactly 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dirichlet", "--domain", "builtin:torus:3"],
    ["dirichlet"],  # no --domain at all
    ["dirichlet", "--domain", "foo:bar"],
])
def test_bad_domain_exit_code(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["dirichlet", "--domain", "builtin:disk"],
    ["dirichlet", "--domain", "builtin:disk:abc"],
    ["robin", "--domain", "builtin:interval:10", "--sigma", "const:"],
    ["robin", "--domain", "builtin:interval:10", "--sigma", "dirac:"],
    ["sweep", "--domain", "builtin:interval:10", "--m-list", "log:1:2"],
    ["sweep", "--domain", "builtin:interval:10", "--m-list", "log:0:1:3"],
    ["sweep", "--domain", "builtin:interval:10", "--m-list", "lin:1:2:0"],
    ["sweep", "--domain", "builtin:interval:10", "--m-list", "2,1"],  # not increasing
    ["robin", "--domain", "builtin:disk:0.5", "--sigma", "dirac:1,0,0:1"],  # a 3D point
    ["robin", "--domain", "builtin:interval:10", "--sigma", "foo:1"],
    # every number on the command line must be finite
    ["concentrate", "--p", "1.5", "--m", "nan", "--j-list", "100,1000"],
    ["concentrate", "--p", "1.5", "--m", "inf", "--j-list", "100,1000"],
    ["concentrate", "--p", "nan", "--j-list", "100"],
    ["mesh", "--domain", "builtin:square:nan"],
    ["mesh", "--domain", "builtin:square:inf"],
    ["robin", "--domain", "builtin:disk:0.25", "--sigma", "dirac:0.5:1"],  # one coordinate in 2D
])
def test_malformed_spec_exit_code(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_flag_below_one_exit_code(workers, capsys):
    argv = ["minimize", "--domain", "builtin:interval:10", "--p", "2", "--m", "1", "--workers", workers]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["minimize", "--domain", "builtin:square:0.25", "--p", "3", "--m", "1"],
])
def test_workers_flag_selects_nothing(tmp_path, argv):
    outs = [tmp_path / f"w{n}" for n in (1, 2)]
    for n, out in zip((1, 2), outs):
        assert run([*argv, "--workers", str(n), "--out", str(out)]) == 0
    files = sorted(f.name for f in outs[0].iterdir())
    assert "report.json" in files and any(f.endswith(".csv") for f in files)
    assert sorted(f.name for f in outs[1].iterdir()) == files
    for name in files:
        assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()


@pytest.mark.parametrize("knob", [
    ["--tol-res", "inf"],
    ["--tol-rq", "nan"],
    ["--eps-reg", "nan"],
    ["--max-outer", "-5"],
])
def test_bad_solver_knob_exit_code(knob, capsys):
    argv = ["robin", "--domain", "builtin:interval:20", "--p", "1.5", "--sigma", "const:1", *knob]
    if knob[0] == "--tol-rq":
        # no such knob: the residual test is the only stopping test, and
        # argparse refuses an unknown flag with its usage exit code
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol-rq" in capsys.readouterr().err
    else:
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error:")


@pytest.fixture
def no_eigensolve(monkeypatch):
    import robinopt.eigensolver as es

    def no_solve(*args, **kwargs):
        raise AssertionError("an eigensolve ran before the masses were checked")

    monkeypatch.setattr(es, "_minimize", no_solve)


@pytest.mark.parametrize("mass", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["maximize", "minimize"])
def test_bad_mass_refused_before_any_solve(command, mass, no_eigensolve, capsys):
    argv = [command, "--domain", "builtin:square:0.25", "--p", "3", "--m", mass]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flag, value", [("--m", "nan"), ("--m", "inf"), ("--p", "nan")])
def test_non_finite_concentrate_flag_refused_before_any_quadrature(flag, value, monkeypatch,
                                                                   capsys):
    import robinopt.minimizer as mn

    def no_run(*args, **kwargs):
        raise AssertionError("the concentration run started before its flags were checked")

    monkeypatch.setattr(mn, "concentration_demo", no_run)
    argv = ["concentrate", "--p", "1.5", "--m", "1", "--j-list", "100", flag, value]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} ")


@pytest.mark.parametrize("m_list", ["lin:0:1:3", "lin:-1:1:3", "1,nan", "1,inf"])
@pytest.mark.parametrize("command", ["bounds", "sweep"])
def test_bad_mass_list_refused_before_any_solve(command, m_list, no_eigensolve, capsys):
    argv = [command, "--domain", "builtin:square:0.25", "--p", "3", "--m-list", m_list]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["robin", "--domain", "builtin:interval:20", "--sigma", "const:1"],
    ["maximize", "--domain", "builtin:interval:20", "--m", "1"],
])
@pytest.mark.parametrize("where", ["file", "under a file"])
def test_out_that_cannot_be_a_directory_is_refused_before_any_solve(argv, where, tmp_path,
                                                                    no_eigensolve, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker if where == "file" else blocker / "run"
    assert run([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(out) in err
    assert blocker.read_text() == "not a directory\n"


def test_bare_command_uses_the_solver_params_defaults():
    from robinopt import SolverParams
    from robinopt.cli import _params, build_parser

    assert _params(build_parser().parse_args(["robin", "--sigma", "const:1"])) == SolverParams(p=2.0)


@pytest.mark.parametrize("command", ["maximize", "bounds", "sweep"])
def test_failed_crosscheck_exit_code(command, monkeypatch):
    # every command that runs sigma_max fails on its Robin cross-check
    import robinopt.maximizer as mx

    monkeypatch.setattr(mx, "_CROSSCHECK_RTOL", 0.0)
    mass = ["--m", "1"] if command == "maximize" else ["--m-list", "1"]
    assert run([command, "--domain", "builtin:interval:20", *mass]) == 5


def test_cli_import_does_not_load_quadrature():
    # no command imports scipy.integrate, innersolve loads scipy's LAPACK
    # extension without the scipy.linalg package (which brings numpy.f2py),
    # and the oracle builds its Gauss rule (numpy.polynomial) on first use
    names = ["scipy.integrate", "scipy.linalg", "numpy.f2py", "numpy.polynomial"]
    out = run_fresh(f"import sys, robinopt.cli; print(*[name in sys.modules for name in {names!r}])")
    assert out.split() == ["False", "False", "False", "False"]


def test_no_command_loads_heavy_imports():
    # in one fresh interpreter, every subcommand in turn: none loads
    # scipy.integrate, scipy.linalg, numpy.f2py, scipy.optimize, scipy.sparse
    # or multiprocessing
    names = ["scipy.integrate", "scipy.linalg", "numpy.f2py", "scipy.optimize",
             "scipy.sparse", "multiprocessing"]
    commands = [
        ["dirichlet", "--domain", "builtin:interval:20", "--p", "3"],
        ["robin", "--domain", "builtin:interval:20", "--p", "3", "--sigma", "const:1"],
        ["maximize", "--domain", "builtin:interval:20", "--p", "3", "--m", "1"],
        ["minimize", "--domain", "builtin:square:0.5", "--p", "3", "--m", "1", "--workers", "2"],
        ["scan-lambda1", "--domain", "builtin:interval:20", "--p", "3"],
        ["bounds", "--domain", "builtin:interval:20", "--p", "3", "--m-list", "0.1,10"],
        ["sweep", "--domain", "builtin:interval:20", "--m-list", "0.1,10"],
        ["mesh", "--domain", "builtin:disk:0.25"],
        ["concentrate", "--p", "2", "--m", "1", "--j-list", "2,100"],
        ["concentrate", "--p", "1.5", "--m", "1", "--j-list", "2,100"],
        ["oracle", "interval-robin-p2", "1", "1"],
        ["oracle", "interval-dirichlet-p", "3"],
        ["oracle", "disk-robin-p2", "1"],
        ["oracle", "interval-robin-p", "3", "1", "2"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from robinopt.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        f"    print(argv[0], code, *[n for n in {names!r} if n in sys.modules])\n"
    )
    lines = [line.split() for line in run_fresh(code).splitlines()]
    assert [line[:2] for line in lines] == [[argv[0], "0"] for argv in commands]
    assert all(len(line) == 2 for line in lines), lines


def test_weight_file_atom_outside_mesh_exit_code(tmp_path, capsys):
    path = tmp_path / "w.bw"
    path.write_text("bw 1 0.5\natom -1 0.5\n")
    assert run(["robin", "--domain", "builtin:interval:10", "--sigma", f"file:{path}"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("sigma", ["const:nan", "dirac:0:inf", "nan-density", "nan-declared"])
def test_non_finite_weight_exit_code(tmp_path, sigma, capsys):
    path = tmp_path / "w.bw"
    if sigma == "nan-density":
        path.write_text("bw 1 1\nfacet 0 nan\nfacet 1 1\n")
        sigma = f"file:{path}"
    elif sigma == "nan-declared":
        path.write_text("bw 1 nan\nfacet 0 0.5\nfacet 1 0.5\n")
        sigma = f"file:{path}"
    assert run(["robin", "--domain", "builtin:interval:20", "--sigma", sigma]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("domain, sigma", [
    ("builtin:interval:20", "dirac:nan:1"),
    ("builtin:disk:0.1", "dirac:inf,0:1"),
])
def test_non_finite_dirac_point_exit_code(domain, sigma, capsys):
    assert run(["robin", "--domain", domain, "--sigma", sigma]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _mesh_file(tmp_path, damage):
    from robinopt import build_interval, write_mesh

    path = tmp_path / "m.pmesh"
    write_mesh(build_interval(4), path)
    lines = path.read_text().splitlines()
    if damage == "truncated":
        lines = lines[:-2]
    elif damage == "non-numeric":
        lines[2] = "0.0x"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("damage", ["truncated", "non-numeric", "missing", "missing-sigma"])
def test_bad_input_file_exit_code(tmp_path, damage, capsys):
    mesh = _mesh_file(tmp_path, damage)
    argv = ["robin", "--domain", f"file:{mesh}", "--sigma", "const:1"]
    if damage == "missing":
        argv[2] = f"file:{tmp_path / 'absent.pmesh'}"
    elif damage == "missing-sigma":
        argv[4] = f"file:{tmp_path / 'absent.bw'}"
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unsupported_mesh_dimension_exit_code(tmp_path, capsys):
    path = _mesh_file(tmp_path, None)
    path.write_text(path.read_text().replace("pmesh 1 1", "pmesh 1 3", 1))
    assert run(["mesh", "--domain", f"file:{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unsupported mesh dimension 3")


def test_unknown_oracle_exit_code(capsys):
    assert run(["oracle", "nope"]) == 2


@pytest.mark.parametrize("args", [
    ["interval-robin-p2", "1"],
    ["interval-robin-p2", "x", "1"],
    ["interval-robin-p", "2", "1"],
    ["interval-robin-p", "2", "1", "1", "200"],
    ["interval-robin-p", "2", "1", "inf"],
    ["interval-robin-p", "2", "0", "0"],
    ["interval-dirichlet-p"],
    ["disk-robin-p2", "1", "2"],
    ["disk-robin-p2", "nan"],
    ["interval-robin-p2", "nan", "1"],
    ["interval-robin-p2", "inf", "1"],
    ["interval-robin-p", "2", "nan", "1"],
    ["interval-robin-p", "3", "-1", "2"],
    ["interval-robin-p", "0.5", "1", "1"],
    ["interval-robin-p", "1.0", "1", "1"],
])
def test_oracle_argument_error_exit_code(args, capsys):
    assert run(["oracle", *args]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [["dirichlet"], ["robin", "--sigma", "const:1"]])
def test_failed_weak_residual_check_exit_code(argv, monkeypatch, capsys):
    # both eigenvalue commands fail on their weak-residual re-check, and
    # still print the report that records it
    import robinopt.cli as cli

    monkeypatch.setattr(cli, "verify_weak_residual", lambda res: {"ok": False})
    assert run([*argv, "--domain", "builtin:interval:20"]) == 5
    assert json.loads(capsys.readouterr().out)["weak_residual_check"] == {"ok": False}


def test_no_convergence_exit_code(capsys):
    argv = ["robin", "--domain", "builtin:disk:0.2", "--sigma", "const:1", "--p", "1.2",
            "--max-outer", "2"]
    assert run(argv) == 4
    assert capsys.readouterr().err.startswith("no convergence:")


def test_invariant_violation_exit_code(monkeypatch, capsys):
    from robinopt import InvariantViolationError
    import robinopt.maximizer as mx

    def violated(*args, **kwargs):
        raise InvariantViolationError("flux mass does not reproduce F")

    monkeypatch.setattr(mx, "sigma_max", violated)
    assert run(["maximize", "--domain", "builtin:interval:10", "--m", "2"]) == 5
    assert capsys.readouterr().err.startswith("invariant violated:")


@pytest.mark.parametrize("argv", [
    ["minimize", "--domain", "builtin:interval:10", "--m", "1", "--serial"],
    ["dirichlet", "--domain", "builtin:interval:10", "--seed", "0"],
    ["mesh", "--domain", "builtin:interval:10", "--p", "3"],
    ["maximize", "--domain", "builtin:interval:10", "--m", "2", "--workers", "1"],
    # --workers is minimize's alone
    ["bounds", "--domain", "builtin:square:0.25", "--p", "3", "--m-list", "0.1,10", "--workers", "2"],
])
def test_flag_the_command_does_not_read_exit_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_maximize_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = run([
        "maximize", "--domain", "builtin:interval:100", "--m", "2", "--out", str(out),
    ])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert abs(rep["xi_m"] - 1.70705) < 0.01
    assert rep["crosscheck_ok"]
    assert (out / "sigma_m.bw").exists()
    from robinopt import build_interval, read_weight

    w = read_weight(build_interval(100), out / "sigma_m.bw")
    assert abs(w.total_mass - 2.0) < 1e-9
    csv = (out / "sigma_m.csv").read_text().splitlines()
    assert csv[0] == "node,x,arclength,mass,density"
    assert len(csv) == 3  # header + two endpoints


def test_sigma_m_csv_masses_are_the_weight_file_atoms(tmp_path):
    out = tmp_path / "run"
    assert run(["maximize", "--domain", "builtin:disk:0.3", "--m", "2", "--out", str(out)]) == 0
    from robinopt import build_disk, read_weight

    atoms = dict(read_weight(build_disk(0.3), out / "sigma_m.bw").atoms)
    rows = [ln.split(",") for ln in (out / "sigma_m.csv").read_text().splitlines()[1:]]
    col = (out / "sigma_m.csv").read_text().splitlines()[0].split(",").index("mass")
    assert {int(r[0]): float(r[col]) for r in rows} == atoms


def test_minimize_csv_columns(tmp_path):
    out = tmp_path / "run"
    code = run([
        "minimize", "--domain", "builtin:interval:50", "--p", "2", "--m", "1",
        "--out", str(out), "--workers", "1",
    ])
    assert code == 0
    lines = (out / "minimize.csv").read_text().splitlines()
    assert lines[0] == "node,x,y,lambda1_x,ell1_dirac"
    assert len(lines) == 3


def test_csv_cells_are_plain_floats(tmp_path):
    # numpy scalars must be written as plain float reprs, not np.float64(...)
    out = tmp_path / "run"
    assert run(["maximize", "--domain", "builtin:interval:50", "--m", "2", "--out", str(out)]) == 0
    assert run(["minimize", "--domain", "builtin:interval:50", "--p", "2", "--m", "1",
                "--out", str(out), "--workers", "1"]) == 0
    for name in ("sigma_m.csv", "minimize.csv"):
        rows = (out / name).read_text().splitlines()[1:]
        assert rows
        for cell in (c for row in rows for c in row.split(",") if c):
            assert not cell.startswith("np.")
            float(cell)


def test_sweep_lambda_column_nondecreasing(tmp_path):
    out = tmp_path / "run"
    code = run([
        "sweep", "--domain", "builtin:interval:100", "--m-list", "log:0.01:100:9",
        "--out", str(out),
    ])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 10
    lam = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(b >= a for a, b in zip(lam, lam[1:]))


def test_bounds_command(tmp_path):
    out = tmp_path / "run"
    code = run([
        "bounds", "--domain", "builtin:interval:100", "--m-list", "0.1,1,10",
        "--out", str(out),
    ])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["all_pass"]
    # each row counts its failed node solves; the CSV keeps its columns
    assert [row["failures"] for row in rep["rows"]] == [0, 0, 0]
    header = (out / "bounds.csv").read_text().splitlines()[0]
    assert header == "m,belsup,Lambda,upper,inflow,lambda,upper2,pass"


def test_concentrate_command(tmp_path):
    out = tmp_path / "run"
    code = run(["concentrate", "--p", "1.5", "--j-list", "100,10000", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["monotone_tail"]
    lines = (out / "concentrate.csv").read_text().splitlines()
    assert lines[0] == "j,alpha,Q,bound"


def test_concentrate_on_a_mesh_reports_its_area(capsys):
    # the log profile on a disk mesh: the volume is that of its inscribed 12-gon
    assert run(["concentrate", "--p", "2", "--m", "2", "--j-list", "10,100",
                "--domain", "builtin:disk:0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["profile"] == "log"
    assert out["volume"] == pytest.approx(3.0, rel=1e-14)


def test_robin_reports_the_snap_distance_of_a_dirac_point(capsys):
    # (0.3, 0) lies between the boundary nodes (0, 0) and (0.5, 0) of square 0.5
    assert run(["robin", "--domain", "builtin:square:0.5", "--p", "3",
                "--sigma", "dirac:0.3,0:1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["snap_distance"] == pytest.approx(0.2, rel=1e-14)
    assert out["sigma_mass"] == 1.0


def test_concentrate_j_list_rounds_near_integers(tmp_path):
    # geomspace gives 29.999999999999996 for the second entry: j = 30, not 29
    out = tmp_path / "run"
    assert run(["concentrate", "--p", "1.5", "--j-list", "log:3:3e6:7", "--out", str(out)]) == 0
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert [r["j"] for r in rows] == [3, 30, 300, 3000, 30000, 300000, 3000000]


@pytest.mark.parametrize("j_list", ["100.5,100.7", "2,2.5", "100,100.00000001"])
def test_concentrate_non_integer_j_exit_code(j_list, capsys):
    assert run(["concentrate", "--p", "1.5", "--j-list", j_list]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_scan_command(capsys):
    assert run(["scan-lambda1", "--domain", "builtin:interval:50", "--p", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tie_set"] == [0, 50]


def test_mesh_export_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(["mesh", "--domain", "builtin:disk:0.2", "--out", str(out)]) == 0
    assert run(["dirichlet", "--domain", f"file:{out/'mesh.pmesh'}"]) == 0


def test_serial_reruns_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = run([
            "maximize", "--domain", "builtin:interval:100", "--m", "2",
            "--out", str(out),
        ])
        assert code == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]
