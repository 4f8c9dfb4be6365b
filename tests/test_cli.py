"""Command-line surface: exit codes, CSV schema, golden diffing."""

import csv
import dataclasses
import hashlib
import shutil
from pathlib import Path

import pytest
from click.testing import CliRunner

from fluidsym import cli
from fluidsym.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_usage_error_unknown_theory(runner):
    res = runner.invoke(main, ["algebra", "--theory", "landau"])
    assert res.exit_code == 2


def test_usage_error_unsupported_case(runner):
    res = runner.invoke(main, ["reduce", "--case", "9", "--theory", "eckart"])
    assert res.exit_code == 2
    assert "not supported" in res.output


def test_usage_error_unsupported_relaxing_case(runner):
    """Only a case outside the catalog is refused, for either closure."""
    for command in (["reduce"], ["solve", "--v0", "0.5"]):
        res = runner.invoke(main, command + ["--case", "7", "--theory", "israel-stewart"])
        assert res.exit_code == 2
        assert ("case 7 is not supported for theory 'israel-stewart': no reduction "
                "is catalogued for this combination") in res.output


@pytest.mark.parametrize("case_no", ["3", "4", "5", "6"])
def test_relaxing_similarity_reductions_check_and_solve(runner, case_no):
    """The Israel-Stewart similarity reductions derive, pass the symbolic
    check, and integrate.  At the default --blowup-delta, case 3 creeps
    toward the light cone y = 1 for its whole step budget before the step
    failure; at 0.06 the blow-up event ends it first."""
    args = ["--case", case_no, "--theory", "israel-stewart"]
    res = runner.invoke(main, ["reduce", *args, "--check"])
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[-1] == "symbolic check: PASS"
    res = runner.invoke(main, ["solve", *args, "--v0", "0.5", "--q0", "-0.1",
                               "--t-end", "3", "--blowup-delta", "0.06"])
    assert res.exit_code == 0, res.output
    assert res.output.startswith("termination: ")


@pytest.mark.parametrize("args", [
    ["reduce", "--case", "5", "--theory", "eckart"],
    ["reduce", "--case", "5", "--theory", "israel-stewart", "--check"],
    ["solve", "--case", "5", "--theory", "eckart", "--v0", "0.5"],
], ids=["reduce", "reduce-check", "solve"])
def test_usage_error_group_parameter_beyond_the_exponent_range(runner, args):
    """Case 5 raises t to the power a, and exponents lie in [-2**30, 2**30)."""
    for a in ("1e400", "-1073741825"):
        res = runner.invoke(main, args + ["-a", a])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit), res.exception
        assert "Invalid value for -a" in res.output


def test_usage_error_bad_velocity(runner):
    res = runner.invoke(main, ["solve", "--case", "1", "--theory", "eckart",
                               "--v0", "1.5"])
    assert res.exit_code == 2


def test_usage_error_bad_normalize_coefficient(runner):
    res = runner.invoke(main, ["algebra", "--theory", "eckart",
                               "--normalize", "1,x,1,0"])
    assert res.exit_code == 2
    assert "--normalize" in res.output


def test_usage_error_bad_params_value(runner, tmp_path):
    p = tmp_path / "params.txt"
    p.write_text("k = abc\n")
    res = runner.invoke(main, ["solve", "--case", "1", "--theory", "eckart",
                               "--v0", "0.5", "--params", str(p)])
    assert res.exit_code == 2
    assert "not a rational number: 'abc'" in res.output


def test_usage_error_nonpositive_rtol(runner):
    res = runner.invoke(main, ["solve", "--case", "1", "--theory", "eckart",
                               "--v0", "0.5", "--rtol", "-1"])
    assert res.exit_code == 2
    assert "--rtol" in res.output


def test_usage_error_nonpositive_t_end(runner):
    res = runner.invoke(main, ["solve", "--case", "1", "--theory", "eckart",
                               "--v0", "0.5", "--t-end", "-5"])
    assert res.exit_code == 2
    assert "--t-end" in res.output


def test_usage_error_t_end_beyond_the_step_budget(runner, monkeypatch):
    """solve takes at most 200,000 steps of at most 1e9, so a --t-end past
    2e14 cannot be reached; it is refused before anything is derived."""
    derived = []
    monkeypatch.setattr(cli.rd, "reduced_system",
                        lambda *a, **k: derived.append(a))
    res = runner.invoke(main, ["solve", "--case", "1", "--theory", "eckart",
                               "--v0", "0.5", "--t-end", "1e308"])
    assert res.exit_code == 2
    assert "--t-end" in res.output and "at most 2e+14" in res.output
    assert derived == []


def test_usage_error_unknown_params_key(runner, tmp_path):
    p = tmp_path / "params.txt"
    p.write_text("k = 2\nkapa = 3\n")
    res = runner.invoke(main, ["solve", "--case", "1", "--theory", "eckart",
                               "--v0", "0.5", "--params", str(p)])
    assert res.exit_code == 2
    assert "unknown key 'kapa'" in res.output


def test_usage_error_bad_group_parameter(runner):
    res = runner.invoke(main, ["reduce", "--case", "4", "--theory", "eckart",
                               "-a", "abc"])
    assert res.exit_code == 2


_IS_CRITICAL = ["critical", "--case", "1", "--theory", "israel-stewart"]


@pytest.mark.parametrize("args, option", [
    (_IS_CRITICAL + ["--hi", "1.5"], "--hi"),
    (_IS_CRITICAL + ["--lo", "-2"], "--lo"),
    (_IS_CRITICAL + ["--lo", "0.9", "--hi", "0.5"], "--lo"),
    (_IS_CRITICAL + ["--horizon", "-5"], "--horizon"),
    (_IS_CRITICAL + ["--horizon", "5e-324"], "--horizon"),
    (["solve", "--case", "1", "--theory", "eckart", "--v0", "0.5",
      "--rtol", "1e-323"], "--rtol"),
    (_IS_CRITICAL + ["--tol", "0"], "--tol"),
    (["algebra", "--theory", "eckart", "--normalize", "0,0,0,0"], "--normalize"),
    (["algebra", "--theory", "eckart", "--normalize", "1e300,0,1e-300,0"],
     "--normalize"),
    (["symmetries", "--theory", "eckart", "--ansatz-degree", "-1"],
     "--ansatz-degree"),
], ids=["critical-hi-above-1", "critical-lo-below-minus-1",
        "critical-reversed-bracket", "critical-negative-horizon",
        "critical-underflowing-horizon", "solve-underflowing-atol",
        "critical-zero-tol", "normalize-zero-element",
        "normalize-parameter-beyond-float-range", "negative-ansatz-degree"])
def test_usage_error_out_of_range(runner, args, option):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert option in res.output


def test_algebra_tables_text_and_csv(runner):
    res = runner.invoke(main, ["algebra", "--theory", "eckart"])
    assert res.exit_code == 0
    assert "exp(eps)*V1" in res.output
    res = runner.invoke(main, ["algebra", "--theory", "israel-stewart",
                               "--table", "adjoint", "--format", "csv"])
    assert res.exit_code == 0
    assert '"exp(eps)*V2"' in res.output


def test_algebra_normalize(runner):
    res = runner.invoke(main, ["algebra", "--theory", "eckart",
                               "--normalize", "1,0.5,1,0"])
    assert res.exit_code == 0
    assert "canonical representative: 0, 0, 1, 0" in res.output


def test_reduce_check_fast_case(runner, monkeypatch):
    from fluidsym import reduction as rd
    calls = []
    derive = rd._derivation

    def counted(*args, **kwargs):
        calls.append(args)
        return derive(*args, **kwargs)

    monkeypatch.setattr(rd, "_derivation", counted)
    res = runner.invoke(main, ["reduce", "--case", "4", "--theory", "eckart",
                               "--check"])
    assert res.exit_code == 0
    assert "symbolic check: PASS" in res.output
    # the printed system is the one the check built
    assert len(calls) == 1


def test_solve_writes_csv_schema(runner, tmp_path):
    out = tmp_path / "traj.csv"
    res = runner.invoke(main, [
        "solve", "--case", "1", "--theory", "eckart", "--v0", "0.5",
        "--q0", "-0.1", "--t-end", "10", "--out", str(out),
        "--blowup-delta", "0.06",
    ])
    assert res.exit_code == 0, res.output
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["t", "psi", "v", "n", "rho", "q"]
    # at least 12 significant digits on interior samples
    sample = rows[2][1]
    mantissa = sample.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) >= 12
    vs = [float(r[2]) for r in rows[1:]]
    assert all(b >= a - 1e-12 for a, b in zip(vs, vs[1:]))
    assert "classification: blowing-up" in res.output


def test_solve_stationary_uses_catalog_orientation(runner, tmp_path):
    out = tmp_path / "traj2.csv"
    res = runner.invoke(main, [
        "solve", "--case", "2", "--theory", "eckart", "--v0", "0.7",
        "--q0", "-0.1", "--t-end", "3", "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    rows = list(csv.reader(out.open()))
    assert rows[0][0] == "x"
    xs = [float(r[0]) for r in rows[1:]]
    assert xs[-1] < xs[0]  # steepening branch runs toward decreasing x


def test_solve_relaxing_theory_decays(runner):
    res = runner.invoke(main, [
        "solve", "--case", "1", "--theory", "israel-stewart", "--v0", "0.3",
        "--q0", "-0.1", "--t-end", "12",
    ])
    assert res.exit_code == 0, res.output
    assert "classification: decaying" in res.output


def test_solve_case3_header_names_states(runner, tmp_path):
    out = tmp_path / "traj3.csv"
    res = runner.invoke(main, [
        "solve", "--case", "3", "--theory", "eckart", "--v0", "0.7",
        "--t-end", "0.88", "--out", str(out),
    ])
    assert res.exit_code == 0, res.output
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["y", "psi", "v", "alpha", "rho", "q"]


def test_solve_step_failure_reports_where_the_integrator_stopped(runner, tmp_path):
    """A run that ends in step failure ends with a sample at its last
    accepted state: the final lines and the CSV's last row report the stop,
    not the last sample of the grid (here the start)."""
    out = tmp_path / "traj3.csv"
    res = runner.invoke(main, [
        "solve", "--case", "3", "--theory", "eckart", "--v0", "0.75",
        "--q0", "-0.45", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "termination: step-failure" in res.output
    rows = list(csv.reader(out.open()))[1:]
    y_stop = float(rows[-1][0])
    assert len(rows) == 2 and 0.0 < y_stop < 10.0 / 200
    assert f"final y = {y_stop:.12g}\n" in res.output


def test_solve_names_an_exhausted_step_budget(runner, monkeypatch):
    """A run that takes its whole step budget says so, with the budget of
    its SolverConfig; a step failure short of the budget keeps the bare
    reason.  Here the budget is 50 steps."""
    @dataclasses.dataclass(frozen=True)
    class FiftySteps(cli.od.SolverConfig):
        max_steps: int = 50

    integrate, runs = cli.od.integrate, []

    def recorded(*args):
        runs.append(integrate(*args))
        return runs[-1]

    monkeypatch.setattr(cli.od, "SolverConfig", FiftySteps)
    monkeypatch.setattr(cli.od, "integrate", recorded)
    start = ["solve", "--case", "3", "--theory", "eckart"]
    budget = runner.invoke(main, start + ["--v0", "0.35", "--q0", "-0.05"])
    assert budget.exit_code == 0, budget.output
    assert "termination: step-failure (step budget of 50 exhausted)\n" in budget.output
    early = runner.invoke(main, start + ["--v0", "0.75", "--q0", "-0.45"])
    assert early.exit_code == 0, early.output
    assert "termination: step-failure\n" in early.output
    assert runs[0].n_steps == 50 and runs[1].n_steps < 50


def test_solve_case5_starts_off_its_singular_point(runner, tmp_path):
    # y = 0 is a singular point of the case-5 reduction; from there the run
    # ended in step-failure with one sample
    out = tmp_path / "traj5.csv"
    res = runner.invoke(main, [
        "solve", "--case", "5", "--theory", "eckart", "--v0", "0.5",
        "--q0", "-0.1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "termination: reached-end" in res.output
    ys = [float(r[0]) for r in list(csv.reader(out.open()))[1:]]
    assert (ys[0], ys[-1], len(ys)) == (1.0, 11.0, 201)


@pytest.mark.parametrize("args, option", [
    (["solve", "--case", "1", "--theory", "eckart", "--v0", "0.9",
      "--q0", "-0.1", "--blowup-delta", "0.5"], "--v0"),
    (["solve", "--case", "1", "--theory", "eckart", "--v0", "-0.9",
      "--blowup-delta", "0.5"], "--v0"),
    (["critical", "--case", "1", "--theory", "israel-stewart",
      "--hi", "0.99"], "--hi"),
    (["critical", "--case", "2", "--theory", "eckart", "--lo", "-0.97"],
     "--lo"),
], ids=["solve-v0", "solve-mirror-v0", "critical-hi", "critical-lo"])
def test_usage_error_start_past_the_blowup_threshold(runner, args, option):
    # the blow-up guard fires only on a crossing from 1 - v^2 > threshold, so
    # such a start ran to the end as inconclusive, or exited 1 as no-bracket
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert option in res.output and "blow-up threshold" in res.output


def test_critical_no_bracket_exits_nonzero(runner):
    res = runner.invoke(main, ["critical", "--case", "1", "--theory",
                               "eckart", "--lo", "0.1", "--hi", "0.9"])
    assert res.exit_code == 1
    assert "no-bracket" in res.output


def test_critical_no_bracket_names_a_step_failure(runner):
    """An endpoint run that never integrated is named as a step failure, not
    only as inconclusive: at this horizon the first step, at least 1e-14 of
    the span, is rejected and its retry falls below that floor."""
    res = runner.invoke(main, ["critical", "--case", "1", "--theory",
                               "israel-stewart", "--horizon", "1e15"])
    assert res.exit_code == 1, res.output
    assert res.output == (
        "no-bracket error: endpoints do not bracket a critical velocity: "
        "v0=0.5 -> inconclusive (step-failure after 0 steps), "
        "v0=0.9 -> inconclusive (step-failure after 0 steps)\n")


def test_tables_side_by_side_listing(runner):
    for theory, last, families in (
            ("eckart", "9)", ["+-V3 + b*V4", "+-V1 + a*V2 + d*V4 and +-V2 + d*V4",
                              "+-V4"]),
            ("israel-stewart", "4)", ["+-V3", "+-V1 + a*V2 and +-V2"])):
        res = runner.invoke(main, ["tables", "--theory", theory])
        assert res.exit_code == 0
        assert "reference list:" in res.output
        assert "canonical families" in res.output
        assert last in res.output
        listed = res.output.split("canonical families")[1].splitlines()[1:]
        assert len(listed) == len(families)
        assert all(line.startswith(f"  - {f}") for line, f in zip(listed, families))
        assert theory == "eckart" or "V4" not in "".join(listed)


def test_usage_error_goldens_dir_without_goldens(runner, tmp_path):
    res = runner.invoke(main, ["verify", "--goldens-dir", str(tmp_path)])
    assert res.exit_code == 2
    assert "missing golden file" in res.output


def _goldens_with(tmp_path, name, old, new):
    """A copy of the shipped goldens with the first `old` in one file
    replaced by `new`."""
    for f in Path(cli._goldens_dir()).glob("*.txt"):
        shutil.copy(f, tmp_path / f.name)
    target = tmp_path / name
    target.write_text(target.read_text().replace(old, new, 1))
    return str(tmp_path)


def _goldens_appended(tmp_path, name, data: bytes):
    """A copy of the shipped goldens with bytes appended to one file."""
    goldens = _goldens_with(tmp_path, name, "", "")
    with open(tmp_path / name, "ab") as fh:
        fh.write(data)
    return goldens


def _goldens_with_directory(tmp_path, name):
    """A copy of the shipped goldens with one file replaced by a directory."""
    goldens = _goldens_with(tmp_path, name, "", "")
    (tmp_path / name).unlink()
    (tmp_path / name).mkdir()
    return goldens


def _params(tmp_path, text):
    p = tmp_path / "params.txt"
    p.write_text(text)
    return str(p)


def _not_utf8(tmp_path):
    p = tmp_path / "params.txt"
    p.write_bytes(b"k = \xff\n")
    return str(p)


_MISSING = "missing-dir/out.txt"

# (arguments from tmp_path, text the usage message must hold, whether the
# error must come before any work)
_BAD_INPUT_FILES = {
    "goldens-line-without-equals": (lambda d: ["verify", "--goldens-dir", _goldens_with(
        d, "commutator_table_eckart.txt", "V1,V3 = V1", "V1,V3 V1")],
        "commutator_table_eckart.txt, line 5", False),
    "goldens-cell-outside-the-algebra": (lambda d: ["verify", "--goldens-dir", _goldens_with(
        d, "adjoint_table_israel_stewart.txt", "V1,V1 = V1", "V9,V1 = 0")],
        "adjoint_table_israel_stewart.txt, line 3", False),
    "goldens-unparsable-generator": (lambda d: ["verify", "--goldens-dir", _goldens_with(
        d, "generator_basis_eckart.txt", "d_x", "d_t +* x")],
        "generator_basis_eckart.txt, line 3", False),
    "goldens-computed-basis-not-utf8": (lambda d: ["verify", "--goldens-dir", _goldens_appended(
        d, "generator_basis_computed_eckart.txt", b"\xff")],
        "generator_basis_computed_eckart.txt, line 7", False),
    "goldens-generator-outside-the-ansatz": (lambda d: ["verify", "--goldens-dir", _goldens_with(
        d, "generator_basis_eckart.txt", "d_x", "d_t*d_x")],
        "generator_basis_eckart.txt, line 3", False),
    "goldens-file-is-a-directory": (lambda d: ["verify", "--goldens-dir", _goldens_with_directory(
        d, "commutator_table_eckart.txt")], "commutator_table_eckart.txt", False),
    "goldens-dir-is-a-file": (lambda d: ["verify", "--goldens-dir", str(
        Path(cli._goldens_dir()) / "commutator_table_eckart.txt")], "--goldens-dir", True),
    "params-is-a-directory": (lambda d: _SOLVE + ["--v0", "0.5", "--params", str(d)],
                              "--params", True),
    "params-not-utf8": (lambda d: _SOLVE + ["--v0", "0.5", "--params", _not_utf8(d)],
                        "--params", True),
    # the integrator reads k and kappa as floats
    "solve-params-k-beyond-float-range": (
        lambda d: _SOLVE + ["--v0", "0.5", "--params", _params(d, "k = 1e400\n")],
        "k = 1e400 is not a positive finite float", True),
    "solve-params-kappa-below-float-range": (
        lambda d: _SOLVE + ["--v0", "0.5", "--params", _params(d, "kappa = 1e-400\n")],
        "kappa = 1e-400 is not a positive finite float", True),
    "critical-params-k-beyond-float-range": (
        lambda d: _IS_CRITICAL + ["--params", _params(d, "k = 1e400\n")],
        "k = 1e400 is not a positive finite float", True),
    "critical-params-kappa-below-float-range": (
        lambda d: ["critical", "--case", "2", "--theory", "eckart",
                   "--params", _params(d, "kappa = 1e-400\n")],
        "kappa = 1e-400 is not a positive finite float", True),
    "solve-out-in-missing-directory": (
        lambda d: _SOLVE + ["--v0", "0.5", "--out", str(d / _MISSING)], "--out", True),
    "reduce-dump-expr-in-missing-directory": (
        lambda d: ["reduce", "--case", "1", "--theory", "eckart", "--dump-expr",
                   str(d / _MISSING)], "--dump-expr", True),
    "symmetries-dump-determining-in-missing-directory": (
        lambda d: ["symmetries", "--theory", "eckart", "--dump-determining",
                   str(d / _MISSING)], "--dump-determining", True),
}


@pytest.mark.parametrize("case", list(_BAD_INPUT_FILES))
def test_usage_error_bad_input_file(runner, tmp_path, monkeypatch, case):
    """An unreadable or malformed input file, or an output path that cannot
    be written, exits 2 with a message naming the option or the file and
    line, and no traceback; a bad path is rejected before any work."""
    make_args, expected, before_work = _BAD_INPUT_FILES[case]
    if before_work:
        def work(*args, **kwargs):
            raise AssertionError("work started before the path was checked")
        for module, name in ((cli.rd, "reduced_system"), (cli.sm, "solve_determining"),
                             (cli.sm, "determining_equations")):
            monkeypatch.setattr(module, name, work)
    res = runner.invoke(main, make_args(tmp_path))
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert expected in res.output
    assert "Usage:" in res.output


def test_golden_tables_check_passes():
    assert list(cli._check_tables(cli._goldens_dir())) == [
        ("commutator/adjoint tables match goldens cell-for-cell", True, "")]


_CELL_FAULT = ("commutator table (eckart) cell [V1,V3]", False, "got 'V1', golden 'V2'")


def test_golden_fault_injection_names_cell(runner, tmp_path):
    """A changed cell is one failed result ahead of the failed summary, and
    `verify` prints it as a FAIL line and exits 1."""
    goldens = _goldens_with(tmp_path, "commutator_table_eckart.txt",
                            "V1,V3 = V1", "V1,V3 = V2")
    assert list(cli._check_tables(Path(goldens))) == [
        _CELL_FAULT, ("commutator/adjoint tables match goldens cell-for-cell", False, "")]
    res = runner.invoke(main, ["verify", "--goldens-dir", goldens])
    assert res.exit_code == 1, res.output
    assert "FAIL %s: %s\n" % (_CELL_FAULT[0], _CELL_FAULT[2]) in res.output


# The golden-tampering table: a golden file, the text taken out of it (None:
# all of it), and the FAIL lines that verify prints besides the three
# documented ones.
_GOLDEN_GAPS = {
    "table-cell-missing": ("commutator_table_eckart.txt", "V1,V3 = V1\n", [
        "FAIL commutator table (eckart) cell [V1,V3]: got 'V1', golden missing",
        "FAIL commutator/adjoint tables match goldens cell-for-cell"]),
    "reference-basis-empty": ("generator_basis_eckart.txt", None, [
        "FAIL reference generators are symmetries (eckart)"]),
}


@pytest.mark.parametrize("case", list(_GOLDEN_GAPS))
def test_golden_lacking_entries_fails_verify(runner, tmp_path, case):
    """A golden that lacks entries is no pass: a cell missing from its table
    is a failed result named like a changed cell, and an empty reference
    basis fails its check.  `verify` exits 1 with exactly these failures
    besides the documented ones."""
    name, old, fails = _GOLDEN_GAPS[case]
    if old is None:
        old = (Path(cli._goldens_dir()) / name).read_text()
    res = runner.invoke(main, ["verify", "--goldens-dir",
                               _goldens_with(tmp_path, name, old, "")])
    assert res.exit_code == 1, res.output
    failed = [ln for ln in res.output.splitlines() if ln.startswith("FAIL ")]
    assert [ln for ln in failed if ln[len("FAIL "):].split(": ", 1)[0]
            not in _VERIFY_FAILS] == fails, res.output
    assert len(failed) == len(fails) + len(_VERIFY_FAILS), res.output


_VERIFY_FAILS = [
    "reference closed-form profile satisfies the residuals",
    "symmetry recovery (eckart) matches reference span",
    "symmetry recovery (israel-stewart) matches reference span",
]
_VERIFY_SHA256 = ("f807c6d60ba44f8b64c9c484413edd3c"
                  "f74a46051c25cba0a24e02dcb836f8cc")


def test_verify_output_is_pinned(runner):
    """`verify` prints 23 check lines sorted by name and the verdict, byte for
    byte, and exits 1 on the three documented discrepancies; the names are
    unique, so the sort alone fixes the order."""
    res = runner.invoke(main, ["verify"])
    assert res.exit_code == 1, res.output
    lines = res.output.splitlines()
    assert [ln[len("FAIL "):].split(": ", 1)[0] for ln in lines
            if ln.startswith("FAIL ")] == _VERIFY_FAILS, res.output
    assert len(lines) == 24 and lines[-1] == "verify: FAILED (see lines above)"
    assert hashlib.sha256(res.output.encode()).hexdigest() == _VERIFY_SHA256, res.output
    names = [name for name, _, _ in cli.run_verify_battery()]
    assert len(names) == len(set(names)) == 23


def test_params_file_parsing(tmp_path):
    from fractions import Fraction
    p = tmp_path / "params.txt"
    p.write_text("k = 2\nkappa = 1/2\n")
    params = cli._params_from_file(str(p), theory="israel-stewart")
    assert params.k == Fraction(2)
    assert params.kappa == Fraction(1, 2)
    # lambda comes from the theory alone
    assert params.lam == Fraction(1)
    assert cli._params_from_file(str(p), theory="eckart").lam == Fraction(0)


def test_reduce_dump_expr_roundtrip(runner, tmp_path):
    from fluidsym import expr as ex
    out = tmp_path / "rhs.txt"
    res = runner.invoke(main, ["reduce", "--case", "4", "--theory", "eckart",
                               "--dump-expr", str(out)])
    assert res.exit_code == 0
    lines = [ln for ln in out.read_text().splitlines() if ln.strip()]
    assert len(lines) == 4
    for ln in lines:
        name, text = (s.strip() for s in ln.split("=", 1))
        parsed = ex.parse(text)  # the dumped format round-trips
        assert ex.to_text(parsed) == text


@pytest.mark.parametrize("theory, stem", [("eckart", "eckart"),
                                          ("israel-stewart", "israel_stewart")])
def test_symmetries_prints_the_computed_golden_basis(runner, theory, stem):
    res = runner.invoke(main, ["symmetries", "--theory", theory])
    assert res.exit_code == 0
    golden = cli._goldens_dir() / f"generator_basis_computed_{stem}.txt"
    assert res.output == golden.read_text()


_SOLVE = ["solve", "--case", "1", "--theory", "eckart", "--t-end", "1"]


@pytest.mark.parametrize("args, option", [
    (["algebra", "--theory", "eckart", "--normalize", "1,nan,0,0"], "--normalize"),
    (["algebra", "--theory", "eckart", "--normalize", "1,0,inf,0"], "--normalize"),
    (_SOLVE + ["--v0", "nan"], "--v0"),
    (_SOLVE + ["--v0", "0.5", "--q0", "inf"], "--q0"),
    (_SOLVE + ["--v0", "0.5", "--n0", "nan"], "--n0"),
    (_SOLVE + ["--v0", "0.5", "--rho0", "-inf"], "--rho0"),
    (_SOLVE + ["--v0", "0.5", "--rtol", "nan"], "--rtol"),
    (["solve", "--case", "1", "--theory", "eckart", "--v0", "0.5",
      "--t-end", "inf"], "--t-end"),
    (_IS_CRITICAL + ["--q0", "nan"], "--q0"),
    (_IS_CRITICAL + ["--lo", "nan"], "--lo"),
    (_IS_CRITICAL + ["--horizon", "inf"], "--horizon"),
    (_IS_CRITICAL + ["--tol", "nan"], "--tol"),
], ids=["normalize-nan", "normalize-inf", "solve-v0-nan", "solve-q0-inf",
        "solve-n0-nan", "solve-rho0-minus-inf", "solve-rtol-nan", "solve-t-end-inf",
        "critical-q0-nan", "critical-lo-nan", "critical-horizon-inf",
        "critical-tol-nan"])
def test_usage_error_non_finite(runner, args, option):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert option in res.output


def test_usage_error_non_finite_params_n0(runner, tmp_path):
    """N0 is derived from the start, so a file that sets it is a usage
    error whatever the value, not a silent no-op."""
    p = tmp_path / "params.txt"
    p.write_text("N0 = nan\n")
    res = runner.invoke(main, _SOLVE + ["--v0", "0.5", "--params", str(p)])
    assert res.exit_code == 2
    assert "unknown key 'N0'" in res.output


def test_usage_error_params_lambda(runner, tmp_path):
    """--theory fixes lambda, so a file that sets it is a usage error."""
    p = tmp_path / "params.txt"
    p.write_text("lambda = 1\n")
    res = runner.invoke(main, _SOLVE + ["--v0", "0.5", "--params", str(p)])
    assert res.exit_code == 2
    assert "unknown key 'lambda'" in res.output


@pytest.mark.parametrize("delta", ["-1", "0", "1", "2"])
def test_usage_error_blowup_delta_outside_unit_interval(runner, delta):
    res = runner.invoke(main, _SOLVE + ["--v0", "0.5", "--blowup-delta", delta])
    assert res.exit_code == 2
    assert "--blowup-delta" in res.output



@pytest.mark.parametrize("case_no, q0, rho0", [("5", "1", "1e-320"),
                                              ("6", "-1e300", "1e-300")])
def test_usage_error_theta_beyond_float_range(runner, case_no, q0, rho0):
    """Cases 5 and 6 start at theta = q0/rho0, which must be finite."""
    res = runner.invoke(main, ["solve", "--case", case_no, "--theory", "eckart",
                               "--v0", "0.5", "--q0", q0, "--rho0", rho0])
    assert res.exit_code == 2
    assert "--q0" in res.output and "beyond float range" in res.output


@pytest.mark.parametrize("option", ["--n0", "--rho0"])
@pytest.mark.parametrize("value", ["-1", "0"])
def test_usage_error_nonpositive_density(runner, option, value):
    res = runner.invoke(main, _SOLVE + ["--v0", "0.5", option, value])
    assert res.exit_code == 2
    assert option in res.output

# Two starts for every supported (theory, case) pair: (case, theory, v0, q0,
# t-end).  Case 3 runs short windows because most of its starts reach a
# separatrix and stall; case 5 starts at its catalog ordinate y = 1, off its
# singular point y = 0, and both of its runs reach y = 11.
_PINNED_SOLVES = [
    (1, "eckart", "0.5", "-0.1", "10"), (1, "eckart", "0.3", "-0.3", "10"),
    (2, "eckart", "0.7", "-0.1", "10"), (2, "eckart", "0.4", "-0.3", "10"),
    (3, "eckart", "0.7", "0", "0.88"), (3, "eckart", "0.75", "-0.25", "3"),
    (4, "eckart", "0.5", "-0.1", "10"), (4, "eckart", "0.3", "-0.3", "10"),
    (5, "eckart", "0.5", "-0.1", "10"), (5, "eckart", "0.3", "-0.3", "10"),
    (6, "eckart", "0.5", "-0.1", "10"), (6, "eckart", "0.3", "-0.3", "10"),
    (1, "israel-stewart", "0.5", "-0.1", "10"),
    (1, "israel-stewart", "0.3", "-0.3", "10"),
    (2, "israel-stewart", "0.7", "-0.1", "10"),
    (2, "israel-stewart", "0.4", "-0.3", "10"),
]
_PINNED_CRITICALS = [["critical", "--case", "1", "--theory", "israel-stewart"],
                     ["critical", "--case", "2", "--theory", "eckart"]]
_PINNED_SHA256 = ("ab8cfdbab9dc1fc392e93f3dea6e89c4"
                  "e624e1b8003bb7b95dd1df733f60f0a1")


def test_integrator_output_is_pinned_bit_for_bit(runner, tmp_path):
    """The `solve --out` CSVs and `critical` lines hash to the recorded value:
    any change to the compiled right-hand sides or the integrator that moves a
    single float shows here."""
    h = hashlib.sha256()
    for case, theory, v0, q0, t_end in _PINNED_SOLVES:
        out = tmp_path / "traj.csv"
        res = runner.invoke(main, [
            "solve", "--case", str(case), "--theory", theory, "--v0", v0,
            "--q0", q0, "--t-end", t_end, "--out", str(out)])
        assert res.exit_code == 0, res.output
        h.update(out.read_bytes())
    for args in _PINNED_CRITICALS:
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        assert len(res.output.splitlines()) == 3
        h.update(res.output.encode())
    assert h.hexdigest() == _PINNED_SHA256


@pytest.mark.parametrize("args", [
    ["reduce", "--case", "1", "--theory", "eckart", "--check"],
    ["reduce", "--case", "2", "--theory", "israel-stewart"],
    ["reduce", "--case", "3", "--theory", "eckart", "--check"],
    ["solve", "--case", "1", "--theory", "israel-stewart", "--v0", "0.5"],
    ["solve", "--case", "2", "--theory", "eckart", "--v0", "0.5"],
    ["solve", "--case", "3", "--theory", "eckart", "--v0", "0.5"],
], ids=["reduce-1", "reduce-2", "reduce-3", "solve-1", "solve-2", "solve-3"])
def test_usage_error_group_parameter_on_a_case_without_one(runner, args):
    res = runner.invoke(main, args + ["-a", "5"])
    assert res.exit_code == 2
    assert "takes no group parameter" in res.output


# Every catalogued (case, theory) pair under `reduce --check`, three
# non-default group parameters, then the `--dump-expr` file of one case.
_PINNED_REDUCTIONS = [
    [str(case), theory] for theory, cases in (("eckart", range(1, 7)),
                                               ("israel-stewart", (1, 2)))
    for case in cases] + [["4", "eckart", "-a", "-2/3"],
                          ["5", "eckart", "-a", "1/2"],
                          ["6", "eckart", "-a", "3/2"]]
_PINNED_REDUCE_SHA256 = ("9a9b8531514af21745ef38b62ccd8208"
                         "4fe7aeda751aed9b029fffaf890489e0")


def test_reduce_output_is_pinned(runner, tmp_path):
    """The printed reduced systems, invariants, first integrals, singular
    factors and check lines hash to the recorded value."""
    h = hashlib.sha256()
    for case, theory, *extra in _PINNED_REDUCTIONS:
        res = runner.invoke(main, ["reduce", "--case", case, "--theory", theory,
                                   "--check", *extra])
        assert res.exit_code == 0, res.output
        h.update(res.output.encode())
    out = tmp_path / "rhs.txt"
    res = runner.invoke(main, ["reduce", "--case", "1", "--theory",
                               "israel-stewart", "--dump-expr", str(out)])
    assert res.exit_code == 0, res.output
    h.update(out.read_bytes())
    assert h.hexdigest() == _PINNED_REDUCE_SHA256


def test_environment_variables_do_not_set_options(runner, tmp_path, monkeypatch):
    """Options are read from the command line only: variables named after a
    command and an option change no output and no exit code."""
    commands = [
        ["solve", "--case", "1", "--theory", "eckart", "--v0", "0.5", "--q0", "-0.1"],
        ["reduce", "--case", "1", "--theory", "eckart"],
        ["verify"],
    ]
    before = [runner.invoke(main, args) for args in commands]
    monkeypatch.setenv("FLUIDSYM_SOLVE_RTOL", "1e-3")
    monkeypatch.setenv("FLUIDSYM_REDUCE_CHECK", "1")
    monkeypatch.setenv("FLUIDSYM_VERIFY_GOLDENS_DIR", str(tmp_path))
    for args, res in zip(commands, before):
        again = runner.invoke(main, args)
        assert (again.exit_code, again.output) == (res.exit_code, res.output), args


@pytest.mark.parametrize("coeffs, rep", [
    ("1,0.5,0,3", "1, 0.5, 0, 1"), ("2,1,0,6", "1, 0.5, 0, 1"),
    # the V3 action's ratio 1e-600 and 1e320 are beyond float range
    ("1e300,0,0,1e-300", "1, 0, 0, 1"), ("1e-320,0,0,1", "1, 0, 0, 1"),
])
def test_algebra_normalize_multiples_share_a_representative(runner, coeffs, rep):
    res = runner.invoke(main, ["algebra", "--theory", "eckart", "--normalize", coeffs])
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == f"canonical representative: {rep}"
