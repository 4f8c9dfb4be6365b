"""Command-line interface: symmetry computation, algebra tables, reductions,
numeric runs, critical-velocity search, and the verification battery."""

from __future__ import annotations

import csv
import importlib.resources
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import expr as ex
from . import fluid
from . import liealg as la
from . import odesolve as od
from . import reduction as rd
from . import symmetry as sm

THEORIES = tuple(fluid.THEORY_LAM)


class _Finite(click.FloatRange):
    """A float that must be finite, and within the range if one is given
    (nan passes every range comparison, so the range alone admits it)."""

    name = "float"

    def _describe_range(self):
        if self.min is None and self.max is None:
            return "finite"
        return super()._describe_range()

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return rv


class _OutputPath(click.Path):
    """A file to write whose directory exists: a bad path fails when the
    options are parsed, before any work."""

    def convert(self, value, param, ctx):
        folder = os.path.dirname(super().convert(value, param, ctx)) or "."
        if not os.path.isdir(folder):
            self.fail(f"directory {folder!r} does not exist.", param, ctx)
        return value


_OUT = _OutputPath(dir_okay=False)
_IN_FILE = click.Path(exists=True, dir_okay=False)
_FLOAT = _Finite()
_POSITIVE = _Finite(min=0, min_open=True)
_VELOCITY = _Finite(min=-1, max=1, min_open=True, max_open=True)
_UNIT = _Finite(min=0, max=1, min_open=True, max_open=True)


def _inside_threshold(v0: float, blowup_delta: float, param_hint: str):
    """Reject a start at or past the blow-up threshold 1 - v^2 = blowup_delta:
    the guard fires only on a crossing from above, so such a start can
    never be classified as blowing up."""
    if not 1.0 - v0 * v0 > blowup_delta:
        raise click.BadParameter(
            f"{v0} starts at or past the blow-up threshold 1 - v^2 = "
            f"{blowup_delta:g}; |v| must be below "
            f"{math.sqrt(1.0 - blowup_delta):.6g}", param_hint=param_hint)


def _fraction(text: str, param_hint: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter(f"not a rational number: {text!r}",
                                 param_hint=param_hint)


def _entries(path, param_hint: str, parse) -> list:
    """parse(line) for each line of a UTF-8 file but blanks and '#' comments;
    a line that is not UTF-8 or that parse rejects is a usage error."""
    out = []
    for no, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = line.decode("utf-8").strip()
            if line and not line.startswith("#"):
                out.append(parse(line))
        except (ValueError, ZeroDivisionError) as err:  # UnicodeDecodeError is a ValueError
            raise click.BadParameter(f"{path}, line {no}: {err}", param_hint=param_hint)
    return out


def _key_value(keys):
    """The parser of a flat `key = value` line whose key is one of keys."""
    def parse(line: str) -> tuple:
        key, eq, val = (s.strip() for s in line.partition("="))
        if not eq:
            raise ValueError(f"expected 'key = value', got {line!r}")
        if key not in keys:
            raise ValueError(f"unknown key {key!r} (expected {' or '.join(keys)})")
        return key, val
    return parse


def _params_from_file(path: str | None, theory: str) -> fluid.FluidParams:
    """k and kappa from a parameter file; lambda comes from the theory.  The
    integrator reads k and kappa as floats, so each must be a positive
    finite one."""
    kw = {"lam": fluid.THEORY_LAM[theory]}
    for key, val in _entries(path, "--params", _key_value(("k", "kappa"))) if path else ():
        kw[key] = _fraction(val, f"--params ({key})")
        try:
            positive = float(kw[key]) > 0  # 0.0 below the float range
        except OverflowError:
            positive = False
        if not positive:
            raise click.BadParameter(f"{key} = {val} is not a positive finite float",
                                     param_hint="--params")
    return fluid.FluidParams(**kw)


def _derived(derive, case_no: int, theory: str, a_value: str | None):
    """derive(case_no, theory, a_value=...) with a refused case or a group
    parameter out of range a usage error: case 5 raises t to the power a,
    and the kernel's exponents lie in [-2**30, 2**30)."""
    a_fr = _fraction(a_value, "-a") if a_value is not None else None
    try:
        return derive(case_no, theory, a_value=a_fr)
    except rd.UnsupportedReductionError as err:
        raise click.UsageError(str(err))
    except ValueError as err:
        raise click.BadParameter(f"{a_value}: {err}", param_hint="-a")


@click.group()
def main():
    """Symmetry analysis and group-invariant solutions of the 1+1d
    relativistic heat-conducting fluid."""


@main.command()
@click.option("--theory", type=click.Choice(THEORIES), required=True)
@click.option("--ansatz-degree", type=click.IntRange(min=0), default=1,
              show_default=True)
@click.option("--dump-determining", type=_OUT, default=None,
              help="Write the determining linear forms to a file, at "
                   "k = kappa = 1 (the basis is solved at symbolic k, kappa).")
def symmetries(theory, ansatz_degree, dump_determining):
    """Solve the determining equations and print a generator basis."""
    ansatz = sm.Ansatz(degree=ansatz_degree)
    lam = fluid.THEORY_LAM[theory]
    if dump_determining:
        inst = fluid.build_system(fluid.FluidParams(lam=lam))
        rows = sm.determining_equations(inst, ansatz)
        with open(dump_determining, "w") as fh:
            for row in rows:
                fh.write(" + ".join(f"{c}*{u}" for u, c in sorted(row.items())) + " = 0\n")
        click.echo(f"wrote {len(rows)} determining forms to {dump_determining}")
    basis = sm.canonical_presentation(sm.solve_determining(lam, ansatz))
    click.echo(_basis_text(theory, basis), nl=False)


def _basis_lines(basis) -> list:
    return [f"V{i} = {V.text()}" for i, V in enumerate(basis, start=1)]


def _basis_text(theory, basis) -> str:
    header = f"# {theory}: {len(basis)}-dimensional point-symmetry algebra"
    return "\n".join([header] + _basis_lines(basis)) + "\n"


def _emit_table(alg, kind, fmt):
    dim = alg.dim
    entry = la.commutator_table_entry if kind == "commutator" else la.adjoint_table_entry
    header = "[,]" if kind == "commutator" else "Ad"
    cells = [[entry(alg, i, j) for j in range(dim)] for i in range(dim)]
    if fmt == "csv":
        out = [",".join([header] + [f"V{j + 1}" for j in range(dim)])]
        for i in range(dim):
            out.append(",".join([f"V{i + 1}"] + [f'"{c}"' for c in cells[i]]))
        return "\n".join(out)
    width = max(len(c) for row in cells for c in row)
    width = max(width, 4)
    lines = ["  ".join([f"{header:<4}"] + [f"V{j + 1}".ljust(width) for j in range(dim)])]
    for i in range(dim):
        lines.append("  ".join([f"V{i + 1}".ljust(4)]
                               + [c.ljust(width) for c in cells[i]]))
    return "\n".join(lines)


@main.command()
@click.option("--theory", type=click.Choice(THEORIES), required=True)
@click.option("--table", "table_kind", type=click.Choice(["commutator", "adjoint"]),
              default=None, help="Emit one table (default: both).")
@click.option("--normalize", "normalize_coeffs", default=None,
              help="Comma-separated element coefficients to canonicalize.")
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text")
def algebra(theory, table_kind, normalize_coeffs, fmt):
    """Commutator/adjoint tables and element normalization."""
    alg = la.table_algebra(theory)
    if normalize_coeffs is not None:
        try:
            coeffs = [_FLOAT(v) for v in normalize_coeffs.split(",")]
        except click.BadParameter:
            raise click.BadParameter(
                f"expected comma-separated finite numbers, got {normalize_coeffs!r}",
                param_hint="--normalize")
        if len(coeffs) != alg.dim:
            raise click.UsageError(
                f"expected {alg.dim} coefficients for {theory}, got {len(coeffs)}")
        if not any(coeffs):
            raise click.BadParameter("the zero element spans no subalgebra",
                                     param_hint="--normalize")
        try:
            el, word = la.normalize_element(alg, coeffs)
        except OverflowError:
            raise click.BadParameter("the representative or a group parameter is "
                                     "beyond float range", param_hint="--normalize")
        click.echo("canonical representative: "
                   + ", ".join(f"{c:.12g}" for c in el.coefficients))
        for action, epsv in word:
            click.echo(f"  applied {action} with eps = {epsv:.12g}")
        return
    kinds = [table_kind] if table_kind else ["commutator", "adjoint"]
    for kind in kinds:
        click.echo(f"# {kind} table ({theory})")
        click.echo(_emit_table(alg, kind, fmt))


@main.command()
@click.option("--case", "case_no", type=int, required=True)
@click.option("--theory", type=click.Choice(THEORIES), required=True)
@click.option("--check", is_flag=True, help="Run the symbolic residual check.")
@click.option("-a", "a_value", type=str, default=None,
              help="Group parameter a for cases 4, 5, 6 (rational).")
@click.option("--dump-expr", type=_OUT, default=None,
              help="Write the right-hand sides to a file in the parseable "
                   "expression text format.")
def reduce(case_no, theory, check, a_value, dump_expr):
    """Print a reduced system (and optionally its symbolic verification)."""
    if check:
        rep = _derived(rd.symbolic_check_reduction, case_no, theory, a_value)
        rs = rep["system"]
    else:
        rs = _derived(rd.reduced_system, case_no, theory, a_value)
    if dump_expr:
        with open(dump_expr, "w") as fh:
            for s in rs.states:
                fh.write(f"{s} = {ex.to_text(rs.rhs[s])}\n")
        click.echo(f"wrote right-hand sides to {dump_expr}")
    click.echo(f"# case {case_no} ({theory}); independent variable: {rs.independent}")
    if rs.invariant_set is not None:
        for name, e in rs.invariant_set.invariants.items():
            click.echo(f"invariant {name} = {ex.to_text(e)}")
    for s in rs.states:
        click.echo(f"d{s}/d{rs.independent} = {ex.to_text(rs.rhs[s])}")
    for name, e in rs.first_integrals.items():
        click.echo(f"first integral ({name}): {ex.to_text(e)} = const")
    click.echo("singular locus factors:")
    for e in rs.singular:
        click.echo(f"  {ex.to_text(e)}")
    if check:
        for i, r in enumerate(rep["residuals"], start=1):
            click.echo(f"residual {i}: {'0' if r.is_zero() else ex.to_text(r)}")
        click.echo(f"symbolic check: {'PASS' if rep['ok'] else 'FAIL'}")
        if not rep["ok"]:
            sys.exit(1)


_SOLVE_MAX_STEP = 1e9  # the largest step of a solve run


@main.command()
@click.option("--case", "case_no", type=int, required=True)
@click.option("--theory", type=click.Choice(THEORIES), required=True)
@click.option("--v0", type=_VELOCITY, required=True)
@click.option("--n0", type=_POSITIVE, default=1.0, show_default=True,
              help="Initial density-like state.")
@click.option("--rho0", type=_POSITIVE, default=1.0, show_default=True)
@click.option("--q0", type=_FLOAT, default=0.0, show_default=True,
              help="Initial heat-flux-like state.")
@click.option("--t-end", type=_POSITIVE,
              default=10.0, show_default=True,
              help="Span of the independent variable (physical units).")
@click.option("--rtol", type=_POSITIVE,
              default=1e-8, show_default=True)
@click.option("--direction", type=click.Choice(["+", "-"]), default=None,
              help="Integration orientation (default: catalog orientation).")
@click.option("--blowup-delta", type=_UNIT, default=1e-6, show_default=True,
              help="1 - v^2 threshold for the blow-up event, in (0, 1).")
@click.option("--params", "params_file", type=_IN_FILE, default=None)
@click.option("--out", type=_OUT, default=None, help="CSV output path.")
@click.option("-a", "a_value", type=str, default=None)
def solve(case_no, theory, v0, n0, rho0, q0, t_end, rtol, direction,
          blowup_delta, params_file, out, a_value):
    """Integrate a reduced system and write a trajectory CSV."""
    _inside_threshold(v0, blowup_delta, "--v0")
    reach = _SOLVE_MAX_STEP * od.SolverConfig.max_steps
    if t_end > reach:
        raise click.BadParameter(
            f"{t_end:g} cannot be reached in {od.SolverConfig.max_steps} "
            f"steps of at most {_SOLVE_MAX_STEP:g}; it must be at most "
            f"{reach:g}", param_hint="--t-end")
    params = _params_from_file(params_file, theory)
    rs = _derived(rd.reduced_system, case_no, theory, a_value)
    psi0 = math.atanh(v0)
    u0 = _initial_state(case_no, psi0, n0, rho0, q0)
    rhs = od.compile_rhs(rs, params)
    sgn = rs.direction if direction is None else (1 if direction == "+" else -1)
    try:
        cfg = od.SolverConfig(span=t_end, rtol=rtol, atol=rtol * 1e-2,
                              max_step=_SOLVE_MAX_STEP, direction=sgn,
                              dense_points=200)
    except ValueError as err:  # atol = rtol / 100 underflows to 0
        raise click.BadParameter(str(err), param_hint="--rtol")
    ev = od.default_events(rs, params, blowup_delta=blowup_delta)
    tr = od.integrate(rhs, u0, cfg, ev, rs.start)
    cls = od.classify_trajectory(tr)
    if out:
        _write_csv(out, rs, tr)
        click.echo(f"wrote {len(tr.ts)} samples to {out}")
    tfin, ufin = tr.final()
    reason = tr.event_name
    if tr.termination == "step-failure" and tr.n_steps >= cfg.max_steps:
        reason = f"step budget of {cfg.max_steps} exhausted"
    click.echo(f"termination: {tr.termination}" + (f" ({reason})" if reason else ""))
    click.echo(f"final {rs.independent} = {tfin:.12g}")
    click.echo("final state: " + ", ".join(
        f"{s}={v:.12g}" for s, v in zip(rs.states, ufin)))
    click.echo(f"final v = {math.tanh(ufin[0]):.12g}")
    click.echo(f"classification: {cls}")


def _initial_state(case_no, psi0, n0, rho0, q0):
    # in case 3, alpha at y0 plays the density role; cases 5 and 6 carry
    # theta = q/rho in the last slot
    last = q0 / rho0 if case_no in (5, 6) else q0
    if not math.isfinite(last):
        raise click.BadParameter("theta = q0/rho0 is beyond float range", param_hint="--q0")
    return [psi0, n0, rho0, last]


def _write_csv(path, rs, tr):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([rs.independent, rs.states[0], "v", *rs.states[1:]])
        for t, u in zip(tr.ts, tr.states):
            v = math.tanh(u[0])
            w.writerow([f"{t:.15g}", f"{u[0]:.15g}", f"{v:.15g}",
                        f"{u[1]:.15g}", f"{u[2]:.15g}", f"{u[3]:.15g}"])


# Default study knobs for the critical-velocity searches.  The initial heat
# flux must be seeded away from the invariant q = 0 manifold; the stationary
# family is traversed along its steepening orientation.
CRITICAL_DEFAULTS = {
    1: {"q0": -0.5, "horizon": 50.0, "blowup_delta": 6e-2},
    2: {"q0": -0.1, "horizon": 100.0, "blowup_delta": 6e-2},
}


def critical_run_factory(case_no, theory, params, q0, horizon, blowup_delta):
    """run(v0) integrates the family from psi0 = atanh(v0), n0 = rho0 = 1
    and q0 over the horizon in scaled time, at rtol 1e-8, along run.direction."""
    rs = rd.reduced_system(case_no, theory)
    rhs = od.compile_rhs(rs, params)
    ev = od.default_events(rs, params, blowup_delta=blowup_delta)

    def run(v0: float) -> od.Trajectory:
        psi0 = math.atanh(v0)
        fac = od.scaled_time_factor(params, 1.0, psi0)
        cfg = od.SolverConfig(span=horizon / fac, rtol=1e-8, atol=1e-10,
                              max_step=1e9, direction=rs.direction)
        return od.integrate(rhs, [psi0, 1.0, 1.0, q0], cfg, ev)

    run.direction = rs.direction
    return run


@main.command()
@click.option("--case", "case_no", type=int, required=True)
@click.option("--theory", type=click.Choice(THEORIES), required=True)
@click.option("--lo", type=_VELOCITY, default=0.5, show_default=True)
@click.option("--hi", type=_VELOCITY, default=0.9, show_default=True)
@click.option("--tol", type=_POSITIVE, default=1e-3, show_default=True)
@click.option("--q0", type=_FLOAT, default=None,
              help="Heat-flux seed (default: per-case study value).")
@click.option("--horizon", type=_POSITIVE, default=None,
              help="Classification horizon in scaled time.")
@click.option("--params", "params_file", type=_IN_FILE, default=None)
def critical(case_no, theory, lo, hi, tol, q0, horizon, params_file):
    """Bisect the critical initial velocity of a reduced family."""
    if lo >= hi:
        raise click.UsageError(f"--lo ({lo}) must be below --hi ({hi})")
    params = _params_from_file(params_file, theory)
    defaults = CRITICAL_DEFAULTS.get(case_no)
    if defaults is None:
        raise click.UsageError(f"no critical-velocity protocol for case {case_no}")
    _inside_threshold(lo, defaults["blowup_delta"], "--lo")
    _inside_threshold(hi, defaults["blowup_delta"], "--hi")
    q0 = defaults["q0"] if q0 is None else q0
    horizon = defaults["horizon"] if horizon is None else horizon
    run = critical_run_factory(case_no, theory, params, q0, horizon,
                               defaults["blowup_delta"])
    try:
        res = od.find_critical(run, lo, hi, tol=tol)
    except od.NoBracketError as err:
        click.echo(f"no-bracket error: {err}")
        sys.exit(1)
    except ValueError as err:  # horizon / (4 k N0 / kappa) underflows to 0
        raise click.BadParameter(str(err), param_hint="--horizon")
    click.echo(f"v_c = {res.v_critical:.6f} (bracket [{res.lo:.6f}, {res.hi:.6f}],"
               f" {res.iterations} bisections)")
    click.echo(f"endpoint classifications: lo={res.lo_class}, hi={res.hi_class}")
    click.echo(f"study parameters: q0 = {q0}, horizon = {horizon} scaled,"
               f" orientation = {'+' if run.direction > 0 else '-'}")


@main.command()
@click.option("--theory", type=click.Choice(THEORIES), required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "csv"]), default="text")
def tables(theory, fmt):
    """Commutator and adjoint tables plus the one-dimensional subalgebra
    classification, side by side with the reference list."""
    alg = la.table_algebra(theory)
    for kind in ("commutator", "adjoint"):
        click.echo(f"# {kind} table ({theory})")
        click.echo(_emit_table(alg, kind, fmt))
        click.echo("")
    click.echo("# one-dimensional subalgebra representatives (a real)")
    if theory == "eckart":
        reference = [
            "d_x", "d_t", "V3", "d_t + a*d_x", "V3 + a*V4",
            "V4 + a*d_x + d_t", "V4 + d_x", "V4 + d_t", "V4",
        ]
        canonical = [
            "+-V3 + b*V4 (translations absorbed when the V3 part is nonzero)",
            "+-V1 + a*V2 + d*V4 and +-V2 + d*V4 with d in {-1, 0, 1}",
            "+-V4",
        ]
    else:
        reference = ["d_x", "d_t", "V3", "d_t + a*d_x"]
        canonical = [
            "+-V3 (translations absorbed)",
            "+-V1 + a*V2 and +-V2",
        ]
    click.echo("reference list:")
    for i, r in enumerate(reference, start=1):
        click.echo(f"  {i}) {r}")
    click.echo("canonical families produced by normalize_element:")
    for c in canonical:
        click.echo(f"  - {c}")


def _goldens_dir(override=None):
    if override:
        return Path(override)
    return Path(importlib.resources.files("fluidsym") / "goldens")


def _check_tables(goldens: Path):
    """One failed result per cell that differs from its golden or that its
    golden lacks, then the summary."""
    ok = True
    for theory in THEORIES:
        alg = la.table_algebra(theory)
        cells = {f"V{i + 1},V{j + 1}": (i, j)
                 for i in range(alg.dim) for j in range(alg.dim)}
        for kind, entry in (("commutator", la.commutator_table_entry),
                            ("adjoint", la.adjoint_table_entry)):
            path = goldens / f"{kind}_table_{theory.replace('-', '_')}.txt"
            golden = _entries(path, "--goldens-dir", _key_value(cells))
            found = dict(golden)
            for key, expected in golden + [(k, None) for k in cells if k not in found]:
                got = entry(alg, *cells[key])
                if expected is None or got.replace(" ", "") != expected.replace(" ", ""):
                    shown = "missing" if expected is None else f"'{expected}'"
                    yield (f"{kind} table ({theory}) cell [{key}]", False,
                           f"got '{got}', golden {shown}")
                    ok = False
    yield "commutator/adjoint tables match goldens cell-for-cell", ok, ""


def run_verify_battery(goldens_dir=None):
    """The one-shot verification battery: yields one (name, ok, detail)
    result per check."""
    goldens = _goldens_dir(goldens_dir)
    # 1. symmetry recovery against the computed and the reference bases
    for theory, lam in fluid.THEORY_LAM.items():
        basis = sm.solve_determining(lam)
        stem = theory.replace("-", "_")
        symbolic = fluid.build_system(fluid.FluidParams(k=None, kappa=None, lam=lam))
        certified = all(r.is_zero() for V in basis
                        for r in sm.verify_symmetry(V, symbolic))
        pinned = (_basis_lines(sm.canonical_presentation(basis))
                  == _entries(goldens / f"generator_basis_computed_{stem}.txt",
                              "--goldens-dir", str))
        yield (f"computed basis equals golden and every generator is certified"
               f" exactly at symbolic k, kappa ({theory})", pinned and certified,
               f"equals golden: {pinned}; certified: {certified}")
        golden = _entries(goldens / f"generator_basis_{stem}.txt", "--goldens-dir",
                          sm.field_from_text)
        contains = bool(golden) and all(sm.in_span(g, basis) for g in golden)
        yield (f"symmetry recovery ({theory}) matches reference span",
               sm.span_equal(basis, golden),
               f"computed dim {len(basis)}, reference dim {len(golden)};"
               f" reference span contained: {contains}")
        yield f"reference generators are symmetries ({theory})", contains, ""
    # 2. golden tables
    yield from _check_tables(goldens)
    # 3. solvability
    for theory in THEORIES:
        solvable, order = la.is_solvable(la.table_algebra(theory))
        yield (f"solvability with witness ({theory})", solvable and order is not None,
               f"order {order}")
    # 4. invariants and reduction residuals
    a, t, x, rho = ex.syms("a t x rho")
    case5 = sm.v_dilation() + sm.v_scaling().scale(a)
    yield ("corrected scaling invariant rho*t^-a is annihilated",
           case5.apply(rho * t ** (-a)).is_zero(), "")
    yield ("stated variant rho*t^a fails annihilation (documented discrepancy)",
           not case5.apply(rho * t ** a).is_zero(), "")
    gen4 = sm.v_time() + sm.v_space().scale(a)
    yield ("corrected traveling-wave invariant x - a*t is annihilated",
           gen4.apply(x - a * t).is_zero(), "")
    yield ("stated variant t - a*x fails annihilation for generic a (documented"
           " discrepancy)", not gen4.apply(t - a * x).is_zero(), "")
    for theory in THEORIES:
        for case_no in rd.supported_cases(theory):
            yield (f"reduction residuals are zero (case {case_no}, {theory})",
                   rd.symbolic_check_reduction(case_no, theory)["ok"], "")
    # 5. case-4 closed-form agreement
    params = fluid.FluidParams(lam=Fraction(0))
    ref = rd.closed_form_case4(params, C1=1.0, C2=0.0, y=1.3)
    jets = {f"{nm}_{d}": ref[f"{nm}_y"]  # a = -1: d_t = d_x = d_y
            for nm in fluid.FIELD_NAMES for d in "tx"}
    st = fluid.FluidState(psi=ref["psi"], n=ref["n"], rho=ref["rho"], q=ref["q"])
    worst = max(abs(r) for r in fluid.residual_at(fluid.build_system(params), st, jets))
    yield ("reference closed-form profile satisfies the residuals", worst < 1e-10,
           "max |residual| = %.3e (known defect of the reference formula:"
           " the energy-momentum residuals do not vanish)" % worst)
    # 6. integrator quality
    order = od.convergence_order(lambda t, u: [-u[0]], [1.0], 1.0, [math.exp(-1)])
    yield "integrator observed order >= 3.9", order >= 3.9, f"order {order:.2f}"


@main.command()
@click.option("--goldens-dir", type=click.Path(exists=True, file_okay=False),
              help="Override the golden fixtures directory.")
def verify(goldens_dir):
    """Run the one-shot verification battery (exit 0 only if everything,
    including the documented reference discrepancies, checks out)."""
    try:
        results = list(run_verify_battery(goldens_dir=goldens_dir))
    except FileNotFoundError as err:
        raise click.UsageError(f"missing golden file: {err.filename}")
    except OSError as err:
        raise click.UsageError(f"unreadable golden file: {err.filename}: {err.strerror}")
    lines = [f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else "")
             for name, ok, detail in results]
    for ln in sorted(lines, key=lambda s: s[4:]):
        click.echo(ln)
    passed = all(ok for _, ok, _ in results)
    click.echo("verify: " + ("OK" if passed else "FAILED (see lines above)"))
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
