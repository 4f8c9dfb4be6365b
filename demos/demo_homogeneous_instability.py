"""Spatially homogeneous runs: the non-relaxing closure blows up from every
seeded state while the relaxing closure returns to equilibrium below a
critical velocity.  Writes trajectory CSVs next to this script.
"""

import csv
import math
from fractions import Fraction
from pathlib import Path

from fluidsym import expr as ex, fluid, odesolve as od, reduction as rd

OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

for theory, lam in (("eckart", Fraction(0)), ("israel-stewart", Fraction(1))):
    params = fluid.FluidParams(lam=lam)
    rs = rd.reduced_system(1, theory)
    rhs = od.compile_rhs(rs, params)
    ev = od.default_events(rs, params, blowup_delta=6e-2)
    print(f"=== {theory}, homogeneous family, q0 = -0.1 ===")
    for v0 in (0.3, 0.5, 0.7, 0.9):
        psi0 = math.atanh(v0)
        fac = od.scaled_time_factor(params, 1.0, psi0)
        cfg = od.SolverConfig(span=50.0 / fac, rtol=1e-8, atol=1e-10,
                              max_step=1e9, dense_points=200)
        tr = od.integrate(rhs, [psi0, 1.0, 1.0, -0.1], cfg, ev)
        cls = od.classify_trajectory(tr)
        v_end = math.tanh(tr.states[-1][0])
        qr = tr.states[-1][3] / tr.states[-1][2]
        print(f"  v0={v0}: {cls:11s} v_end={v_end:+.4f} q/rho={qr:+.4f}")
        path = OUT / f"case1_{theory}_v{v0}.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "psi", "v", "n", "rho", "q"])
            for t, u in zip(tr.ts, tr.states):
                w.writerow([f"{t:.15g}", f"{u[0]:.15g}",
                            f"{math.tanh(u[0]):.15g}", f"{u[1]:.15g}",
                            f"{u[2]:.15g}", f"{u[3]:.15g}"])
    print()

print("conserved quantities of the homogeneous flow (exact first integrals):")
rs = rd.reduced_system(1, "eckart")
for name, e in rs.first_integrals.items():
    print(f"  {name}: {ex.to_text(e)}")
print("the blow-up asymptote q/rho -> -2/3 follows from these: as v -> 1 the")
print("conserved fluxes stay finite only if the heat flux locks to -2/3 of")
print("the energy density.")
