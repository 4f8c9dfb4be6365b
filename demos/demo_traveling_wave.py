"""The traveling-wave reduction (case 4, a = -1): exact quadrature, numeric
integration, and the defect of the commonly quoted closed-form profile."""

import math
from fractions import Fraction

from fluidsym import fluid, odesolve as od, reduction as rd

params = fluid.FluidParams(lam=Fraction(0))
rs = rd.reduced_system(4, "eckart")
rhs = od.compile_rhs(rs, params)

print("the traveling frame reduces the system to a separable flow:")
print("  u = exp(-2 psi) obeys u u' = m u - 2C with m = 2 k N0 / kappa,")
print("  n = N0 exp(psi), rho is constant, q = (m/2 - C/u) * mu-factor.")
print()

psi0, n0, rho0, q0 = 0.3, 1.0, 1.0, 0.1
N0 = n0 * math.exp(-psi0)
m = 2.0 * N0
d0 = rhs(0.0, [psi0, n0, rho0, q0])
u0 = math.exp(-2.0 * psi0)
C = (m * u0 - u0 * (-2.0 * u0 * d0[0])) / 2.0


def quadrature(u):
    return u / m + (2 * C / m ** 2) * math.log(abs(m * u - 2 * C))


cfg = od.SolverConfig(span=3.0, rtol=1e-10, atol=1e-12, max_step=0.05,
                      dense_points=200)
tr = od.integrate(rhs, [psi0, n0, rho0, q0], cfg)
ref = quadrature(u0)
worst = max(abs(quadrature(math.exp(-2 * s[0])) - t - ref)
            for t, s in zip(tr.ts, tr.states))
print(f"integrating the reduced system and checking the exact quadrature "
      f"G(u) - y = const: max defect {worst:.2e}")
print()

print("the frequently quoted tanh-profile fails the energy-momentum "
      "equations; its pointwise residuals:")
sys = fluid.build_system(params)
for y in (1.3, 2.2, 4.0):
    out = rd.closed_form_case4(params, C1=1.0, C2=0.0, y=y)
    jets = {}
    for nm in ("psi", "n", "rho", "q"):
        jets[f"{nm}_t"] = out[f"{nm}_y"]
        jets[f"{nm}_x"] = out[f"{nm}_y"]
    st = fluid.FluidState(psi=out["psi"], n=out["n"], rho=out["rho"],
                          q=out["q"])
    res = fluid.residual_at(sys, st, jets)
    print(f"  y = {y}: particle {res[0]:+.1e}, energy {res[1]:+.2e}, "
          f"momentum {res[2]:+.2e}, heat flow {res[3]:+.2e}")
print("(particle conservation holds; the energy-momentum residuals do not "
      "vanish, so the profile is not an exact solution of the system)")
