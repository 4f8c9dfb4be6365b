"""Walk through the similarity-reduction catalog with machine verification.

Each supported case is re-derived mechanically (substitute the invariant
ansatz, solve the linear system for the state derivatives) and then checked
by substituting the result back into the full field equations.
"""

from fluidsym import expr as ex, reduction as rd

for theory in ("eckart", "israel-stewart"):
    for case_no in rd.supported_cases(theory):
        rs = rd.reduced_system(case_no, theory)
        rep = rd.symbolic_check_reduction(case_no, theory)
        fi = rd.first_integral_defects(rs)
        print(f"case {case_no} ({theory}): states {rs.states} over "
              f"{rs.independent}; residual check "
              f"{'ZERO' if rep['ok'] else 'NONZERO'}; "
              f"first integrals exact: {all(v.is_zero() for v in fi.values())}")

print()
print("invariant corrections needed to make the scaling case annihilate:")
a = ex.sym("a")
from fluidsym import symmetry as sm
gen5 = sm.v_dilation() + sm.v_scaling().scale(a)
for label, expr in (("rho * t^-a (corrected)", ex.sym("rho") * ex.sym("t") ** (-a)),
                    ("rho * t^a  (as stated)", ex.sym("rho") * ex.sym("t") ** a)):
    res = gen5.apply(expr)
    print(f"  {label}: residual {'0' if res.is_zero() else ex.to_text(res)}")

print()
print("case 3 reduced system in explicit first-order form:")
rs = rd.reduced_system(3, "eckart")
for s in rs.states:
    text = ex.to_text(rs.rhs[s])
    print(f"  d{s}/dy = {text[:100]}{'...' if len(text) > 100 else ''}")
print(f"  first integral: {ex.to_text(rs.first_integrals['particle'])} = const")
