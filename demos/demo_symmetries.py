"""Compute the point-symmetry algebra of both fluid closures from scratch.

The symmetry condition of a polynomial-ansatz generator, with the time
derivatives eliminated by the quasilinear solved form, is evaluated at
random integer points modulo a 61-bit prime.  The nullspace of those rows
mod the prime is lifted to rationals, and each vector is certified exactly
at symbolic conductivity and Boltzmann constant; the certified vectors span
the symmetry algebra.
"""

from fractions import Fraction

from fluidsym import fluid, symmetry as sm

for theory, lam in (("eckart", Fraction(0)), ("israel-stewart", Fraction(1))):
    print(f"=== {theory} (lam = {lam}) ===")
    basis = sm.canonical_presentation(sm.solve_determining(lam))
    print(f"point-symmetry algebra is {len(basis)}-dimensional:")
    for i, V in enumerate(basis, start=1):
        print(f"  V{i} = {V.text()}")
    print()

print("The two algebras coincide: the space-time dilatation and the Lorentz")
print("boost are symmetries of both closures.  Machine verification with")
print("symbolic conductivity and Boltzmann constant:")
sys_sym = fluid.build_system(fluid.FluidParams(k=None, kappa=None, lam=Fraction(1)))
for name, V in (("dilatation", sm.v_dilation()),
                ("lorentz boost", sm.v_lorentz_boost()),
                ("rapidity shift (negative control)", sm.v_rapidity_shift())):
    res = sm.verify_symmetry(V, sys_sym)
    verdict = "symmetry" if all(r.is_zero() for r in res) else "NOT a symmetry"
    print(f"  {name:36s}: {verdict}")
