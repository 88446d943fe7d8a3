"""Windowed encodings: how spreading the qubit over a few sites helps.

Run: python3 demos/02_windowed_encoding.py
"""

from spintransfer import (best_excitation_count, eigendecompose, fidelity_haselgrove,
                          fidelity_multi, fidelity_single, first_peak_time, optimal_encoding,
                          uniform_chain)

chain = uniform_chain(51)
t0, f_bare = first_peak_time(chain)
eig = eigendecompose(chain)
print(f"uniform N=51 at its first peak (t = {t0:.3f}): bare fidelity {f_bare:.4f}")

print("\nwindow size vs best single-excitation fidelity:")
for k in (1, 2, 3, 5, 8, 12):
    sol = optimal_encoding(eig, k, k, t0)
    lam = sol.singular_values
    print(f"  {k:2d} sites: lambda_1 = {lam[0]:.4f} -> F = {fidelity_single(min(lam[0], 1.0)):.4f}"
          + (f"   (lambda_2 = {lam[1]:.4f})" if lam.size > 1 else ""))

print("\nthe 5-site optimal input state (real amplitudes up to the fixed gauge):")
sol = optimal_encoding(eig, 5, 5, t0)
for site, amp in zip(sol.input_sites, sol.input_vectors[0]):
    print(f"  site {site}: {amp.real:+.4f} {amp.imag:+.4f}i")

print("\nmulti-excitation formulas on the 5-site window's singular values:")
lams = sol.singular_values
print(f"  one excitation:        {fidelity_single(lams[0]):.6f}")
print(f"  all five, enhanced:    {fidelity_multi(lams):.6f}")
print(f"  all five, product-only:{fidelity_haselgrove(lams):.6f}")
n_opt, f_opt = best_excitation_count(lams)
print(f"  best excitation count: {n_opt} (F = {f_opt:.6f})")

print("\nwhere multi-excitation encoding can win at all (equal strengths):")
for lam in (0.25, 0.30, 0.35, 0.41):
    f1 = fidelity_single(lam)
    crossing = next((n for n in range(2, 40) if fidelity_multi([lam] * n) > f1), None)
    print(f"  lambda = {lam:.2f}: first winning count = {crossing}")
print("the minimum over lambda is 13 excitations, always below the 2/3 threshold")
