"""Cesaro averages converge to the spectral projectors at rate O(1/n).

A_n(L/lambda) = (1/n) sum_{i<=n} (L/lambda)^i tends to the projector
onto the lambda-eigenspace.  This is the constructive route the package
uses to cross-check the projectors built from the kernels of L - lambda.
"""

from ergochan import (
    cesaro_average,
    pauli_decomposition_expected,
    pauli_xy_channel,
    superoperator,
)
from ergochan.linalg import operator_norm

p = 0.3
L = superoperator(pauli_xy_channel(p))
expected = pauli_decomposition_expected(p)

for lam, P in zip(expected.lambdas, expected.projectors):
    print(f"\nlambda = {lam}")
    print("      n     ||A_n - P||      n * ||A_n - P||")
    for n in (100, 1000, 10000):
        resid = operator_norm(cesaro_average(L, lam, n) - P)
        print(f"{n:7d}     {resid:.3e}        {n * resid:.3f}")
print("\nn * residual stays bounded: O(1/n) convergence as predicted.")
