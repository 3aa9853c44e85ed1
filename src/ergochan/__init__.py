"""Numerics for iterated quantum operations.

Channels are given in Kraus form; the package verifies the channel
axioms, computes fixed spaces and peripheral spectra, builds the
spectral decomposition of the iterates, and certifies the geometric
decay of the stable remainder.
"""

__version__ = "0.1.0"

from .channel import (  # noqa: F401
    KrausChannel,
    VerificationReport,
    apply,
    apply_adjoint,
    apply_n,
    choi,
    choi_from_superoperator,
    kraus_sum,
    superoperator,
    transpose_superoperator,
    verify,
)
from .catalog import (  # noqa: F401
    f_recursion,
    f_recursion_exact,
    ladder_channel,
    ladder_fixed_projector,
    ladder_stable_radius,
    parity_fock_channel,
    parity_iterate_expected,
    pauli_decomposition_expected,
    pauli_xy_channel,
    shift_channel,
)
from .ergodic import (  # noqa: F401
    DecayFit,
    FixedSpaceBasis,
    PeripheralDecomposition,
    cesaro_average,
    decay_fit,
    fixed_space,
    fixed_space_intersection,
    hs_fixed_point_symmetry,
    peripheral_decomposition,
    peripheral_spectrum,
    peripheral_unitarity_check,
    power_iterate,
    reconstruct_iterate,
    spectral_projectors,
    splitting_check,
    stable_part,
)
