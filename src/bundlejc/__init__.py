"""Driven n-photon Jaynes-Cummings model: super-Rabi oscillations, photon
bundle emission, and their correlation functions."""

from .hilbert import SpaceDims, basis_state, fock_annihilation, tls_operator
from .model import (
    DressedData,
    EffectiveTwoLevel,
    JcEigensystem,
    ModelParams,
    at_resonance,
    build_H_I,
    dressed,
    dressed_state,
    jc_eigensystem,
    omega_eff_jc,
    omega_eff_mollow,
    resonance_detuning,
    resonance_detuning_higher,
    resonant_branch,
)
from .dynamics import (
    Liouvillian,
    LiouvillePropagator,
    TrajectoryRecord,
    TruncationError,
    build_liouvillian,
    run_trajectories,
    schrodinger_evolve,
    steady_state,
)
from .observables import (
    dressed_populations,
    g2_bundle_delayed,
    g_equal_time,
    photon_distribution,
    sweep,
    tau_min,
)

__version__ = "0.1.0"
