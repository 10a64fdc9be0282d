"""Driven n-photon Jaynes-Cummings model: super-Rabi oscillations, photon
bundle emission, and their correlation functions."""

from .hilbert import (
    DensityMatrix,
    Operator,
    SpaceDims,
    StateVector,
    basis_state,
    commutator,
    dagger,
    expectation,
    fock_annihilation,
    identity,
    matmul,
    tls_operator,
)
from .model import (
    DressedData,
    EffectiveTwoLevel,
    JcEigensystem,
    ModelParams,
    TransitionTable,
    at_resonance,
    build_H0,
    build_H_I,
    build_H_jc,
    dressed,
    dressed_state,
    frame_map,
    jc_eigensystem,
    omega_eff_jc,
    omega_eff_mollow,
    resonance_detuning,
    resonance_detuning_higher,
    resonant_branch,
    transition_table,
)
from .dynamics import (
    Liouvillian,
    LiouvillePropagator,
    TrajectoryRecord,
    TruncationError,
    build_liouvillian,
    lindblad_evolve,
    mcwf_trajectory,
    run_trajectories,
    schrodinger_evolve,
    steady_state,
    trajectory_average,
)
from .observables import (
    CorrelationCurve,
    dressed_population,
    dressed_populations,
    g2_bundle_delayed,
    g_equal_time,
    photon_distribution,
    sweep,
    tau_min,
)

__version__ = "0.1.0"
