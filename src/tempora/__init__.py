"""Temporal CHSH correlations of one-bit and one-qubit output machines.

The package scores sequential-measurement CHSH configurations for classical
(Markov / hidden-Markov) and quantum (Kraus-pair) machines, supports an
intermediary acting between the two measurements, and runs reproducible
Monte Carlo sweeps over random machines.
"""
from .algebra import ket2, ket4
from .chsh import (ChshResult, DelaySpec, Machine, PartySpec,
                   chsh_from_correlators, chsh_score, correlator,
                   delayed_chsh_score, expectation_seq,
                   spatial_reference_score)
from .classical import (TransitionPair, hmm_from_params, mm_from_params,
                        prob_vector, validate_classical)
from .errors import (CompletenessError, ConfigError, KindMismatch,
                     OrthonormalityError, ParseError,
                     RangeError, SamplingError, ShapeMismatch, TemporaError,
                     ValidationError)
from .quantum import (KrausPair, kraus_from_dilation, observable_of,
                      projective_kraus, qubit_state, validate_kraus)
from .sampler import (DelayPoint, DelayStats, Histogram, SweepConfig,
                      SweepSummary, histogram_merge, run_delay_sweep,
                      run_sweep, sample_machine)
from .serialize import (MachineFile, delay_csv, delay_result_to_obj,
                        histogram_csv, load_machine_file,
                        machine_file_from_obj, machine_file_to_obj,
                        machine_from_obj, machine_to_obj,
                        result_to_obj, save_machine_file, state_from_obj,
                        state_to_obj)

__version__ = "0.1.0"

__all__ = [
    "ChshResult", "CompletenessError", "ConfigError",
    "DelayPoint", "DelaySpec", "DelayStats", "Histogram", "KindMismatch",
    "KrausPair", "Machine", "MachineFile", "OrthonormalityError",
    "ParseError", "PartySpec", "RangeError", "SamplingError",
    "ShapeMismatch", "SweepConfig", "SweepSummary", "TemporaError",
    "TransitionPair", "ValidationError", "chsh_from_correlators",
    "chsh_score", "correlator", "delay_csv", "delay_result_to_obj",
    "delayed_chsh_score", "expectation_seq", "histogram_csv",
    "histogram_merge", "hmm_from_params", "ket2", "ket4",
    "kraus_from_dilation", "load_machine_file", "machine_file_from_obj",
    "machine_file_to_obj", "machine_from_obj", "machine_to_obj",
    "mm_from_params", "observable_of",
    "prob_vector", "projective_kraus", "qubit_state", "result_to_obj",
    "run_delay_sweep", "run_sweep", "sample_machine", "save_machine_file",
    "spatial_reference_score", "state_from_obj", "state_to_obj",
    "validate_classical", "validate_kraus",
]
