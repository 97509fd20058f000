"""Block-encoding circuits from Dicke-state preparation and a check-matrix
SELECT oracle, with exact statevector verification and gate accounting."""

from .baseline import generic_state_prep, standard_lcu
from .circuit import (
    BlockEncoding,
    Circuit,
    CountReport,
    Gate,
    compose,
    control,
    count,
    dagger,
    export_lowered,
    export_qasm,
    lower,
    parse_qasm,
)
from .dicke import (
    AmplitudeList,
    DickeAngles,
    balanced_thetas,
    cnot_chain,
    elementwise_copy,
    prepare_dicke1,
    prepare_dicke1_unbalanced,
    prepare_dicke2k,
    prepare_double,
    staircase,
    unbalanced_angles,
)
from .encoder import (
    CoefficientMatrix,
    generic_foqcs,
    heisenberg_encoding,
    heisenberg_pr,
    select_oracle,
    spin_glass_encoding,
    spin_glass_pr,
    twobody_subroutine,
)
from .errors import DomainError, ResourceGuardError
from .models import (
    HeisenbergParams,
    SpinGlassParams,
    heisenberg_hamiltonian,
    spin_glass_hamiltonian,
)
from .pauli import (
    CheckTerm,
    PauliSum,
    PauliTerm,
    check_decompose,
    hamiltonian_matrix,
    one_norm,
    pauli_to_checkpair,
    success_probability,
)
from .report import Prediction, predict, sweep
from .sim import BlockReport, StateVector, assert_state, extract_block, simulate

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
