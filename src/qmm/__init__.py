"""Exact symbolic machinery for quantum master identities and Koszul complexes."""

from .free_algebra import Alphabet, NCPoly, TruncSeries, word_rank
from .koszul import (
    KoszulComplex,
    build_complex,
    check_exactness,
    comodule_compat_check,
    composites_vanish,
    euler_characteristic,
)
from .macmahon import (
    CharacterSeries,
    bos_series,
    classical_check,
    ferm_series,
    g_coefficient,
    twisted_bos_series,
    twisted_ferm_series,
    verify_master,
    verify_qdet_coaction,
    verify_twisted,
)
from .param_ring import ModeMismatchError, ParamMode, ParamScalar
from .quantum_spaces import QuantumSpace
from .right_quantum import (
    IdealOracle,
    QMatrix,
    TensorPoly,
    build_relations,
    column_reduce,
    comultiply,
    qdet,
)

__all__ = [
    "Alphabet",
    "CharacterSeries",
    "IdealOracle",
    "KoszulComplex",
    "ModeMismatchError",
    "NCPoly",
    "ParamMode",
    "ParamScalar",
    "QMatrix",
    "QuantumSpace",
    "TensorPoly",
    "TruncSeries",
    "bos_series",
    "build_complex",
    "build_relations",
    "check_exactness",
    "classical_check",
    "column_reduce",
    "comodule_compat_check",
    "composites_vanish",
    "comultiply",
    "euler_characteristic",
    "ferm_series",
    "g_coefficient",
    "qdet",
    "twisted_bos_series",
    "twisted_ferm_series",
    "verify_master",
    "verify_qdet_coaction",
    "verify_twisted",
    "word_rank",
]

__version__ = "0.1.0"
