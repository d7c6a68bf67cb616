"""Numerical engine for Dupin submanifolds via Ribaucour transformations."""

from .numerics import TensorGrid, sphere_fit
from .net import (
    ClassMap,
    ImmersionSample,
    ParallelNormalSubbundle,
    PrincipalData,
    Triple,
    attach_subbundle,
    principal_normals_from_triple,
    validate_triple,
)
from .integrable import (
    RibaucourSolution,
    integrate_triple,
    reconstruct_frame,
    solve_B,
    solve_linear,
)
from .ribaucour import (
    NRibaucourResult,
    TransformJet,
    dupin_step,
    n_ribaucour_transform,
    ribaucour_transform,
)
from .verify import dupin_tensor_space, extract_principal_normals, numeric_jet, sf_report

__version__ = "0.1.0"

__all__ = [
    "TensorGrid", "sphere_fit",
    "ClassMap", "ImmersionSample", "ParallelNormalSubbundle", "PrincipalData",
    "Triple", "attach_subbundle", "principal_normals_from_triple", "validate_triple",
    "RibaucourSolution", "integrate_triple", "reconstruct_frame",
    "solve_B", "solve_linear",
    "NRibaucourResult", "TransformJet", "dupin_step", "n_ribaucour_transform",
    "ribaucour_transform",
    "dupin_tensor_space", "extract_principal_normals", "numeric_jet", "sf_report",
]
