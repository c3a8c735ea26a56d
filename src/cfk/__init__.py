"""Knot concordance invariants from finitely generated bifiltered complexes.

The package computes tau, nu, nu+, epsilon, the V/H correction-term
sequences, hat-flavor homology ranks, d-invariants of positive rational
surgeries, and the 4-ball genus bounds they imply.  Complexes come from
a small expression language (torus knots, L-space cables, mirrors,
connected sums) or from `.cfk` files.
"""
from .complexes import (BifilteredComplex, DiffTerm, Generator, Violation,
                        dual, staircase, tensor, unknot_complex, validate)
from .errors import (CfkError, ExprSemanticError, ExprSyntaxError,
                     FormatError, KnotTypeError, NoConstructorError,
                     PreconditionError, ValidationError)
from .expr import build_complex, parse, to_text
from .cfkfile import dumps, loads, read_complex, write_complex
from .invariants import (H, V, epsilon, hfk_hat, nu, nu_plus, seifert_genus,
                         tau)
from .surgery import (CableBounds, GenusReport, SignatureValue, SurgerySpec,
                      cable_nu_plus_bounds, cable_tau, d_invariants,
                      genus_report, lens_d, qa_nu_plus, signature_eval,
                      surgery_d)

__version__ = "0.1.0"

__all__ = [
    "BifilteredComplex", "DiffTerm", "Generator", "Violation",
    "dual", "staircase", "tensor", "unknot_complex", "validate",
    "CfkError", "ExprSemanticError", "ExprSyntaxError", "FormatError",
    "KnotTypeError", "NoConstructorError", "PreconditionError",
    "ValidationError",
    "build_complex", "parse", "to_text",
    "dumps", "loads", "read_complex", "write_complex",
    "H", "V", "epsilon", "hfk_hat", "nu", "nu_plus", "seifert_genus", "tau",
    "CableBounds", "GenusReport", "SignatureValue", "SurgerySpec",
    "cable_nu_plus_bounds", "cable_tau", "d_invariants", "genus_report",
    "lens_d", "qa_nu_plus", "signature_eval", "surgery_d",
    "__version__",
]
