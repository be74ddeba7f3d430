"""Exact comparison of convergence criteria for the variable-assignment LLLL
on bounded-occurrence k-SAT."""

from .bounds import (HarrisVerdict, f_lll, f_mt, gap_inequality, harris_check,
                     harris_ksat_alpha)
from .errors import (CertificationError, DimacsError, DomainError, SatLllError,
                     SizeGuardError)
from .events_graph import (DepGraph, dependency_graph, events_from_formula,
                           lopsidependency_graph)
from .hj_family import (FixedPointReport, HGraph, build_H, build_Hprime, embed_H_in_G,
                        fixed_point_iteration, recurrence_sr, shearer_upper_bound)
from .moser_tardos import RunStats, SelectionRule, run_mt
from .sat_model import Formula, build_extremal_formula, dimacs_export, dimacs_import
from .shearer import ShearerVerdict, independence_polynomial, shearer_check

__version__ = "0.1.0"
