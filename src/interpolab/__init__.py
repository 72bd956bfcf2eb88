"""Numerical real-interpolation toolkit.

Computes Peetre K-functionals, norms of limiting interpolation spaces
parameterized by slowly varying weights, and verifies two-sided
K-functional estimates, reiteration reductions, and identities for
grand, small, ultrasymmetric and related concrete function spaces.
"""

from .grid import Grid, GridFunction, RiSpace, full_grid, unit_grid
from .sv import (SvExpr, Const, EllPow, BrokenEll, IteratedEll, ExpLogPow,
                 Product, Power, InverseArg, NormTail, ComposeWithRho, ONE)
from .spaces import (EndpointX0, EndpointX1, ThetaSpace, LSpace, RSpace,
                     LLSpace, RRSpace, Intersection, AppMember, Over, FULL,
                     UNIT, CO_UNIT, check_admissible)
from .kfun import KProfile, k_peetre, norm_in_space, TruncationOracle
from .holmstedt import HolmstedtCase, CASES, holmstedt_rhs, verify_holmstedt
from .reiteration import reiterate, verify_reiteration
from .applications import (GrandLp, SmallLp, UltraLp, LinfQBeta, GGamma,
                           AType, BType, norm_app, scenario_names,
                           get_scenario, verify_identity)
from .report import EquivalenceReport, Row

__version__ = "1.0.0"
