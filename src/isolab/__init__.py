"""isolab: a numerical laboratory for isoparametric hypersurfaces in spheres.

Constructs the classical families from their defining homogeneous
polynomials and certifies their structure numerically: the defining PDE
pair, principal-curvature spectra, focal spacing, and critical-point counts
of spherical distance functions (tightness of the hypersurfaces, tautness of
the focal submanifolds).
"""

from ._kernels_py import backend_name
from .errors import (ClusteringError, ConvergenceError, FamilyIntegrityError,
                     FamilyRejectedError, FocalCrossingError,
                     FocalDegeneracyError, InputContractError, IsolabError,
                     MeshExportError, NearFocalPoleError, PoleIsFocalError,
                     SamplingError, StartAtFocalError, StereographicPoleError)
from .polynomial import CMPolynomial
from .sphere import (SpherePoint, TangentFrame, geodesic, normal_exponential,
                     spherical_distance, stereographic, stereographic_inverse,
                     tangent_basis)
from .families import (CATALOG_LABELS, IsoparametricFamily, catalog,
                       family_from_json, family_from_json_obj, family_to_json,
                       family_to_json_obj, munzner_residuals, restrict_V,
                       verify_munzner)
from .levelset import (SurfacePoint, project_to_level, sample_points,
                       spherical_gradient, surface_point)
from .shape import (PrincipalSpectrum, isoparametric_check,
                    parallel_transport_curvature, principal_curvatures,
                    shape_operator)
from .focal import (FocalPoint, exp_param_check, focal_dimension_estimate,
                    focal_points_along_normal)
from .morse import (CriticalPoint, TightnessReport, critical_points_newton,
                    focal_tautness_report, index_via_focal_count,
                    normal_circle_critical_points, tightness_report,
                    totally_focal_probe)
from .cartan_orbit import OrbitParams, orbit_level_check, orbit_point
from .export import euclidean_taut_spot_check, export_mesh

__version__ = "0.1.0"

__all__ = [
    "CMPolynomial", "SpherePoint", "TangentFrame", "IsoparametricFamily",
    "SurfacePoint", "PrincipalSpectrum", "FocalPoint", "CriticalPoint",
    "TightnessReport", "OrbitParams", "CATALOG_LABELS",
    "backend_name", "geodesic", "spherical_distance", "normal_exponential",
    "stereographic", "stereographic_inverse", "tangent_basis",
    "catalog", "munzner_residuals", "verify_munzner", "restrict_V",
    "family_to_json", "family_from_json",
    "spherical_gradient", "project_to_level", "sample_points", "surface_point",
    "shape_operator", "principal_curvatures", "parallel_transport_curvature",
    "isoparametric_check",
    "focal_points_along_normal", "exp_param_check", "focal_dimension_estimate",
    "critical_points_newton", "normal_circle_critical_points",
    "index_via_focal_count", "tightness_report", "focal_tautness_report",
    "totally_focal_probe",
    "orbit_point", "orbit_level_check",
    "export_mesh", "euclidean_taut_spot_check",
    "IsolabError", "InputContractError", "StereographicPoleError",
    "FamilyIntegrityError", "FamilyRejectedError", "StartAtFocalError",
    "SamplingError", "FocalDegeneracyError", "ClusteringError",
    "FocalCrossingError", "PoleIsFocalError", "NearFocalPoleError",
    "ConvergenceError", "MeshExportError",
]
