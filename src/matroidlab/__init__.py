"""matroidlab: rank-oracle matroid computations over small finite fields.

Finite-field tables, linear/uniform/explicit matroids behind one rank-oracle
interface, projective geometries and their recognizer, line-minor search
with replayable certificates, density extraction procedures, and a census
harness with brute-force cross-checks.
"""

__version__ = "0.1.0"

from .bitset import bits, mask_of, popcount
from .certificates import (ContractionLine, HyperplanePairCover, MinorEmbedding,
                           Partition, certificate_from_dict, certificate_to_dict,
                           verify_certificate)
from .core import (DirectSum, ExplicitMatroid, LinearMatroid, Matroid,
                   MinorView, UniformMatroid)
from .field import FieldSpec, field_make, is_prime_power
from .geometry import (PgReport, geometric_series_sum, is_projective_geometry,
                       pg, subfield_subgeometry, theta)
from .matrixio import emit_matrix, parse_matrix
from .minors import (ABSENT, FOUND, UNKNOWN, LineMinorResult, MinorOutcome,
                     find_pg_minor, find_pg_restriction, has_u2n_minor,
                     max_line_minor, minor_isomorphic)
from .procedures import (DensityTarget, GrowthPolicy, RoundDenseOutcome,
                         gap_check, largest_prime_power_leq,
                         line_from_line_and_plane, prime_powers_up_to,
                         round_dense_restriction, round_restriction,
                         skew_dense_subset)

__all__ = [name for name in dir() if not name.startswith("_")]
