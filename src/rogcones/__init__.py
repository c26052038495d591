"""rogcones: rank-one-generated spectrahedral cones.

Construction of certified cone families (block-Hankel, chordal-pattern,
codimension-1, the ternary-quartic moment cone, a projective gluing
family, complex block-Toeplitz) and the three combinators (direct sums,
full extensions, intertwinings); rank-1 decomposition with atom count
equal to the matrix rank; congruence reconstruction between linearly
isomorphic cones; a small-degree classifier; and exactness certification
for SDP relaxations of homogeneous QCQPs.
"""

from .cone_model import (ConeExpr, FaceHandle, SpectrahedralCone,
                         apply_congruence, certificate_complete, degree,
                         dimension, interior_element, is_nondegenerate,
                         isolated_rays, make_cone, membership,
                         reduce_nondegenerate, simplicity_partition)
from .constructions import (ChordalGraph, GlueSpec, block_toeplitz_cone,
                            build, chordal_cone, codim1_cone,
                            cross_ratio_cone, diagonal_cone, direct_sum,
                            full_extension, full_psd_cone, hankel_cone,
                            intertwine, moment_cone_from_samples, rank1_glue,
                            ternary_quartic_cone, tridiagonal_cone)
from .decompose import (Decomposition, RankOneAtom, carath_decompose,
                        decompose, decompose_block_toeplitz,
                        decompose_full_extension, decompose_hankel,
                        decompose_intertwining, extreme_ray_oracle,
                        face_of, random_extreme_ray)
from .errors import (InvalidInputError, MissingCertificateError,
                     NumericalError, OracleUnavailableError)
from .isomorph import (IsoOutcome, IsoWitness, PartialMatrix,
                       Rank1Completion, cones_isomorphic, cross_ratio,
                       rank1_complete, rank1_complete_signs,
                       same_s4_orbit)
from .pencil_struct import (ClassLabel, Pencil, PencilBlock,
                            PencilDecomposition, classify_small,
                            pencil_decompose, rank2_extreme_check,
                            split_vector)
from .qcqp_relax import (ExactnessCertificate, QcqpProblem, SdpSolution,
                         certify_exactness, induced_cone, solve_relaxation)
from .symlin import (EigDecomp, eig_sym, numeric_rank, pseudo_inverse,
                     psd_check, sym_matrix)

__version__ = "0.1.0"
