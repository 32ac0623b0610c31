"""Workbench for erasure codes with locality: constructions (sequential
recovery, availability, maximal recoverability), closed-form bound
evaluation, and brute-force finite-field verification.

A failure raises one of ten exception classes, one per kind (docs/schemas.md
lists them), or a plain ValueError for an argument outside its domain."""

from .version import __version__

from .field import (DivideByZero, FieldError, GF, field_make, field_of_size,
                    prime_power, subfield_embedding)
from .matrix import (Mat, MatrixError, columns_independent, mat_nullspace,
                     mat_rank, rref, vandermonde)
from .code import (BudgetExceeded, CodeParams, ConstructionFailed,
                   LinearCode, NotInCatalog, SearchExhausted,
                   code_from_generator, is_mds, min_distance, puncture,
                   support_weight)
from .graphs import (Graph, GraphError, bipartite_regular_girth,
                     edge_color_bipartite, girth, incidence_code,
                     moore_catalog, near_regular_graph, turan_graph)
from .bounds import (BoundError, BoundReport, ClassicalOracle,
                     avail_dmin_bounds, avail_product_tradeoff,
                     avail_rate_bounds, cutset_bound, hamming_type_bound,
                     lr_alphabet_dim_bound, lr_alphabet_dmin_bound,
                     lr_singleton_bound, mbr_point, moore_bound, msr_point,
                     msr_subpkt_bounds, msw_sequence, sa_blocklength_bound,
                     seq_blocklength_bounds, seq_dim_bound_t2,
                     seq_rate_bound)
from .seq_codes import (moore_code, seq_general_code, t2_dim_optimal_code,
                        t2_near_regular_code, t2_turan_code, t3_catalog)
from .lr_codes import (pg_plane_sa_code, product_avail_code, pyramid_code,
                       steiner_sa_code, tamo_barg_code, wang_avail_code)
from .mr_codes import (LocalStructure, mr_r12, mr_r2_coset_search,
                       mr_rdelta2, pmr_general_a1, pmr_parity_split)
from .io import SchemaError
from .verify import (VerifyReport, availability_check,
                     classify_rate_optimal_t2, low_weight_dual_supports,
                     mr_shape_check, pmds_check, pmr_check, sa_check,
                     seq_recovery_check, staircase_check)
