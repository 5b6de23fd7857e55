"""Exact q-deformed Markoff machinery.

Laurent-polynomial matrix products over binary words, Christoffel word
enumeration, cyclotomic evaluation with exact cone classification, the
non-injectivity identity families, Markoff triples, and an exhaustive
collision search.
"""

__version__ = "0.1.0"

from .cyclotomic import (ClosureResult, CycInt, ResidueReport,
                         closed_form_mu_zeta6, cone_of, entry12_zeta6,
                         eval_cyclotomic, evaluate_matrix, figure2_rows,
                         monoid_closure, recover_counts, residue_relation_check)
from .identities import (FAMILIES, TAU, alternating_words, delta, eta,
                         eta_prime, identity1_M_words, identity1_mu_words,
                         identity2_M_words, identity2_mu_words, partner, phi,
                         psi, verify_family, verify_identity1_M,
                         verify_identity1_mu, verify_identity2_M,
                         verify_identity2_mu)
from .laurent import LaurentPoly
from .markoff import (MarkoffTriple, christoffel_entry_values, markoff_numbers,
                      markoff_numbers_up_to, triple_children)
from .qmatrix import (L_Q, MU_A, MU_B, Q_Q, Q_Q_INV, R_Q, S_MAT, M_q, Mat2,
                      QMatrix, char_poly_scaled_a, m12_equal, mu_q, walk_words)
from .search import (Classification, CollisionGroup, CollisionReport,
                     InjectivityReport, PairClassification, SearchBoundError,
                     christoffel_injectivity, classify_pair, collide)
from .words import (BINARY, EXTENDED, SIGMA, apply_morphism, bar,
                    christoffel_fold, christoffel_tree, christoffel_words,
                    is_palindrome, iter_words, letter_counts, mirror,
                    stern_brocot_fraction)

__all__ = [
    "BINARY", "EXTENDED", "SIGMA", "TAU",
    "LaurentPoly", "Mat2", "QMatrix", "CycInt", "walk_words",
    "L_Q", "R_Q", "Q_Q", "Q_Q_INV", "S_MAT", "MU_A", "MU_B",
    "M_q", "mu_q", "m12_equal", "char_poly_scaled_a",
    "mirror", "bar", "is_palindrome", "apply_morphism", "letter_counts",
    "christoffel_words", "christoffel_tree", "christoffel_fold",
    "stern_brocot_fraction", "iter_words",
    "eval_cyclotomic", "evaluate_matrix", "closed_form_mu_zeta6", "entry12_zeta6",
    "cone_of", "recover_counts", "monoid_closure", "ClosureResult",
    "residue_relation_check", "ResidueReport", "figure2_rows",
    "partner", "phi", "psi", "eta", "eta_prime", "delta", "alternating_words",
    "FAMILIES", "verify_family", "verify_identity1_M", "verify_identity1_mu",
    "verify_identity2_M", "verify_identity2_mu",
    "identity1_M_words", "identity1_mu_words",
    "identity2_M_words", "identity2_mu_words",
    "MarkoffTriple", "triple_children", "markoff_numbers",
    "markoff_numbers_up_to", "christoffel_entry_values",
    "collide", "classify_pair", "christoffel_injectivity",
    "Classification", "CollisionGroup", "CollisionReport",
    "PairClassification", "InjectivityReport", "SearchBoundError",
]
