"""Exact q-deformed Markoff machinery.

Laurent-polynomial matrix products over binary words, Christoffel word
enumeration, cyclotomic evaluation with exact cone classification, the
non-injectivity identity families, Markoff triples, and an exhaustive
collision search.

Importing the package loads none of its modules: each public name below is
imported from its module on first access (PEP 562) and kept, so a command
line run pays only for the modules its command uses.
"""

from importlib import import_module

__version__ = "0.1.0"

#: module -> the public names it defines
_EXPORTS = {
    "cyclotomic": ("ClosureResult", "CycInt", "ResidueReport", "closed_form_mu_zeta6",
                   "cone_of", "entry12_zeta6", "eval_cyclotomic", "evaluate_matrix",
                   "figure2_rows", "monoid_closure", "recover_counts",
                   "residue_relation_check"),
    "identities": ("FAMILIES", "TAU", "alternating_words", "delta", "eta", "eta_prime",
                   "identity1_M_words", "identity1_mu_words", "identity2_M_words",
                   "identity2_mu_words", "partner", "phi", "psi", "verify_family",
                   "verify_identity1_M", "verify_identity1_mu", "verify_identity2_M",
                   "verify_identity2_mu"),
    "laurent": ("LaurentPoly",),
    "markoff": ("MarkoffTriple", "christoffel_entry_values", "markoff_numbers",
                "markoff_numbers_up_to", "triple_children"),
    "qmatrix": ("L_Q", "MU_A", "MU_B", "Q_Q", "Q_Q_INV", "R_Q", "S_MAT", "M_q", "Mat2",
                "QMatrix", "char_poly_scaled_a", "m12_equal", "mu_q", "walk_words"),
    "search": ("Classification", "CollisionGroup", "CollisionReport", "InjectivityReport",
               "PairClassification", "SearchBoundError", "christoffel_injectivity",
               "classify_pair", "collide"),
    "words": ("BINARY", "EXTENDED", "SIGMA", "apply_morphism", "bar", "christoffel_fold",
              "christoffel_tree", "christoffel_words", "is_palindrome", "iter_words",
              "letter_counts", "mirror", "stern_brocot_fraction"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

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


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
