"""Framework kernel: signatures, typing, rewriting, contexts, and the
shipped signature corpus."""

from importlib import resources

from .check import (
    Declaration,
    KernelError,
    NormalizationBudget,
    ParseError,
    Rule,
    ScopeError,
    SigReport,
    Signature,
    TypeCheckError,
    check_signature,
    check_term,
    check_type,
    conv,
    infer_term,
    normalize,
    parse_and_check,
    parse_signature,
    parse_term_text,
    print_signature,
)
from .contexts import (
    apply_subst,
    check_context,
    compose_subst,
    contexts_isomorphic,
    enumerate_contexts,
    enumerate_framework_contexts,
    enumerate_substitutions,
    enumerate_terms,
    enumerate_types,
    identity_subst,
    normalize_subst,
    slice_theory,
    term_pool,
)
from .terms import (
    App,
    Const,
    Lam,
    PiType,
    SortApp,
    Var,
    expr_from_data,
    expr_to_data,
    instantiate_many,
    pretty,
    shift,
    term_size,
)

SHIPPED_SIGNATURES = ("tthg", "itth", "etth1", "itthpi", "tthr1")


def shipped_signature_text(name: str) -> str:
    if name not in SHIPPED_SIGNATURES:
        raise KeyError(f"unknown shipped signature {name!r}")
    return resources.files("rmtt.signatures").joinpath(f"{name}.sig").read_text()


def load_signature(name: str) -> Signature:
    return parse_signature(shipped_signature_text(name))
