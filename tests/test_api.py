"""The public API of ``dcn``: exactly these names, and no test-only helpers.

The package resolves each name on first access; ``tests/test_cli.py`` pins, in
fresh interpreters, which submodules each lookup loads.
"""

import inspect

import pytest

import dcn
import dcn.dihedral
import dcn.grammar
import dcn.moment_graph
import dcn.neighborhood
import dcn.oracle
from launch import probe

MODULES = [dcn.dihedral, dcn.grammar, dcn.moment_graph, dcn.neighborhood, dcn.oracle]

PUBLIC = [
    "COEFFICIENT_BOUND",
    "Chain",
    "ChainStep",
    "CoefficientRangeError",
    "Degree",
    "DiffReport",
    "Generator",
    "GroupElement",
    "IDENTITY",
    "Mismatch",
    "ParseError",
    "Root",
    "Word",
    "ZERO_DEGREE",
    "ad_set",
    "canonical_key",
    "chain_lines",
    "curve_neighborhood",
    "curve_neighborhood_oracle",
    "differential_check",
    "enumerate_chains",
    "enumerate_up_to_length",
    "explicit_length",
    "format_degree",
    "format_element",
    "format_element_set",
    "format_report",
    "format_word",
    "graph_slice",
    "inverse",
    "maximal_elements",
    "mul",
    "parse_degree",
    "parse_element",
    "phi",
    "r",
    "reachable_set",
    "reduced_word",
    "root_of_reflection",
    "root_reflection",
    "roots_bounded",
    "sort_elements",
    "sr",
    "to_dot",
]

# Helpers only the tests use; they live in tests/reference.py, except
# LemmaViolationError: the reference witnesses raise a plain ValueError.
TEST_ONLY = [
    "LemmaViolationError",
    "NeighborhoodResult",
    "alternating_word",
    "chain_parity_witness",
    "degrees_up_to",
    "format_chain",
    "gamma_by_hecke",
    "halved_gap",
    "has_increasing_chain",
    "hecke_product",
    "is_edge",
    "is_left_descent",
    "neighborhood_result",
    "parity_witness",
    "parse_chain_line",
    "successors",
    "word_product",
    "words_up_to_length",
]

# Names the package used to export and no package code called; deleted outright.
DELETED = ["bruhat_le", "bruhat_lt", "embed"]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 44
    assert sorted(dcn.__all__) == PUBLIC


def test_every_public_name_resolves():
    assert [name for name in PUBLIC if not hasattr(dcn, name)] == []


# Each in a fresh interpreter, where no name is resolved yet.
def test_star_import_binds_every_public_name():
    status, bound, err, _ = probe("from dcn import *; print(*[n for n in dir() if n[:2] != '__'])")
    assert (status, err, sorted(bound.split())) == (0, "", PUBLIC)


def test_dir_lists_the_public_names_and_the_modules():
    status, listed, err, _ = probe("import dcn; print(*dir(dcn))")
    assert (status, err) == (0, "")
    assert [name for name in [*PUBLIC, "dihedral", "neighborhood", "moment_graph", "grammar", "oracle"]
            if name not in listed.split()] == []


def test_a_name_resolves_to_its_module_value_and_is_cached():
    value = dcn.__getattr__("curve_neighborhood")
    assert value is dcn.neighborhood.curve_neighborhood
    assert vars(dcn)["curve_neighborhood"] is value


def test_a_module_resolves_through_the_package():
    assert [dcn.__getattr__(m.__name__.split(".")[1]) for m in MODULES] == MODULES


def test_an_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="^module 'dcn' has no attribute 'no_such_name'$"):
        dcn.no_such_name
    assert "no_such_name" not in vars(dcn)


def test_test_only_helpers_are_not_in_the_package():
    modules = [dcn, *MODULES]
    found = [f"{m.__name__}.{name}" for m in modules for name in TEST_ONLY if hasattr(m, name)]
    assert found == []


def test_deleted_names_are_not_in_the_package():
    found = [f"{m.__name__}.{name}" for m in [dcn, *MODULES] for name in DELETED if hasattr(m, name)]
    assert found == []
    # Nor does a root convert itself: it equals, and orders against, the Degree(*root).
    assert not hasattr(dcn.Root, "to_degree")


def test_every_public_function_and_class_has_a_docstring():
    values = [getattr(dcn, name) for name in PUBLIC]
    undocumented = [
        value.__name__ for value in values
        if (inspect.isfunction(value) or inspect.isclass(value)) and not (value.__doc__ or "").strip()
    ]
    assert undocumented == []


def test_each_module_defines_the_names_in_its_all():
    missing = [f"{m.__name__}.{name}" for m in MODULES for name in m.__all__ if name not in vars(m)]
    assert missing == []


def test_the_module_lists_are_disjoint_and_make_up_the_package_list():
    names = [name for m in MODULES for name in m.__all__]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(dcn.__all__)
