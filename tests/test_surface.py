"""The public surface of the package: every exported name resolves, and the
names only the tests call live in `definitions.py` instead."""

import importlib
import itertools

import pytest

import grobasin
from grobasin.cli import main
from grobasin.staircase import enumerate_staircases

# name -> the module that held it; incidence_filter returned dominance and
# is gone, _punctual_limit gave way to the torus walk, the others are
# definitions the tests check the package against
GONE = {
    "_punctual_limit": "groebner",
    "lex_rows_leq": "orders",
    "lex_cols_geq": "orders",
    "leq_punc_via_alg": "orders",
    "incidence_filter": "orders",
    "et_row_partition": "orders",
    "ideal_product": "groebner",
    "torus_scale": "groebner",
    "lex_compare": "poly",
}


def test_every_exported_name_is_listed_once_and_resolves():
    assert len(grobasin.__all__) == len(set(grobasin.__all__)) == 55
    for name in grobasin.__all__:
        assert getattr(grobasin, name, None) is not None, name


@pytest.mark.parametrize("name, module", sorted(GONE.items()))
def test_names_only_the_tests_call_are_gone(name, module):
    assert name not in grobasin.__all__
    assert not hasattr(grobasin, name)
    assert not hasattr(importlib.import_module(f"grobasin.{module}"), name)


def test_check_filter_answers_as_dominance(capsys):
    # every ordered pair of staircases with at most 6 boxes, sizes mixed
    staircases = [s.to_json() for n in range(7) for s in enumerate_staircases(n)]
    answers = set()
    for a, b in itertools.product(staircases, repeat=2):
        filtered = main(["check", "filter", a, b]), capsys.readouterr()
        dominated = main(["check", "dominance", a, b]), capsys.readouterr()
        assert filtered == dominated, (a, b)
        answers.add(filtered)
    assert len(staircases) == 30
    assert {code for code, _ in answers} == {0, 1}
