"""Acceptance gate: one test per shipped claim, one line printed per
criterion.  Run with `pytest -v tests/test_acceptance.py` (add -s to see
the printed lines while passing).  Every criterion also carries its own
wall-clock budget."""

import contextlib
import itertools
import pathlib
import time

import pytest

from grobasin import basinlab
from grobasin.basinlab import (
    SUITES,
    run_divisibility,
    run_et_closure_covers,
    run_prop1,
    run_prop2,
    run_punc_consistency,
    run_torus_calibration,
)
from grobasin.orders import (
    build_poset,
    check_certificate,
    dominance,
    find_certificate,
    leq_et,
    leq_punc,
)
from grobasin.staircase import (
    CellDimensions,
    StandardSet,
    c4_sum,
    cell_dimensions,
    enumerate_staircases,
)

from definitions import leq_punc_via_alg


@contextlib.contextmanager
def _within(seconds, num, label):
    # prints the criterion line only when the body holds and fits the budget
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion {num} exceeded {seconds}s budget"
    print(f"[PASS] criterion {num:02d}: {label} ({elapsed:.2f}s)")


def _edge_set(poset):
    return {
        (poset.elements[i].cols(), poset.elements[j].cols())
        for i, j in poset.covers
    }


ET6_COVERS = {
    ((6,), (5, 1)),
    ((5, 1), (4, 1, 1)),
    ((5, 1), (4, 2)),
    ((4, 1, 1), (3, 2, 1)),
    ((4, 1, 1), (3, 1, 1, 1)),
    ((4, 2), (3, 3)),
    ((4, 2), (3, 1, 1, 1)),
    ((4, 2), (3, 2, 1)),
    ((3, 2, 1), (2, 2, 2)),
    ((3, 2, 1), (2, 1, 1, 1, 1)),
    ((3, 2, 1), (2, 2, 1, 1)),
    ((3, 1, 1, 1), (2, 1, 1, 1, 1)),
    ((3, 1, 1, 1), (2, 2, 1, 1)),
    ((3, 3), (2, 2, 1, 1)),
    ((2, 2, 2), (1, 1, 1, 1, 1, 1)),
    ((2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)),
    ((2, 2, 1, 1), (1, 1, 1, 1, 1, 1)),
}

PUNC6_COVERS = {
    ((6,), (3, 3)),
    ((6,), (5, 1)),
    ((6,), (4, 2)),
    ((5, 1), (3, 2, 1)),
    ((5, 1), (4, 1, 1)),
    ((4, 2), (3, 2, 1)),
    ((4, 2), (4, 1, 1)),
    ((4, 2), (2, 2, 2)),
    ((3, 3), (3, 2, 1)),
    ((3, 2, 1), (3, 1, 1, 1)),
    ((3, 2, 1), (2, 2, 1, 1)),
    ((4, 1, 1), (3, 1, 1, 1)),
    ((4, 1, 1), (2, 2, 1, 1)),
    ((2, 2, 2), (2, 2, 1, 1)),
    ((3, 1, 1, 1), (2, 1, 1, 1, 1)),
    ((2, 2, 1, 1), (2, 1, 1, 1, 1)),
    ((2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)),
}


def test_criterion_01_staircase_counts():
    with _within(1, 1, "staircase enumeration matches the partition numbers"):
        counts = [len(enumerate_staircases(n)) for n in range(1, 11)]
        assert counts == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        for n in range(1, 11):
            sts = enumerate_staircases(n)
            assert len(set(sts)) == len(sts)
            assert all(s.cardinality == n for s in sts)


def test_criterion_02_sum_example():
    with _within(1, 2, "both merge directions reproduce the worked 17 + 16 sum"):
        a = StandardSet.from_columns([4, 3, 3, 3, 3, 1])
        b = StandardSet.from_columns([5, 5, 3, 3])
        assert c4_sum(a, b, 1).cols() == (5, 5, 4, 3, 3, 3, 3, 3, 3, 1)
        assert c4_sum(a, b, 2).rows() == (6, 5, 5, 4, 4, 4, 2, 2, 1)


def test_criterion_03_hasse_diagrams_n6():
    with _within(1, 3, "both n = 6 cover diagrams match the 17-edge lists"):
        et = build_poset(6, "et")
        punc = build_poset(6, "punc")
        assert len(et.elements) == 11 and len(punc.elements) == 11
        assert _edge_set(et) == ET6_COVERS
        assert _edge_set(punc) == PUNC6_COVERS
        for poset in (et, punc):
            k = len(poset.elements)
            minima = [
                i
                for i in range(k)
                if not any(poset.relation[j][i] for j in range(k) if j != i)
            ]
            maxima = [
                i
                for i in range(k)
                if not any(poset.relation[i][j] for j in range(k) if j != i)
            ]
            assert [poset.elements[i].cols() for i in minima] == [(6,)]
            assert [poset.elements[i].cols() for i in maxima] == [
                (1, 1, 1, 1, 1, 1)
            ]


def test_criterion_04_transpose_duality():
    # the row-merge closure at (b^T, a^T), not leq_et, which would run
    # leq_punc's own block search
    with _within(60, 4, "column/row order duality holds for all pairs n <= 10"):
        for n in range(1, 11):
            poset = build_poset(n, "et")
            index = {s: i for i, s in enumerate(poset.elements)}
            for a, b in itertools.product(poset.elements, repeat=2):
                mirrored = poset.relation[index[b.transpose()]][index[a.transpose()]]
                assert leq_punc(a, b) == mirrored


def test_criterion_05_splitting_game_equivalence():
    with _within(120, 5, "splitting game decides the column order for n <= 7"):
        for n in range(1, 8):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                assert leq_punc_via_alg(a, b) == leq_punc(a, b)


def test_criterion_06_orders_refine_dominance():
    with _within(60, 6, "both orders refine dominance for all pairs n <= 8"):
        for n in range(1, 9):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                if leq_et(a, b) or leq_punc(a, b):
                    assert dominance(a, b)


def test_criterion_07_non_example():
    with _within(1, 7, "the separating pair gets the frozen truth quadruple"):
        a = StandardSet.from_columns([3, 2, 1])
        b = StandardSet.from_columns([3, 1, 1, 1])
        assert leq_punc(a, b) is True
        assert leq_et(a, b) is False
        assert dominance(a, b) is True
        assert dominance(b, a) is False


def test_criterion_08_intersections_merge_columns():
    with _within(120, 8, "100/100 axis intersections merged columns"):
        report = run_prop1(100, n_max=8, seed=0)
        assert report.cases_run == 100
        assert report.failures == ()


def test_criterion_09_intersections_merge_rows():
    with _within(120, 9, "100/100 cross-line intersections merged rows"):
        report = run_prop2(100, n_max=8, seed=0)
        assert report.cases_run == 100
        assert report.failures == ()


def test_criterion_10_divisibility():
    with _within(120, 10, "100/100 axis bases pass the x2-divisibility check"):
        report = run_divisibility(100, n_max=8, seed=0)
        assert report.cases_run == 100
        assert report.failures == ()


def test_criterion_11_torus_calibration():
    with _within(120, 11, "100/100 weight -(n+1),-1 limits hit the monomial ideal"):
        report = run_torus_calibration(100, n_max=6, seed=0)
        assert report.cases_run == 100
        assert report.failures == ()


def test_criterion_12_punctual_consistency():
    with _within(180, 12, "100/100 punctual limits are monomial, above the source"):
        report = run_punc_consistency(100, n_max=6, seed=0)
        assert report.cases_run == 100
        assert report.failures == ()


def test_criterion_13_et_closure_on_covers():
    with _within(120, 13, "line collisions realize every row-merging cover, n <= 6"):
        report = run_et_closure_covers(6, seed=0)
        assert report.cases_run == 34
        assert report.failures == ()


def test_criterion_14_cell_dimensions():
    with _within(1, 14, "cell dimensions match the formulas, strictly nested"):
        assert cell_dimensions(StandardSet.from_rows([6])) == CellDimensions(
            7, 6, 0
        )
        assert cell_dimensions(StandardSet([6])) == CellDimensions(12, 6, 5)
        assert cell_dimensions(StandardSet([2, 1])) == CellDimensions(5, 3, 1)
        for n in range(1, 11):
            for s in enumerate_staircases(n):
                d = cell_dimensions(s)
                assert d.lex_dim == n + s.height
                assert d.lin_dim == n
                assert d.punc_dim == n - s.width
                assert d.punc_dim >= 0
                assert d.lex_dim > d.lin_dim > d.punc_dim


def test_criterion_15_certificates():
    with _within(120, 15, "found certificates all verify and imply the filter"):
        found = 0
        for n in range(7):
            sts = enumerate_staircases(n)
            for a, b in itertools.product(sts, sts):
                cert = find_certificate(a, b)
                if cert is None:
                    continue
                found += 1
                assert check_certificate(cert, a, b)
                assert dominance(a, b)
        assert found >= 116


def _golden(name):
    return (pathlib.Path(__file__).parent / "data" / name).read_text()


@pytest.mark.parametrize(
    "num,suite,runner",
    [
        (16, "prop1", run_prop1),
        (17, "prop2", run_prop2),
        (18, "divisibility", run_divisibility),
        (19, "calibration", run_torus_calibration),
        (20, "punc", run_punc_consistency),
    ],
    ids=lambda p: p if isinstance(p, str) else None,
)
def test_criteria_16_to_20_sampler_suites_at_nmax_16(num, suite, runner, monkeypatch):
    # run through the registry, which must dispatch to the suite's runner
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return runner(*args, **kwargs)

    monkeypatch.setattr(basinlab, runner.__name__, counted)
    with _within(10, num, f"{suite} at n_max 16 reproduces its golden report"):
        report = SUITES[suite][0](100, 0, 16)
        assert report.to_json() + "\n" == _golden(f"verify_nmax16_{suite}.json")
    assert len(calls) == 1


@pytest.mark.parametrize(
    "num,suite,n_max",
    [(21, "duality", 12), (22, "refinement", 12), (23, "et-closure", 12), (24, "alg", 10)],
    ids=lambda p: p if isinstance(p, str) else None,
)
def test_criteria_21_to_24_exhaustive_suites(num, suite, n_max):
    runner = SUITES[suite][0]
    with _within(10, num, f"{suite} at n = {n_max} reproduces its golden report"):
        report = runner(100, 0, n_max)
        assert report.to_json() + "\n" == _golden(f"verify_n{n_max}_{suite}.json")


@pytest.mark.parametrize(
    "num,suite",
    [(27, "duality"), (28, "refinement")],
    ids=lambda p: p if isinstance(p, str) else None,
)
def test_criteria_27_28_exhaustive_suites_at_n16(num, suite):
    runner = SUITES[suite][0]
    with _within(10, num, f"{suite} at n = 16 reproduces its golden report"):
        report = runner(100, 0, 16)
        assert report.to_json() + "\n" == _golden(f"verify_n16_{suite}.json")


@pytest.mark.parametrize(
    "num,suite",
    [(25, "punc"), (26, "calibration")],
    ids=lambda p: p if isinstance(p, str) else None,
)
def test_criteria_25_26_sampler_suites_at_nmax_48(num, suite):
    # the golden reports were recorded with the staircase drawn by
    # rng.choice(enumerate_staircases(n)), which lists all p(n) of them
    runner = SUITES[suite][0]
    with _within(10, num, f"{suite} at n_max 48 reproduces its golden report"):
        report = runner(100, 0, 48)
        assert report.to_json() + "\n" == _golden(f"verify_nmax48_{suite}.json")


@pytest.mark.parametrize(
    "num,suite",
    [(29, "prop1"), (30, "prop2"), (31, "divisibility")],
    ids=lambda p: p if isinstance(p, str) else None,
)
def test_criteria_29_to_31_sampler_suites_at_nmax_64(num, suite):
    # prop1 and prop2 intersect comaximal ideals in every trial
    runner = SUITES[suite][0]
    with _within(10, num, f"{suite} at n_max 64 reproduces its golden report"):
        report = runner(100, 0, 64)
        assert report.to_json() + "\n" == _golden(f"verify_nmax64_{suite}.json")


def test_criterion_32_et_closure_at_n16():
    # every cover of the row merging posets up to n = 16: 3380 cases
    runner = SUITES["et-closure"][0]
    with _within(10, 32, "et-closure at n = 16 reproduces its golden report"):
        report = runner(100, 0, 16)
        assert report.to_json() + "\n" == _golden("verify_n16_et-closure.json")
