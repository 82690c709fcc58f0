import json
import pathlib
import random
import time
from fractions import Fraction

import pytest

from grobasin import basinlab
from grobasin.basinlab import (
    SUITES,
    BasinSampleSpec,
    ExperimentReport,
    SamplingError,
    run_divisibility,
    run_et_closure,
    run_et_closure_covers,
    run_prop1,
    run_prop2,
    run_punc_consistency,
    run_single_column_density,
    run_torus_calibration,
    sample_basin_ideal,
)
from grobasin import groebner
from grobasin.cli import main
from grobasin.groebner import (
    monomial_ideal,
    normal_form,
    reduced_groebner_basis,
    substitute,
    supported_at_origin,
    supported_on_line,
    tall_point_ideal,
    vanishing_ideal,
)
from grobasin.orders import SplitQuadruple, build_poset, figure_alg
from grobasin.poly import Polynomial, parse_polynomial
from grobasin.staircase import StandardSet, enumerate_staircases


TARGET = StandardSet([3, 1])


def radical_contains_level(gb_elements, n, level):
    # support lies on the line x2 = level iff (x2 - level)^n reduces to zero
    shifted = (parse_polynomial("x2") - Polynomial.constant(level)) ** n
    return normal_form(shifted, list(gb_elements)).is_zero()


def is_origin_supported(gb_elements, n):
    for i in range(n + 1):
        mono = Polynomial.monomial((i, n - i))
        if not normal_form(mono, list(gb_elements)).is_zero():
            return False
    return True


class TestSpecValidation:
    def test_unknown_support(self):
        with pytest.raises(ValueError):
            BasinSampleSpec(target=TARGET, support_constraint="diagonal")

    def test_line_only_for_horizontal(self):
        with pytest.raises(ValueError):
            BasinSampleSpec(target=TARGET, support_constraint="origin", line=2)
        with pytest.raises(ValueError):
            BasinSampleSpec(target=TARGET, support_constraint="horizontal_line")

    def test_line_must_be_exact(self):
        # 0.1 would put the support on x2 = 3602879701896397/36028797018963968
        with pytest.raises(ValueError, match="^line must be exact, not the float 0.1$"):
            BasinSampleSpec(TARGET, "horizontal_line", line=0.1)
        assert BasinSampleSpec(TARGET, "horizontal_line", line="1/10").line == "1/10"

    def test_empty_target(self):
        with pytest.raises(ValueError):
            BasinSampleSpec(target=StandardSet())


class TestSamplerContracts:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_origin(self, seed):
        ideal = sample_basin_ideal(
            BasinSampleSpec(target=TARGET, support_constraint="origin", seed=seed)
        )
        gb = reduced_groebner_basis(ideal)
        assert gb.staircase == TARGET
        assert is_origin_supported(gb.elements, TARGET.cardinality)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_axis(self, seed):
        ideal = sample_basin_ideal(
            BasinSampleSpec(target=TARGET, support_constraint="x1_axis", seed=seed)
        )
        gb = reduced_groebner_basis(ideal)
        assert gb.staircase == TARGET
        assert radical_contains_level(gb.elements, TARGET.cardinality, 0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_horizontal_line(self, seed):
        level = Fraction(-3, 2)
        ideal = sample_basin_ideal(
            BasinSampleSpec(
                target=TARGET,
                support_constraint="horizontal_line",
                line=level,
                seed=seed,
            )
        )
        gb = reduced_groebner_basis(ideal)
        assert gb.staircase == TARGET
        assert radical_contains_level(gb.elements, TARGET.cardinality, level)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_free(self, seed):
        ideal = sample_basin_ideal(
            BasinSampleSpec(target=TARGET, support_constraint="free", seed=seed)
        )
        assert reduced_groebner_basis(ideal).staircase == TARGET

    def test_single_box_target(self):
        ideal = sample_basin_ideal(
            BasinSampleSpec(target=StandardSet([1]), support_constraint="origin", seed=5)
        )
        gb = reduced_groebner_basis(ideal)
        assert gb.staircase == StandardSet([1])

    def test_deterministic_per_seed(self):
        spec = BasinSampleSpec(target=TARGET, support_constraint="x1_axis", seed=13)
        assert sample_basin_ideal(spec).generators == sample_basin_ideal(
            spec
        ).generators

    def test_seeds_reach_distinct_ideals(self):
        seen = {
            sample_basin_ideal(
                BasinSampleSpec(target=TARGET, support_constraint="origin", seed=seed)
            ).generators
            for seed in range(5)
        }
        assert len(seen) > 1


class TestRejectionBudget:
    """The origin sampler gives up once more than MAX_REJECTIONS candidates
    have left the target's basin; the axis sampler draws one spread and
    raises if it leaves the basin."""

    def test_origin_sampler_gives_up(self, monkeypatch):
        # seed 3's first substitution on cols(1, 1) leaves the basin, and a
        # later one is taken within the usual budget
        target = StandardSet([1, 1])
        sample = basinlab._origin_sample(target, random.Random(3))
        assert groebner.staircase_of(sample) == target
        monkeypatch.setattr(basinlab, "MAX_REJECTIONS", 0)
        with pytest.raises(
            SamplingError, match=r"^no basin sample for cols\(1, 1\) within budget$"
        ):
            basinlab._origin_sample(target, random.Random(3))

    @pytest.mark.parametrize("budget", [0, 1, 3])
    def test_axis_sampler_gives_up(self, monkeypatch, budget):
        # every spread of origin samples along the x1-axis lands in the
        # target's basin (prop1), so the off-target spread is forced here;
        # one is enough, as the sampler does not draw again, whatever the
        # origin sampler's MAX_REJECTIONS
        spreads = []

        def off_target(*args):
            spreads.append(args)
            return groebner.monomial_ideal(StandardSet([3]))

        monkeypatch.setattr(basinlab, "_spread", off_target)
        monkeypatch.setattr(basinlab, "MAX_REJECTIONS", budget)
        with pytest.raises(
            SamplingError, match=r"^axis sample for cols\(2, 1\) left its basin$"
        ):
            basinlab._axis_sample(StandardSet([2, 1]), random.Random(0))
        assert len(spreads) == 1

    def test_axis_sampler_lands_with_one_spread(self, monkeypatch):
        # prop1: the single spread lands on the target for every staircase
        # of 2 to 7 boxes at seeds 0 to 4
        spread = basinlab._spread
        calls = []

        def counted(*args):
            calls.append(args)
            return spread(*args)

        monkeypatch.setattr(basinlab, "_spread", counted)
        draws = 0
        for n in range(2, 8):
            for target in enumerate_staircases(n):
                for seed in range(5):
                    calls.clear()
                    sample = basinlab._axis_sample(target, random.Random(seed))
                    assert len(calls) == 1, (target.cols(), seed)
                    assert groebner.staircase_of(sample) == target
                    draws += 1
        assert draws == 215


class TestStaircaseDraw:
    @pytest.mark.parametrize("n", range(21))
    def test_matches_a_choice_from_the_full_list(self, n):
        # the same staircase, and the rng left where rng.choice leaves it
        staircases = enumerate_staircases(n)
        for seed in range(30):
            drawn, listed = random.Random(seed), random.Random(seed)
            assert basinlab._random_staircase(drawn, n) == listed.choice(staircases)
            assert drawn.random() == listed.random()

    def test_draws_at_sizes_too_large_to_list(self):
        start = time.perf_counter()
        rng = random.Random(0)
        for _ in range(100):
            assert basinlab._random_staircase(rng, 200).cardinality == 200
        assert time.perf_counter() - start < 2


class TestSupportOnLine:
    def test_matches_normal_form_of_the_line_power(self):
        # (x2 - level)^n reduced by the basis against the nilpotency of
        # M2 - level, on ideals supported on one line and on free ones
        specs = [
            BasinSampleSpec(target=t, support_constraint=c, line=line, seed=seed)
            for seed, t in enumerate(
                [TARGET, StandardSet([2, 2]), StandardSet([1, 1, 1]), StandardSet([4])]
            )
            for c, line in [
                ("x1_axis", None),
                ("horizontal_line", Fraction(-3, 2)),
                ("horizontal_line", Fraction(5, 3)),
                ("free", None),
            ]
        ]
        outcomes = set()
        for spec in specs:
            gb = reduced_groebner_basis(sample_basin_ideal(spec))
            n = spec.target.cardinality
            for level in (Fraction(0), Fraction(-3, 2), Fraction(5, 3), Fraction(-7)):
                expected = radical_contains_level(gb.elements, n, level)
                assert supported_on_line(gb, level) == expected
                outcomes.add(expected)
        assert outcomes == {True, False}


class TestBuchbergerFree:
    """The samplers and suites build every ideal from carried bases and
    quotients: neither Buchberger nor lex division runs."""

    @pytest.fixture(autouse=True)
    def no_buchberger(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Buchberger or lex division ran")

        monkeypatch.setattr(groebner, "_buchberger", refuse)
        monkeypatch.setattr(groebner, "_nf_terms", refuse)

    def test_every_suite_at_its_defaults(self):
        golden = pathlib.Path(__file__).parent / "data" / "verify_defaults_seed0.jsonl"
        reports = [runner(100, 0, n_max) for runner, n_max, _ in SUITES.values()]
        assert "".join(r.to_json() + "\n" for r in reports) == golden.read_text()

    @pytest.mark.parametrize("constraint", ["origin", "x1_axis", "horizontal_line", "free"])
    def test_sample_basin_ideal_up_to_six_boxes(self, constraint):
        for n in range(1, 7):
            for target in enumerate_staircases(n):
                spec = BasinSampleSpec(
                    target,
                    constraint,
                    line=Fraction(2, 3) if constraint == "horizontal_line" else None,
                    seed=n,
                )
                gb = reduced_groebner_basis(sample_basin_ideal(spec))
                assert gb.staircase == target


class TestReports:
    def test_json_shape_and_key_order(self):
        report = ExperimentReport(
            "demo", 7, 2, 1, (("trial=1", "left", "right"),)
        )
        raw = report.to_json()
        data = json.loads(raw)
        assert data == {
            "experiment_name": "demo",
            "seed": 7,
            "cases_run": 2,
            "cases_passed": 1,
            "failures": [
                {"case": "trial=1", "expected": "left", "observed": "right"}
            ],
        }
        assert raw.index('"cases_passed"') < raw.index('"cases_run"')
        assert not report.passed

    def test_text_contains_failures(self):
        report = ExperimentReport(
            "demo", 0, 3, 2, (("trial=2", "a", "b"),)
        )
        text = report.to_text()
        assert "3 run, 2 passed, 1 failed" in text
        assert "FAIL trial=2" in text

    def test_passed_report_text(self):
        report = ExperimentReport("demo", 0, 3, 3, ())
        assert report.passed
        assert "FAIL" not in report.to_text()


class TestSuitesSmall:
    def test_prop1(self):
        report = run_prop1(6, n_max=6, seed=1)
        assert report.passed and report.cases_run == 6

    def test_prop2(self):
        report = run_prop2(6, n_max=6, seed=1)
        assert report.passed and report.cases_run == 6

    def test_divisibility(self):
        report = run_divisibility(6, n_max=6, seed=1)
        assert report.passed and report.cases_run == 6

    def test_punc_consistency(self):
        report = run_punc_consistency(6, n_max=5, seed=1)
        assert report.passed and report.cases_run == 6

    def test_calibration(self):
        report = run_torus_calibration(6, n_max=5, seed=1)
        assert report.passed and report.cases_run == 6

    def test_single_column(self):
        report = run_single_column_density(4, 6, seed=1)
        assert report.passed and report.cases_run == 6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_column_ideals_walk_to_one_column_at_the_origin(self, seed):
        # the suite re-checks the staircase substitute carried; reading the
        # elements walks the ideals its first trials draw, and raises
        # unless the walk finds that staircase too
        for n in range(1, 9):
            for trial in range(3):
                rng = basinlab._trial_rng("single_column", seed, trial)
                coeffs = [Fraction(0)] + [basinlab._rand_fraction(rng) for _ in range(n - 1)]
                gb = reduced_groebner_basis(tall_point_ideal(n, coeffs))
                gb.elements
                assert gb.staircase == StandardSet([n])
                assert supported_at_origin(gb)

    def test_et_closure_single_pair(self):
        a = StandardSet([4])
        b = StandardSet([3, 1])
        report = run_et_closure(a, b, seed=2)
        assert report.passed and report.cases_run == 1

    def test_et_closure_needs_related_pair(self):
        with pytest.raises(ValueError):
            run_et_closure(StandardSet([3, 1]), StandardSet([4]))

    def test_et_closure_covers(self):
        report = run_et_closure_covers(4, seed=0)
        # cover counts: n=2 has 1, n=3 has 2, n=4 has 5
        assert report.cases_run == 8
        assert report.passed

    def test_et_closure_draws_one_free_sample_of_each_target(self, monkeypatch):
        # no retry: each cover a -> b is one free sample of b
        drawn = []
        free_sample = basinlab._free_sample

        def recorded(target, rng):
            drawn.append(target)
            return free_sample(target, rng)

        monkeypatch.setattr(basinlab, "_free_sample", recorded)
        report = run_et_closure_covers(4)
        posets = [build_poset(n, "et") for n in (2, 3, 4)]
        assert report.passed
        assert drawn == [p.elements[j] for p in posets for _, j in p.covers]

    def test_et_closure_records_a_sample_off_its_target(self, monkeypatch):
        # a sample that left b is a failed case naming both staircases
        monkeypatch.setattr(
            basinlab, "_free_sample", lambda target, rng: vanishing_ideal([(0, 0), (0, 1)])
        )
        report = run_et_closure(StandardSet([2]), StandardSet([1, 1]))
        assert (report.cases_run, report.cases_passed) == (1, 0)
        assert report.failures == (("cols(2)->cols(1,1)", "cols(1,1)", "cols(2)"),)

    def test_single_column_validates_n(self):
        with pytest.raises(ValueError):
            run_single_column_density(0, 1)

    def test_reports_reproducible(self):
        first = run_prop1(5, n_max=5, seed=42)
        second = run_prop1(5, n_max=5, seed=42)
        assert first.to_json() == second.to_json()
        different = run_prop1(5, n_max=5, seed=43)
        assert different.to_json() != first.to_json()


class TestRegressions:
    def test_divisibility_seed_3_within_budget(self):
        # trial 90 (cols (6, 2)) once spent about two minutes in Buchberger
        # while sampling; the budget is generous against machine noise
        start = time.perf_counter()
        report = run_divisibility(100, n_max=8, seed=3)
        elapsed = time.perf_counter() - start
        assert report.cases_passed == report.cases_run == 100
        assert elapsed < 20, f"took {elapsed:.1f}s, budget 20s"

    def test_spread_draws_every_sample_before_intersecting(self, monkeypatch):
        # the samplers' substitutions must not run inside the intersection,
        # where a tracer would charge them to intersect_comaximal
        inside = []
        during = []
        intersect, substitute = basinlab.intersect_comaximal, basinlab.substitute

        def traced_intersect(ideals):
            inside.append(True)
            try:
                return intersect(ideals)
            finally:
                inside.pop()

        def traced_substitute(*args):
            during.append(bool(inside))
            return substitute(*args)

        monkeypatch.setattr(basinlab, "intersect_comaximal", traced_intersect)
        monkeypatch.setattr(basinlab, "substitute", traced_substitute)
        targets = [StandardSet([2, 1]), StandardSet([1]), StandardSet([3])]
        ideal = basinlab._spread(1, basinlab._origin_sample, targets, random.Random("spread"))
        assert reduced_groebner_basis(ideal).staircase == StandardSet([3, 2, 1, 1])
        assert len(during) >= len(targets)
        assert not any(during)

    @pytest.mark.parametrize(
        "constraint,sampler", [("origin", "_origin_sample"), ("x1_axis", "_axis_sample")]
    )
    def test_recheck_walks_a_carried_staircase(self, monkeypatch, constraint, sampler):
        # a sample that carries the target as its staircase but the quotient
        # of (x1^3, x2) passes every check that reads only the carried claim
        target = StandardSet([2, 1])
        wrong = reduced_groebner_basis(groebner.monomial_ideal(StandardSet([1, 1, 1])))
        claim = groebner.Ideal(
            groebner._unwalked(target, groebner._quotient(wrong))
        )
        monkeypatch.setattr(basinlab, sampler, lambda *args: claim)
        with pytest.raises(RuntimeError, match="walked staircase"):
            sample_basin_ideal(BasinSampleSpec(target, constraint))


class TestSuiteRegistry:
    @pytest.mark.parametrize("name", list(SUITES))
    def test_every_suite_runs_at_its_smallest_nmax(self, name):
        runner, _, smallest = SUITES[name]
        report = runner(2, 3, smallest)
        assert report.passed and report.cases_run >= 1

    @pytest.mark.parametrize(
        "name,experiment",
        [
            ("duality", "duality"),
            ("refinement", "refinement"),
            ("alg", "splitting_game"),
        ],
    )
    def test_exhaustive_reports_keep_seed_zero(self, name, experiment):
        report = SUITES[name][0](100, 5, 4)
        assert report.experiment_name == experiment
        assert report.seed == 0
        # all ordered pairs of same-size staircases, n = 1..4
        assert report.cases_run == 1 + 4 + 9 + 25
        assert report.passed

    @pytest.mark.parametrize(
        "runner,sampler",
        [
            (run_prop1, "_origin_sample"),
            (run_prop2, "_axis_sample"),
            (run_divisibility, "_axis_sample"),
            (run_punc_consistency, "_origin_sample"),
        ],
    )
    def test_sampling_errors_are_recorded_as_failed_cases(
        self, monkeypatch, runner, sampler
    ):
        def exhausted(*args):
            raise SamplingError("out of budget")

        monkeypatch.setattr(basinlab, sampler, exhausted)
        report = runner(3, n_max=4, seed=0)
        assert (report.cases_run, report.cases_passed) == (3, 0)
        assert [f[0].split()[0] for f in report.failures] == [
            "trial=0",
            "trial=1",
            "trial=2",
        ]
        assert all(
            f[1:] == ("a sample", "SamplingError: out of budget")
            for f in report.failures
        )


def _moved(target, index, place):
    # the monomial ideal of target, its support moved to x_index = place
    return substitute(monomial_ideal(target), index, Polynomial.constant(-place))


class TestFailurePaths:
    # each failure a suite or a sampler recheck can report, forced by
    # rebinding an order, the splitting game or a sampler

    def _fails(self, capsys, name, failure):
        # the suite at n_max 2 reports exactly the one failure, and
        # `grobasin verify` exits 1 on it
        report = SUITES[name][0](1, 0, 2)
        assert (report.cases_run, report.cases_passed) == (5, 4)
        assert report.failures == (failure,)
        assert main(["verify", name, "--nmax", "2"]) == 1
        capsys.readouterr()

    def test_duality(self, monkeypatch, capsys):
        monkeypatch.setattr(basinlab, "leq_punc", lambda a, b: True)
        self._fails(capsys, "duality", ("a=cols(1,1) b=cols(2)", "True", "False"))

    def test_refinement(self, monkeypatch, capsys):
        monkeypatch.setattr(basinlab, "dominance", lambda a, b: a == b)
        failure = ("a=cols(2) b=cols(1,1)", "dominance to follow", "dominance fails")
        self._fails(capsys, "refinement", failure)

    def test_splitting_game_disagrees(self, monkeypatch, capsys):
        monkeypatch.setattr(basinlab, "leq_punc", lambda a, b: True)
        self._fails(capsys, "alg", ("a=cols(1,1) b=cols(2)", "True", "False"))

    def test_splitting_game_terminal_loses_boxes(self, monkeypatch, capsys):
        lost = SplitQuadruple((1,), (), (1,), ())

        def with_lost(a, b):
            quads = figure_alg(a, b)
            return quads | {lost} if a.cols() == (2,) and b.cols() == (2,) else quads

        monkeypatch.setattr(basinlab, "figure_alg", with_lost)
        failure = ("a=cols(2) b=cols(2)", "terminals conserving total size", str(lost))
        self._fails(capsys, "alg", failure)

    @pytest.mark.parametrize(
        "constraint, line, sampler, sample, recheck",
        [
            ("origin", None, "_origin_sample", monomial_ideal(StandardSet([3])), "its own staircase"),
            ("origin", None, "_origin_sample", _moved(TARGET, 1, 1), "the origin support"),
            ("x1_axis", None, "_axis_sample", _moved(TARGET, 2, 1), "the axis support"),
            ("horizontal_line", 2, "_axis_sample", _moved(TARGET, 2, 1), "the line support"),
        ],
    )
    def test_sample_recheck(self, monkeypatch, constraint, line, sampler, sample, recheck):
        # a sample with the wrong staircase, or off its support, is refused
        monkeypatch.setattr(basinlab, sampler, lambda target, rng: sample)
        spec = BasinSampleSpec(TARGET, constraint, line=line)
        with pytest.raises(SamplingError, match=f"^sampler output fails {recheck} recheck$"):
            sample_basin_ideal(spec)
