"""The differential fuzz harness: generation, detection, shrinking."""

import pytest

from repro.analysis.fuzz import (
    DETECTOR_NAMES,
    DETECTORS,
    POLICY_NAMES,
    CaseOutcome,
    Failure,
    FuzzCase,
    _inline_workload,
    fuzz,
    generate_case,
    generate_scenario_case,
    render_case,
    run_case,
    shrink_case,
)
from repro.workloads.sources import ScenarioSpec, SourceUse, compile_scenario

#: ``inline-alarms`` rows: (label, nominal, interval, kind, window, grace,
#: wakeup, hardware, hold_ms).
STATIC = ("a0", 30_000, 60_000, "static", 0, 48_000, True, "none", None)
CANCEL_A0 = ("cancel", 10_000, "a0", None)
DETONATE_A0 = ("detonate", 10_000, "a0", None)


def inline_case(seed=0, alarms=(STATIC,), churn=(), externals=(), extra=()):
    """A case of one ``inline-alarms`` source (plus ``extra`` sources)."""
    kwargs = {"alarms": alarms, "churn": churn, "externals": externals}
    kwargs = {key: rows for key, rows in kwargs.items() if rows}
    source = SourceUse("inline-alarms", kwargs=kwargs)
    spec = ScenarioSpec(
        name="fuzz-test", horizon=300_000, sources=(source, *extra)
    )
    return FuzzCase(seed=seed, spec=spec)


def inline_rows(case, key):
    (source,) = case.spec.sources
    return dict(source.kwargs).get(key, ())


def fake_run(guilty):
    """A stand-in runner: a "crash" whenever ``guilty(case)`` holds."""

    def run(case):
        failures = [Failure("crash", "fake")] if guilty(case) else []
        return CaseOutcome(case=case, outcomes={}, failures=failures)

    return run


class TestGeneration:
    def test_deterministic_per_seed(self):
        assert generate_case(17) == generate_case(17)
        assert generate_scenario_case(17) == generate_scenario_case(17)

    def test_seeds_explore_distinct_cases(self):
        specs = {generate_case(seed).spec for seed in range(20)}
        assert len(specs) > 1

    def test_generated_specs_build_valid_alarms(self):
        for seed in range(50):
            spec = generate_case(seed).spec
            assert [use.source for use in spec.sources] == ["inline-alarms"]
            assert spec.validate() == [], seed
            workload = compile_scenario(spec)
            assert workload.registrations
            for alarm in workload.alarms():
                assert alarm.grace_length >= alarm.window_length
            for external in workload.externals:
                assert 0 <= external.time < spec.horizon


class TestEligibility:
    """The oracle and differential rows' predicates on inline specs."""

    @staticmethod
    def gated_rows(case):
        workload = compile_scenario(case.spec)
        return {
            row.name
            for row in DETECTORS
            if row.eligible is not None and row.eligible(workload)
        }

    def test_pure_case_is_oracle_eligible(self):
        assert self.gated_rows(inline_case()) == {"oracle", "differential"}

    def test_churn_disables_both(self):
        assert self.gated_rows(inline_case(churn=(CANCEL_A0,))) == set()

    def test_externals_disable_both(self):
        case = inline_case(externals=((20_000, 500),))
        assert self.gated_rows(case) == set()

    def test_hold_disables_oracle_only(self):
        held = STATIC[:-1] + (2_000,)
        assert self.gated_rows(inline_case(alarms=(held,))) == {"differential"}

    def test_dynamic_disables_oracle_only(self):
        dynamic = STATIC[:3] + ("dynamic",) + STATIC[4:]
        assert self.gated_rows(inline_case(alarms=(dynamic,))) == {
            "differential"
        }

    def test_only_inline_cases_reach_the_gated_rows(self):
        pure = inline_case()
        outcomes = run_case(pure).outcomes
        assert _inline_workload(pure, outcomes) is not None
        mixed = inline_case(
            extra=(SourceUse("calendar", kwargs={"times": ("00:02",)}),)
        )
        assert _inline_workload(mixed, run_case(mixed).outcomes) is None


class TestRunCase:
    def test_trivial_case_is_clean(self):
        outcome = run_case(inline_case())
        assert outcome.ok, [f.detail for f in outcome.failures]
        assert set(outcome.outcomes) == set(POLICY_NAMES)
        native, simty = (
            outcome.outcomes["native"], outcome.outcomes["simty"]
        )
        assert native.delivered == simty.delivered
        assert native.violations == [] and simty.violations == []

    def test_crash_surfaces_as_failure(self):
        outcome = run_case(inline_case(churn=(DETONATE_A0,)))
        assert not outcome.ok
        assert {f.kind for f in outcome.failures} == {"crash"}
        assert "unknown op 'detonate'" in outcome.failures[0].detail

    def test_table_names_every_row_once(self):
        assert DETECTOR_NAMES == (
            "crash", "invariant", "backend", "stepping", "oracle",
            "differential",
        )


class TestShrinking:
    def test_crash_case_shrinks_to_minimum(self):
        guilty = ("cancel", 10_000, "a0", None)
        case = inline_case(
            seed=99,
            alarms=(
                STATIC,
                ("a1", 10_000, 90_000, "static", 0, 72_000, True, "wifi",
                 None),
                ("a2", 5_000, 0, "one_shot", 0, 0, True, "none", None),
            ),
            churn=(("reregister", 100_000, "a1", None), guilty),
            externals=((20_000, 500),),
        )
        shrunk = shrink_case(
            case,
            frozenset({"crash"}),
            run=fake_run(lambda c: guilty in inline_rows(c, "churn")),
        )
        assert inline_rows(shrunk, "alarms") == (STATIC,)
        assert inline_rows(shrunk, "churn") == (guilty,)
        assert inline_rows(shrunk, "externals") == ()
        assert shrunk.seed == 99

    def test_shrink_never_drops_last_alarm(self):
        case = inline_case(churn=(CANCEL_A0,))
        shrunk = shrink_case(
            case, frozenset({"crash"}), run=fake_run(lambda c: True)
        )
        # A case without alarms is not a reproducer.
        assert inline_rows(shrunk, "alarms") == (STATIC,)
        assert inline_rows(shrunk, "churn") == ()

    def test_shrink_ignores_other_failure_kinds(self):
        case = inline_case(churn=(CANCEL_A0,))
        shrunk = shrink_case(
            case, frozenset({"oracle"}), run=fake_run(lambda c: True)
        )
        assert shrunk == case


class TestRendering:
    @staticmethod
    def reproducer(case):
        namespace = {}
        exec(compile(render_case(case), "<reproducer>", "exec"), namespace)
        return namespace[f"test_fuzz_regression_seed_{case.seed}"]

    def test_rendered_reproducer_is_executable(self):
        case = inline_case(alarms=(STATIC[:-1] + (2_000,),))
        self.reproducer(case)()  # clean case: must pass

    def test_rendered_composition_is_executable(self):
        self.reproducer(generate_scenario_case(2))()

    def test_rendered_reproducer_fails_on_bad_case(self):
        with pytest.raises(AssertionError, match="detonate"):
            self.reproducer(inline_case(churn=(DETONATE_A0,)))()


class TestCampaign:
    def test_smoke_campaign_is_clean(self):
        # A bounded slice of the CI campaign: every detector quiet.
        report = fuzz(seed=0, budget_s=20.0, max_cases=60)
        assert report.cases_run == 60
        assert report.compositions_run == 20
        assert report.ok, report.format()
        assert report.counts == dict.fromkeys(DETECTOR_NAMES, 0)
        text = report.format()
        assert "all cases clean" in text
        for name in DETECTOR_NAMES:
            assert f"  {name}:" in text

    def test_zero_budget_runs_nothing(self):
        report = fuzz(seed=0, budget_s=0.0)
        assert report.cases_run == 0

    def test_case_budget_respected(self):
        report = fuzz(seed=0, budget_s=60.0, max_cases=3)
        assert report.cases_run == 3
