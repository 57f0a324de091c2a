import pytest

from profix import audits

KINDS = ["prop_odds", "missing_cov"]
TOLERANCES = (
    audits.FIRST_ORDER_TOL, audits.SECOND_ORDER_TOL, audits.ETA_DOT_TOL,
    audits.ETA_DDOT_TOL, audits.DF_ETA_TOL, audits.POPULATION_TOL,
    audits.NORM_BOUND_SLACK,
)


def test_corruption_a_decade_above_every_tolerance():
    assert audits.CORRUPTION >= 10.0 * max(TOLERANCES)


@pytest.mark.parametrize("population", [False, True],
                         ids=["sample", "population"])
@pytest.mark.parametrize("kind", KINDS)
def test_corrupting_a_row_fails_it_and_only_it(kind, population):
    base = audits.run_audits(kind, population=population)
    assert all(row.passed for row in base)
    for target in base:
        rows = audits.run_audits(kind, population=population, corrupt=target.name)
        assert [r.name for r in rows] == [r.name for r in base]
        for row, ref in zip(rows, base):
            if row.name == target.name:
                assert row.value >= 5.0 * row.tol, row
                assert not row.passed
            else:
                assert row == ref
