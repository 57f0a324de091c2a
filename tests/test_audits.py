import pytest

from profix import audits
from profix.errors import InvalidConfig

KINDS = ["prop_odds", "missing_cov"]
TOLERANCES = (
    audits.FIRST_ORDER_TOL, audits.SECOND_ORDER_TOL, audits.ETA_DOT_TOL,
    audits.ETA_DDOT_TOL, audits.DF_ETA_TOL, audits.POPULATION_TOL,
    audits.NORM_BOUND_SLACK,
)


#: Row names as ``check-derivs`` prints them and ``--corrupt`` takes them.
ROWS = {
    ("prop_odds", False): [
        "da_psi", "d2a_psi", "dbeta_psi.dot", "dbeta_psi.ddot",
        "dbeta_psi.mixed", "df_psi", "score_jacobian", "eta_dot", "eta_ddot",
        "df_eta",
    ],
    ("missing_cov", False): [
        "dg_psi", "d2g_psi", "dtheta_psi.dot", "dtheta_psi.ddot",
        "dtheta_psi.mixed", "df_psi", "score_jacobian", "eta_dot", "eta_ddot",
        "df_eta",
    ],
    ("prop_odds", True): ["self_consistency"],
    ("missing_cov", True): [
        "self_consistency", "dg_psi_l1_norm_excess", "nuisance_stationarity",
        "score_orthogonality",
    ],
}


@pytest.mark.parametrize("kind, population", list(ROWS))
def test_row_names_in_order(kind, population):
    rows = audits.run_audits(kind, population=population)
    assert [row.name for row in rows] == ROWS[kind, population]


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["seed", "n"])
@pytest.mark.parametrize("kind, population", list(ROWS))
def test_negative_seed_or_size_refused(kind, population, name):
    with pytest.raises(InvalidConfig, match=f"{name} must be nonnegative"):
        audits.run_audits(kind, population=population, **{name: -1})
