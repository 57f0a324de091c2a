"""The benchmark's two workloads: inputs from a seed, one operation, a gate.

Every workload draws its operations from a fixed universe of inputs: the
benchmark seed picks the order in which a run goes through that universe,
starting over when it has gone through all of it.  One recorded reference
(``reference.npz``, see ``record_reference.py``) thus covers every seed, so
the correctness gate can compare each estimate with the estimate the same
input gave when the reference was recorded.

The fit universe is small and uniform on purpose.  A fit from the zero
start takes two or three Newton steps depending on its dataset, which
changes its cost by half; a run of about a dozen fits drawn from the
generator would mix the two kinds differently for every seed, and its
median fit time would jump between them.  So the universe holds the first
eight datasets of the generator (``simulation.gen_prop_odds`` on the
acceptance study's substreams) whose fit took three Newton steps when the
reference was recorded, and every run goes through the same eight.  Each
operation still builds its model and profile from scratch, so a dataset
seen twice costs the same both times.

The caller must put the checkout's ``src`` directory on ``sys.path``
before importing this module.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from profix import estimator, prop_odds, simulation

#: Seed of the acceptance Monte Carlo studies; it also seeds the fit datasets.
STUDY_SEED = 20260810

#: An estimate may differ from its recorded reference by this share of its
#: standard error.  A Newton solve at tolerance 1e-8 moves it far less.
REF_SE_SHARE = 1e-3

#: A standard error may differ from its reference by this relative amount.
#: The efficient score is orthogonal to the nuisance scores, so an error in
#: the implicit nuisance derivative leaves the estimate alone and moves the
#: standard error only to second order: a 1% error moves it by about 1e-4.
#: Re-solving and single-precision storage move it by about 5e-8.
SE_REL_TOL = 1e-5

#: Two-sided 95% normal quantile, matching ``simulation.Z95``.
Z95 = 1.959963984540054

REFERENCE_PATH = Path(__file__).with_name("reference.npz")

#: Generator indices of the fit universe (see the module docstring).
FIT_DATASETS = (1, 2, 4, 7, 8, 11, 14, 15)


class Workload:
    """One closed-loop operation type.

    ``input(j)`` is the universe index of the run's j-th operation (j = -1
    is the warm-up), ``op`` performs it, and ``check`` returns the problems
    the correctness gate finds in its output (empty when it passes).
    Operations that share a ``batch`` run together in a traced run; the
    per-operation counts come from the first batch, so they repeat exactly
    for a fixed seed.
    """

    name = ""
    batch = 1

    def __init__(self, seed, size="full", reference=None):
        self.size = size
        self.order = np.random.default_rng(seed).permutation(self.universe)
        self.reference = load_reference() if reference is None else reference

    @property
    def key(self):
        return self.name if self.size == "full" else f"{self.name}.{self.size}"

    def input(self, j):
        """Universe index of the run's j-th operation."""
        return int(self.order[j % self.universe])

    def estimate(self, out):
        """(theta_hat, se) of an operation's output."""
        raise NotImplementedError

    def score_norm_at(self, inp, theta):
        """Sup norm of the mean profiled score at theta, from a fresh profile."""
        raise NotImplementedError

    def check(self, inp, out):
        problems = []
        theta, se = self.estimate(out)
        if theta is None:
            return [f"input {inp}: operation reported failure {se}"]
        norm = self.score_norm_at(inp, theta)
        if not norm < self.fit_tol:
            problems.append(f"input {inp}: mean score sup norm {norm:.3g} at theta_hat")
        ref_theta, ref_se = self.reference_at(inp)
        tol = REF_SE_SHARE * ref_se
        if not np.all(np.abs(theta - ref_theta) <= tol):
            problems.append(f"input {inp}: theta_hat {theta} != reference {ref_theta}")
        if not np.all(np.abs(se - ref_se) <= SE_REL_TOL * ref_se):
            problems.append(f"input {inp}: se {se} != reference {ref_se}")
        return problems + self.check_extra(inp, out, theta, se)

    def reference_at(self, inp):
        """Recorded (theta_hat, se) of the input's universe index."""
        theta = self.reference[f"{self.key}.theta"]
        if len(theta) != self.universe:
            raise ValueError(f"reference for {self.key} does not cover its universe")
        return theta[inp], self.reference[f"{self.key}.se"][inp]

    def check_extra(self, inp, out, theta, se):
        return []


class SurvivalFit(Workload):
    """``profix fit --force`` on one continuous-baseline dataset per op."""

    name = "surv_fit_n3000"
    batch = 2
    fit_tol = 1e-8

    def __init__(self, seed, size="full", reference=None):
        self.n = 3000 if size == "full" else 300
        self.universe = len(FIT_DATASETS)
        super().__init__(seed, size, reference)
        # input generation belongs to set-up, not to the operation
        self.datasets = [
            simulation.gen_prop_odds(prop_odds.LINEAR_DESIGN, self.n,
                                     simulation.replication_rng(STUDY_SEED, k))
            for k in FIT_DATASETS
        ]

    def op(self, inp):
        u, delta, z = self.datasets[inp]
        model = prop_odds.PropOddsModel.from_arrays(u, delta, z)
        profile = prop_odds.PropOddsProfile(model)
        fit = estimator.profile_mle(
            profile, np.zeros(model.covariate_dim), tol=self.fit_tol, force=True
        )
        return fit, estimator.confidence_interval(fit)

    def estimate(self, out):
        fit, _ = out
        return fit.theta_hat, fit.se

    def score_norm_at(self, inp, theta):
        u, delta, z = self.datasets[inp]
        profile = prop_odds.PropOddsProfile(prop_odds.PropOddsModel.from_arrays(u, delta, z))
        return float(np.abs(profile.mean_score(theta)).max())

    def check_extra(self, inp, out, theta, se):
        _, ci = out
        ref_theta, ref_se = self.reference_at(inp)
        expect = np.stack([ref_theta - Z95 * ref_se, ref_theta + Z95 * ref_se], axis=1)
        tol = 3.0 * REF_SE_SHARE * ref_se[:, None]
        if not np.all(np.abs(np.asarray(ci) - expect) <= tol):
            return [f"input {inp}: interval {ci} != reference {expect.tolist()}"]
        return []


class MixtureMonteCarlo(Workload):
    """One replication of acceptance criterion 7a: ``missing_cov``, default design, n=500."""

    name = "mix_mc_n500"
    model = "missing_cov"
    n = 500
    universe = 4000
    batch = 80

    def __init__(self, seed, size="full", reference=None):
        super().__init__(seed, size, reference)
        self.config = simulation.SimConfig(
            model=self.model, n=self.n, replications=self.universe, seed=STUDY_SEED,
        )
        self.fit_tol = self.config.fit_tol

    @property
    def key(self):
        return self.name

    def op(self, inp):
        return simulation.run_replication(self.config, inp)

    def estimate(self, rep):
        if not rep.converged:
            return None, rep.error
        return rep.theta_hat, rep.se

    def score_norm_at(self, inp, theta):
        rng = simulation.replication_rng(self.config.seed, inp)
        model = simulation.build_model(self.config, rng)
        profile = simulation.build_profile(self.config, model)
        return float(np.abs(profile.mean_score(theta)).max())

    def check_extra(self, inp, rep, theta, se):
        covered = np.abs(theta - self.config.theta0) <= Z95 * se
        if rep.index != inp or not np.array_equal(rep.covered, covered):
            return [f"input {inp}: replication record does not match its estimate"]
        return []


WORKLOADS = {w.name: w for w in (SurvivalFit, MixtureMonteCarlo)}


def load_reference(path=REFERENCE_PATH):
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}
