"""Sampled structural validation of game specifications.

validate_game probes a spec with seeded random states, actions, and
measure clouds: finite-difference gradient checks, the convexity modulus
of the running cost, slope and intercept growth bounds, declared
structural flags, and action set properties. Every failure names the
coefficient and the inputs that broke it.
"""

from dataclasses import dataclass, field

import numpy as np

from .measures import ParticleCloud, jsonable
from .model import (
    COMPETITIVE,
    COOPERATIVE,
    CoefficientError,
    measure_args,
)
from .rng import substream


@dataclass
class CheckResult:
    name: str
    population: object
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""

    def to_dict(self):
        """Every field through measures.jsonable."""
        return jsonable(self)


@dataclass
class ValidationReport:
    spec_name: str
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_dict(self):
        """Every field through measures.jsonable, plus passed; a new report
        field needs only its dataclass field."""
        return dict(jsonable(self), passed=self.passed)


def _spectral(arr):
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        return float(np.linalg.norm(arr))
    if arr.ndim == 3:
        arr = arr.reshape(-1, arr.shape[-1])
    return float(np.linalg.norm(arr, 2))


def _feasible(pop, rng, n, spread=1.5):
    """Strictly feasible actions: shrink projected draws toward the anchor."""
    raw = spread * rng.standard_normal((n, pop.action_set.dimension))
    proj = pop.action_set.project(raw)
    anchor = pop.action_set.anchor_point[None, :]
    return anchor + 0.8 * (proj - anchor)


def _sample_context(spec, rng, scale):
    t = float(rng.uniform(0.0, spec.horizon))
    clouds = []
    for p in spec.populations:
        shift = rng.standard_normal(p.state_dim)
        pts = shift + scale * rng.standard_normal((16, p.state_dim))
        clouds.append(ParticleCloud(pts))
    return t, clouds


def _call(label, i, fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:  # surface the coefficient and the inputs
        raise CoefficientError(
            "%s of population %d failed: %s" % (label, i, exc)
        ) from exc
    return np.asarray(out, dtype=float)


def _misshapen(spec, i, rng, t0, clouds0):
    """Evaluate population i's coefficients once at t0 and the given clouds,
    on three states and feasible actions drawn from rng; returns (name,
    returned shape, accepted shapes as text) per misshapen output.

    Raises CoefficientError naming the coefficient when one fails.
    """
    pop = spec.populations[i]
    d = pop.state_dim
    k = pop.action_set.dimension
    drift, diff, cost = pop.drift, pop.diffusion, pop.cost
    mu0, nus0 = measure_args(spec, i, clouds0)
    x0 = rng.standard_normal((3, d))
    a0 = _feasible(pop, rng, 3)
    # (name, callable or None, arguments, accepted shapes); the measure
    # derivatives take x0 as direction points and may be constant in them
    coefficients = [
        ("b0", drift.b0, (t0, mu0, nus0), [(d,)]),
        ("b1", drift.b1, (t0, mu0, nus0), [(d, d)]),
        ("b2", drift.b2, (t0, mu0, nus0), [(d, k)]),
        ("s0", diff.s0, (t0, mu0, nus0), [(d, d)]),
        ("f", cost.f, (t0, x0, mu0, nus0, a0), [(3,)]),
        ("df_dx", cost.df_dx, (t0, x0, mu0, nus0, a0), [(3, d)]),
        ("df_dalpha", cost.df_dalpha, (t0, x0, mu0, nus0, a0), [(3, k)]),
        ("g", cost.g, (x0, mu0, nus0), [(3,)]),
        ("dg_dx", cost.dg_dx, (x0, mu0, nus0), [(3, d)]),
        ("s1", diff.s1, (t0, mu0, nus0), [(d, d, d)]),
        ("b1_bar", drift.b1_bar, (t0, nus0), [(d, d)]),
        ("s1_bar", diff.s1_bar, (t0, nus0), [(d, d, d)]),
        ("quad_linear", cost.quad_linear, (t0, x0, mu0, nus0), [(3, k)]),
        ("quad_const", cost.quad_const, (t0, x0, mu0, nus0), [(3,)]),
        ("df_dmu", cost.df_dmu, (t0, x0, mu0, nus0, a0, x0), [(3, 3, d), (3, 1, d)]),
        ("dg_dmu", cost.dg_dmu, (x0, mu0, nus0, x0), [(3, 3, d), (3, 1, d)]),
    ]
    shapes = [(name, _call(name, i, fn, *args).shape, accepted)
              for name, fn, args, accepted in coefficients if fn is not None]
    return [(name, got, " or ".join(map(str, accepted)))
            for name, got, accepted in shapes if got not in accepted]


def check_coefficient_shapes(spec):
    """Evaluate every population's coefficients at one sampled context and
    raise CoefficientError naming each misshapen coefficient, its
    population, and the returned and expected shapes."""
    rng = substream(0, "shape-check")
    t, clouds = _sample_context(spec, rng, 1.0)
    for i in range(spec.n_populations):
        bad = _misshapen(spec, i, rng, t, clouds)
        if bad:
            raise CoefficientError("; ".join(
                "%s of population %d returned shape %s, expected %s"
                % (name, i, got, want) for name, got, want in bad))


def validate_game(spec, n_samples=100, seed=0):
    """Run the sampled check battery and return a ValidationReport."""
    rng = substream(seed, "validate")
    report = ValidationReport(spec_name=spec.name)
    m = spec.n_populations
    L = spec.constants.lipschitz_L
    lam = spec.constants.convexity_lambda
    K = spec.constants.growth_K

    def add(name, pop, passed, worst, tol, detail=""):
        report.checks.append(
            CheckResult(name, pop, bool(passed), float(worst), float(tol),
                        detail)
        )

    contexts = [_sample_context(spec, rng, scale)
                for scale in (0.5, 1.0, 1.0, 3.0, 10.0)]

    for i, pop in enumerate(spec.populations):
        d = pop.state_dim
        k = pop.action_set.dimension
        drift, diff, cost = pop.drift, pop.diffusion, pop.cost

        # -- shape and evaluation smoke test, names the coefficient on failure
        try:
            bad = [n for n, _, _ in _misshapen(spec, i, rng, *contexts[1])]
            add("coefficient-evaluation", i, not bad, float(len(bad)), 0.0,
                "bad output shapes: %s" % ", ".join(bad) if bad else "")
            if bad:
                continue
        except CoefficientError as exc:
            add("coefficient-evaluation", i, False, 1.0, 0.0, str(exc))
            continue

        # -- action set: idempotent, non-expansive, anchor fixed
        raw = 4.0 * rng.standard_normal((256, k))
        raw2 = 4.0 * rng.standard_normal((256, k))
        p1 = pop.action_set.project(raw)
        worst_idem = float(np.max(np.linalg.norm(pop.action_set.project(p1) - p1, axis=1)))
        d_in = np.linalg.norm(raw - raw2, axis=1)
        d_out = np.linalg.norm(p1 - pop.action_set.project(raw2), axis=1)
        worst_exp = float(np.max(d_out - d_in))
        anchor_err = float(np.linalg.norm(
            pop.action_set.project(pop.action_set.anchor_point[None, :])[0]
            - pop.action_set.anchor_point))
        worst = max(worst_idem, worst_exp, anchor_err)
        add("action-projection", i, worst <= 1e-9, worst, 1e-9)

        # -- finite-difference gradient checks
        tol_fd = 1e-5
        per_group = max(1, n_samples // len(contexts))
        worst_fx = worst_fa = worst_gx = 0.0
        for t, clouds in contexts:
            mu, nus = measure_args(spec, i, clouds)
            x = 2.0 * rng.standard_normal((per_group, d))
            alpha = _feasible(pop, rng, per_group)
            an_x = _call("df_dx", i, cost.df_dx, t, x, mu, nus, alpha)
            an_a = _call("df_dalpha", i, cost.df_dalpha, t, x, mu, nus, alpha)
            an_g = _call("dg_dx", i, cost.dg_dx, x, mu, nus)
            fd_x = np.zeros_like(an_x)
            fd_g = np.zeros_like(an_g)
            for c in range(d):
                h = 1e-6 * (1.0 + np.abs(x[:, c]))
                xp = x.copy(); xp[:, c] += h
                xm = x.copy(); xm[:, c] -= h
                fd_x[:, c] = (cost.f(t, xp, mu, nus, alpha)
                              - cost.f(t, xm, mu, nus, alpha)) / (2 * h)
                fd_g[:, c] = (cost.g(xp, mu, nus) - cost.g(xm, mu, nus)) / (2 * h)
            fd_a = np.zeros_like(an_a)
            for c in range(k):
                h = 1e-6 * (1.0 + np.abs(alpha[:, c]))
                ap = alpha.copy(); ap[:, c] += h
                am = alpha.copy(); am[:, c] -= h
                fd_a[:, c] = (cost.f(t, x, mu, nus, ap)
                              - cost.f(t, x, mu, nus, am)) / (2 * h)
            def rel(fd, an):
                return float(np.max(np.linalg.norm(fd - an, axis=1)
                                    / (1.0 + np.linalg.norm(an, axis=1))))
            worst_fx = max(worst_fx, rel(fd_x, an_x))
            worst_fa = max(worst_fa, rel(fd_a, an_a))
            worst_gx = max(worst_gx, rel(fd_g, an_g))
        add("gradient-df-dx", i, worst_fx <= tol_fd, worst_fx, tol_fd)
        add("gradient-df-dalpha", i, worst_fa <= tol_fd, worst_fa, tol_fd)
        add("gradient-dg-dx", i, worst_gx <= tol_fd, worst_gx, tol_fd)

        # -- measure-derivative checks through the particle lift
        if cost.df_dmu is not None or cost.dg_dmu is not None:
            worst_mu = 0.0
            for t, clouds in contexts[:3]:
                mu, nus = measure_args(spec, i, clouds)
                x = rng.standard_normal((1, d))
                alpha = _feasible(pop, rng, 1)
                H = rng.standard_normal(mu.points.shape)
                eps = 1e-6
                up = ParticleCloud(mu.points + eps * H)
                dn = ParticleCloud(mu.points - eps * H)
                if cost.df_dmu is not None:
                    fd = (cost.f(t, x, up, nus, alpha)
                          - cost.f(t, x, dn, nus, alpha))[0] / (2 * eps)
                    D = _call("df_dmu", i, cost.df_dmu, t, x, mu, nus, alpha,
                              mu.points)
                    an = float(np.mean(np.sum(
                        np.broadcast_to(D[0], (mu.n, d)) * H, axis=1)))
                    worst_mu = max(worst_mu, abs(fd - an) / (1.0 + abs(an)))
                if cost.dg_dmu is not None:
                    fd = (cost.g(x, up, nus) - cost.g(x, dn, nus))[0] / (2 * eps)
                    D = _call("dg_dmu", i, cost.dg_dmu, x, mu, nus, mu.points)
                    an = float(np.mean(np.sum(
                        np.broadcast_to(D[0], (mu.n, d)) * H, axis=1)))
                    worst_mu = max(worst_mu, abs(fd - an) / (1.0 + abs(an)))
            add("gradient-measure", i, worst_mu <= 1e-5, worst_mu, 1e-5)

        # -- convexity modulus of f in alpha
        min_gap = np.inf
        scale_f = 1.0
        for t, clouds in contexts:
            mu, nus = measure_args(spec, i, clouds)
            n_pairs = 200
            x = 2.0 * rng.standard_normal((n_pairs, d))
            a1 = _feasible(pop, rng, n_pairs)
            a2 = _feasible(pop, rng, n_pairs)
            f1 = cost.f(t, x, mu, nus, a1)
            f2 = cost.f(t, x, mu, nus, a2)
            grad = cost.df_dalpha(t, x, mu, nus, a1)
            delta = a2 - a1
            gap = (f2 - f1 - np.sum(grad * delta, axis=1)
                   - lam * np.sum(delta**2, axis=1))
            min_gap = min(min_gap, float(gap.min()))
            scale_f = max(scale_f, float(np.max(np.abs(f1))))
        tol_cx = 1e-10 * scale_f
        add("convexity-lambda", i, min_gap >= -tol_cx, min_gap, tol_cx,
            "min convexity gap over sampled pairs")

        # -- slope bounds and intercept growth, gated by the affine flags
        flag = (spec.structural_flags.affine_competitive
                if pop.cooperation == COMPETITIVE
                else spec.structural_flags.affine_cooperative)
        if flag:
            worst_slope = 0.0
            slope_detail = ""
            worst_ratio = 0.0
            for t, clouds in contexts:
                mu, nus = measure_args(spec, i, clouds)
                named = [("b1", drift.b1(t, mu, nus)),
                         ("b2", drift.b2(t, mu, nus))]
                if diff.s1 is not None:
                    named.append(("s1", diff.s1(t, mu, nus)))
                if drift.b1_bar is not None:
                    named.append(("b1_bar", drift.b1_bar(t, nus)))
                if diff.s1_bar is not None:
                    named.append(("s1_bar", diff.s1_bar(t, nus)))
                for label, arr in named:
                    nrm = _spectral(arr)
                    if nrm > worst_slope:
                        worst_slope, slope_detail = nrm, label
                moments = (mu.moment2 + sum(c.moment2 for c in nus)
                           if pop.cooperation == COMPETITIVE
                           else sum(c.moment2 for c in nus))
                bound = K + L * moments
                for label, arr in (("b0", drift.b0(t, mu, nus)),
                                   ("s0", diff.s0(t, mu, nus))):
                    ratio = _spectral(arr) / bound
                    worst_ratio = max(worst_ratio, ratio)
            add("slope-bounds", i, worst_slope <= L + 1e-9, worst_slope,
                L + 1e-9, "largest slope norm at %s" % slope_detail)
            add("intercept-growth", i, worst_ratio <= 1.0 + 1e-9,
                worst_ratio, 1.0 + 1e-9,
                "|intercept| relative to K + L * moment bound")

        # -- declared measure-free intercepts
        if (pop.cooperation == COOPERATIVE
                and spec.structural_flags.cooperative_measure_free_intercepts
                and m > 1):
            t, clouds = contexts[0]
            _, cloudsb = contexts[3]
            mu, nus_a = measure_args(spec, i, clouds)
            _, nus_b = measure_args(spec, i, cloudsb)
            diffv = max(
                float(np.max(np.abs(drift.b0(t, mu, nus_a) - drift.b0(t, mu, nus_b)))),
                float(np.max(np.abs(diff.s0(t, mu, nus_a) - diff.s0(t, mu, nus_b)))),
            )
            add("flag-cooperative-intercepts", i, diffv <= 1e-12, diffv, 1e-12,
                "b0/s0 must not vary with the frozen measures")
        if (pop.cooperation == COMPETITIVE
                and spec.structural_flags.mixed_fringe_own_law_free_intercepts):
            t, clouds = contexts[0]
            _, cloudsb = contexts[3]
            mu_a, nus = measure_args(spec, i, clouds)
            mu_b = cloudsb[i]
            diffv = max(
                float(np.max(np.abs(drift.b0(t, mu_a, nus) - drift.b0(t, mu_b, nus)))),
                float(np.max(np.abs(diff.s0(t, mu_a, nus) - diff.s0(t, mu_b, nus)))),
            )
            add("flag-fringe-intercepts", i, diffv <= 1e-12, diffv, 1e-12,
                "b0/s0 must not vary with the own law")

        # -- declared quadratic structure
        if cost.quadratic_in_alpha:
            worst_q = 0.0
            for t, clouds in contexts[:3]:
                mu, nus = measure_args(spec, i, clouds)
                x = rng.standard_normal((32, d))
                alpha = _feasible(pop, rng, 32)
                lin = (np.zeros((32, k)) if cost.quad_linear is None
                       else np.asarray(cost.quad_linear(t, x, mu, nus)))
                grad = alpha @ cost.quad_q + lin
                an = cost.df_dalpha(t, x, mu, nus, alpha)
                worst_q = max(worst_q, float(np.max(np.abs(grad - an))))
                if cost.quad_const is not None:
                    qf = (0.5 * np.einsum("nk,kl,nl->n", alpha, cost.quad_q, alpha)
                          + np.sum(lin * alpha, axis=1)
                          + np.asarray(cost.quad_const(t, x, mu, nus)))
                    worst_q = max(worst_q, float(np.max(np.abs(
                        qf - cost.f(t, x, mu, nus, alpha)))))
            add("quadratic-consistency", i, worst_q <= 1e-8, worst_q, 1e-8)
            eig_min = float(np.linalg.eigvalsh(cost.quad_q).min())
            add("quadratic-curvature-floor", i, eig_min >= 2 * lam - 1e-9,
                eig_min, 2 * lam - 1e-9,
                "control cost curvature must cover twice the convexity modulus")

        # -- declared initial moments
        if pop.initial_mean is not None and pop.initial_cov is not None:
            draws = pop.initial_law(substream(seed, "validate-init:%d" % i), 4096)
            draws = np.asarray(draws, dtype=float)
            mean_err = np.abs(draws.mean(axis=0) - pop.initial_mean)
            mean_tol = 6.0 * draws.std(axis=0, ddof=1) / np.sqrt(len(draws)) + 1e-12
            cov = np.cov(draws.T).reshape(d, d)
            cov_se = np.sqrt((np.outer(np.diag(pop.initial_cov),
                                       np.diag(pop.initial_cov))
                              + pop.initial_cov**2) / len(draws))
            cov_err = np.abs(cov - pop.initial_cov)
            over = max(float(np.max(mean_err - mean_tol)),
                       float(np.max(cov_err - 6.0 * cov_se - 1e-12)))
            add("initial-law-moments", i, over <= 0.0, over, 0.0,
                "sampled mean/cov against declared values, 6 SE band")

        if pop.moment_order <= 4:
            report.notes.append(
                "population %d declares moment order %g <= 4; the "
                "propagation-of-chaos rate premise needs more than 4"
                % (i, pop.moment_order)
            )

    return report
