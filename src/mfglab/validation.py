"""Sampled structural validation of game specifications.

validate_game probes a spec with seeded random states, actions, and
measure clouds: finite-difference gradient checks, the convexity modulus
of the running cost, slope and intercept growth bounds (a zero K + L *
moment bound reads the intercept norm against 1e-9), declared structural
flags, and action set properties. Every coefficient and projection is
called through _call, so one that fails anywhere is named with its
population.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .measures import ParticleCloud, jsonable
from .model import COOPERATIVE, CoefficientError, measure_args
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


def _feasible(pop, i, rng, n):
    """Strictly feasible actions of population i (pop): shrink projected
    draws toward the anchor."""
    raw = 1.5 * rng.standard_normal((n, pop.action_set.dimension))
    proj = _call(pop, i, "project", raw)
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


def _call(pop, i, name, *args):
    """Population i's (pop's) drift, diffusion or cost coefficient, its
    action set's project or its initial law, called name, as a float array
    (None if absent); raises CoefficientError naming the coefficient and i
    when it fails."""
    parts = (pop.drift, pop.diffusion, pop.cost, pop.action_set, pop)
    fn = getattr(next(p for p in parts if hasattr(p, name)), name)
    if fn is None:
        return None
    try:
        out = fn(*args)
    except Exception as exc:  # name the coefficient and its population
        raise CoefficientError(
            "%s of population %d failed: %s" % (name, i, exc)
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
    mu0, nus0 = measure_args(spec, i, clouds0)
    x0 = rng.standard_normal((3, d))
    a0 = _feasible(pop, i, rng, 3)
    # (name, arguments, accepted shapes); the measure derivatives take x0
    # as direction points and may be constant in them
    coefficients = [
        ("b0", (t0, mu0, nus0), [(d,)]),
        ("b1", (t0, mu0, nus0), [(d, d)]),
        ("b2", (t0, mu0, nus0), [(d, k)]),
        ("s0", (t0, mu0, nus0), [(d, d)]),
        ("f", (t0, x0, mu0, nus0, a0), [(3,)]),
        ("df_dx", (t0, x0, mu0, nus0, a0), [(3, d)]),
        ("df_dalpha", (t0, x0, mu0, nus0, a0), [(3, k)]),
        ("g", (x0, mu0, nus0), [(3,)]),
        ("dg_dx", (x0, mu0, nus0), [(3, d)]),
        ("s1", (t0, mu0, nus0), [(d, d, d)]),
        ("b1_bar", (t0, nus0), [(d, d)]),
        ("s1_bar", (t0, nus0), [(d, d, d)]),
        ("quad_linear", (t0, x0, mu0, nus0), [(3, k)]),
        ("quad_const", (t0, x0, mu0, nus0), [(3,)]),
        ("df_dmu", (t0, x0, mu0, nus0, a0, x0), [(3, 3, d), (3, 1, d)]),
        ("dg_dmu", (x0, mu0, nus0, x0), [(3, 3, d), (3, 1, d)]),
    ]
    outs = [(name, _call(pop, i, name, *args), accepted)
            for name, args, accepted in coefficients]
    return [(name, out.shape, " or ".join(map(str, accepted)))
            for name, out, accepted in outs
            if out is not None and out.shape not in accepted]


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


def _fd_error(fn, z, an):
    """Largest row error of the gradient an of the row function fn at the
    rows z against central differences (step 1e-6 (1 + |z|) per column),
    relative to 1 + |an|."""
    fd = np.zeros_like(an)
    for c in range(z.shape[1]):
        h = 1e-6 * (1.0 + np.abs(z[:, c]))
        zp = z.copy(); zp[:, c] += h
        zm = z.copy(); zm[:, c] -= h
        fd[:, c] = (fn(zp) - fn(zm)) / (2 * h)
    return float(np.max(np.linalg.norm(fd - an, axis=1)
                        / (1.0 + np.linalg.norm(an, axis=1))))


def _lift_error(fn, D, mu, H, eps=1e-6):
    """Error of the measure derivative D (rows at mu's points, or one row
    for all) of the one-row function fn of the own law, against the
    central difference along the particle shift H, relative to 1 + |D.H|."""
    fd = (fn(ParticleCloud(mu.points + eps * H))
          - fn(ParticleCloud(mu.points - eps * H)))[0] / (2 * eps)
    an = float(np.mean(np.sum(np.broadcast_to(D[0], H.shape) * H, axis=1)))
    return abs(fd - an) / (1.0 + abs(an))


def validate_game(spec, n_samples=100, seed=0):
    """Run the sampled check battery and return a ValidationReport."""
    rng = substream(seed, "validate")
    report = ValidationReport(spec_name=spec.name)
    m = spec.n_populations
    L = spec.constants.lipschitz_L
    lam = spec.constants.convexity_lambda
    K = spec.constants.growth_K
    flags = spec.structural_flags

    def add(name, pop, passed, worst, tol, detail=""):
        report.checks.append(CheckResult(
            name, pop, bool(passed), float(worst), float(tol), detail))

    contexts = [_sample_context(spec, rng, scale)
                for scale in (0.5, 1.0, 1.0, 3.0, 10.0)]

    for i, pop in enumerate(spec.populations):
        d = pop.state_dim
        k = pop.action_set.dimension
        cost = pop.cost
        call = partial(_call, pop, i)
        cooperative = pop.cooperation == COOPERATIVE

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
        project, anchor = partial(call, "project"), pop.action_set.anchor_point
        raw = 4.0 * rng.standard_normal((256, k))
        raw2 = 4.0 * rng.standard_normal((256, k))
        p1 = project(raw)
        worst_idem = float(np.max(np.linalg.norm(project(p1) - p1, axis=1)))
        d_in = np.linalg.norm(raw - raw2, axis=1)
        d_out = np.linalg.norm(p1 - project(raw2), axis=1)
        worst_exp = float(np.max(d_out - d_in))
        anchor_err = float(np.linalg.norm(project(anchor[None, :])[0] - anchor))
        worst = max(worst_idem, worst_exp, anchor_err)
        add("action-projection", i, worst <= 1e-9, worst, 1e-9)

        # -- finite-difference gradient checks, one kernel for the three
        tol_fd = 1e-5
        per_group = max(1, n_samples // len(contexts))
        worst_fd = [0.0, 0.0, 0.0]
        for t, clouds in contexts:
            mu, nus = measure_args(spec, i, clouds)
            x = 2.0 * rng.standard_normal((per_group, d))
            alpha = _feasible(pop, i, rng, per_group)
            probes = [
                (lambda z: call("f", t, z, mu, nus, alpha), x,
                 call("df_dx", t, x, mu, nus, alpha)),
                (lambda z: call("f", t, x, mu, nus, z), alpha,
                 call("df_dalpha", t, x, mu, nus, alpha)),
                (lambda z: call("g", z, mu, nus), x, call("dg_dx", x, mu, nus)),
            ]
            worst_fd = [max(w, _fd_error(*probe))
                        for w, probe in zip(worst_fd, probes)]
        for name, worst in zip(("gradient-df-dx", "gradient-df-dalpha",
                                "gradient-dg-dx"), worst_fd):
            add(name, i, worst <= tol_fd, worst, tol_fd)

        # -- measure-derivative checks through the particle lift
        if cost.df_dmu is not None or cost.dg_dmu is not None:
            worst_mu = 0.0
            for t, clouds in contexts[:3]:
                mu, nus = measure_args(spec, i, clouds)
                x = rng.standard_normal((1, d))
                alpha = _feasible(pop, i, rng, 1)
                H = rng.standard_normal(mu.points.shape)
                for name, dname, head, tail in (
                        ("f", "df_dmu", (t, x), (alpha,)),
                        ("g", "dg_dmu", (x,), ())):
                    D = call(dname, *head, mu, nus, *tail, mu.points)
                    if D is not None:
                        worst_mu = max(worst_mu, _lift_error(
                            lambda cloud: call(name, *head, cloud, nus, *tail),
                            D, mu, H))
            add("gradient-measure", i, worst_mu <= 1e-5, worst_mu, 1e-5)

        # -- convexity modulus of f in alpha
        min_gap = np.inf
        scale_f = 1.0
        for t, clouds in contexts:
            mu, nus = measure_args(spec, i, clouds)
            x = 2.0 * rng.standard_normal((200, d))
            a1 = _feasible(pop, i, rng, 200)
            a2 = _feasible(pop, i, rng, 200)
            f1 = call("f", t, x, mu, nus, a1)
            grad = call("df_dalpha", t, x, mu, nus, a1)
            delta = a2 - a1
            gap = (call("f", t, x, mu, nus, a2) - f1
                   - np.sum(grad * delta, axis=1)
                   - lam * np.sum(delta**2, axis=1))
            min_gap = min(min_gap, float(gap.min()))
            scale_f = max(scale_f, float(np.max(np.abs(f1))))
        tol_cx = 1e-10 * scale_f
        add("convexity-lambda", i, min_gap >= -tol_cx, min_gap, tol_cx,
            "min convexity gap over sampled pairs")

        # -- slope bounds and intercept growth, gated by the affine flags; a
        # zero K + L * moments bound (zero in every context or none: K = L =
        # 0, or K = 0 with no moments read) reads the intercept norm itself
        if flags.affine_cooperative if cooperative else flags.affine_competitive:
            worst_slope = worst_ratio = 0.0
            slope_detail = ""
            for t, clouds in contexts:
                mu, nus = measure_args(spec, i, clouds)
                for label, args in (("b1", (mu, nus)), ("b2", (mu, nus)),
                                    ("s1", (mu, nus)), ("b1_bar", (nus,)),
                                    ("s1_bar", (nus,))):
                    arr = call(label, t, *args)
                    nrm = 0.0 if arr is None else _spectral(arr)
                    if nrm > worst_slope:
                        worst_slope, slope_detail = nrm, label
                moments = (sum(c.moment2 for c in nus) if cooperative
                           else mu.moment2 + sum(c.moment2 for c in nus))
                bound = K + L * moments
                for label in ("b0", "s0"):
                    nrm = _spectral(call(label, t, mu, nus))
                    worst_ratio = max(worst_ratio, nrm / bound if bound else nrm)
            add("slope-bounds", i, worst_slope <= L + 1e-9, worst_slope,
                L + 1e-9, "largest slope norm at %s" % slope_detail)
            tol_ig = 1.0 + 1e-9 if bound else 1e-9
            add("intercept-growth", i, worst_ratio <= tol_ig, worst_ratio,
                tol_ig, "|intercept| relative to K + L * moment bound"
                if bound else "|intercept| under a zero K + L * moment bound")

        # -- declared measure-free intercepts: a cooperative population's
        # frozen others move, or a competitive population's own law
        if (flags.cooperative_measure_free_intercepts and m > 1 if cooperative
                else flags.mixed_fringe_own_law_free_intercepts):
            t, clouds = contexts[0]
            mu, nus = measure_args(spec, i, clouds)
            mu_b, nus_b = measure_args(spec, i, contexts[3][1])
            moved = (mu, nus_b) if cooperative else (mu_b, nus)
            diffv = max(float(np.max(np.abs(call(c, t, mu, nus)
                                            - call(c, t, *moved))))
                        for c in ("b0", "s0"))
            add("flag-cooperative-intercepts" if cooperative
                else "flag-fringe-intercepts", i, diffv <= 1e-12, diffv,
                1e-12, "b0/s0 must not vary with the %s"
                % ("frozen measures" if cooperative else "own law"))

        # -- declared quadratic structure
        if cost.quadratic_in_alpha:
            worst_q = 0.0
            for t, clouds in contexts[:3]:
                mu, nus = measure_args(spec, i, clouds)
                x = rng.standard_normal((32, d))
                alpha = _feasible(pop, i, rng, 32)
                lin = call("quad_linear", t, x, mu, nus)
                if lin is None:
                    lin = np.zeros((32, k))
                grad = alpha @ cost.quad_q + lin
                an = call("df_dalpha", t, x, mu, nus, alpha)
                worst_q = max(worst_q, float(np.max(np.abs(grad - an))))
                const = call("quad_const", t, x, mu, nus)
                if const is not None:
                    qf = (0.5 * np.einsum("nk,kl,nl->n", alpha, cost.quad_q, alpha)
                          + np.sum(lin * alpha, axis=1) + const)
                    worst_q = max(worst_q, float(np.max(np.abs(
                        qf - call("f", t, x, mu, nus, alpha)))))
            add("quadratic-consistency", i, worst_q <= 1e-8, worst_q, 1e-8)
            eig_min = float(np.linalg.eigvalsh(cost.quad_q).min())
            add("quadratic-curvature-floor", i, eig_min >= 2 * lam - 1e-9,
                eig_min, 2 * lam - 1e-9,
                "control cost curvature must cover twice the convexity modulus")

        # -- declared initial moments
        if pop.initial_mean is not None and pop.initial_cov is not None:
            draws = call("initial_law",
                         substream(seed, "validate-init:%d" % i), 4096)
            mean_err = np.abs(draws.mean(axis=0) - pop.initial_mean)
            mean_tol = 6.0 * draws.std(axis=0, ddof=1) / np.sqrt(len(draws)) + 1e-12
            cov = np.cov(draws.T).reshape(d, d)
            var = np.diag(pop.initial_cov)
            cov_se = np.sqrt((np.outer(var, var) + pop.initial_cov**2) / len(draws))
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
