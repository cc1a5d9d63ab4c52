"""Game specifications: coefficients, costs, constants, and validation.

A game couples m populations. Each population has affine-in-state-and-
control drift and diffusion, running and terminal costs, an action set,
and a cooperation kind: competitive populations optimize against frozen
flows of every population (their own included), cooperative ones control
their own law in the McKean-Vlasov sense while the other populations'
flows stay frozen.

Batch conventions used by every callable field:

    b0(t, mu, nus)            -> (d,)
    b1(t, mu, nus)            -> (d, d)
    b2(t, mu, nus)            -> (d, k)
    b1_bar(t, nus)            -> (d, d)      cooperative only, acts on the own mean
    s0(t, mu, nus)            -> (d, d)
    s1(t, mu, nus)            -> (d, d, d)   sigma_jl = s0_jl + sum_m s1[j,l,m] x_m
    s1_bar(t, nus)            -> (d, d, d)   cooperative only, contracted with the own mean
    f(t, x, mu, nus, alpha)   -> (n,)        with x (n, d), alpha (n, k)
    df_dx, df_dalpha          -> (n, d), (n, k)
    g(x, mu, nus), dg_dx      -> (n,), (n, d)
    quad_linear(t, x, mu, nus), quad_const -> (n, k), (n,)
    df_dmu(t, x, mu, nus, alpha, v) -> (n, nv, d) or (n, 1, d) when constant in v
    dg_dmu(x, mu, nus, v)           -> (n, nv, d) or (n, 1, d)
    initial_law(rng, n)       -> (n, d)

`mu` is the own-population cloud, `nus` the tuple of the other
populations' clouds in increasing population-index order.
"""

from dataclasses import dataclass, field

import numpy as np

COMPETITIVE = "competitive"
COOPERATIVE = "cooperative"


class CoefficientError(RuntimeError):
    """Raised when a model callable fails or returns a bad shape."""


def _frozen_array(x, shape=None):
    arr = np.array(x, dtype=float)
    if shape is not None:
        arr = arr.reshape(shape)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModelConstants:
    """Structural constants: Lipschitz level, convexity modulus, growth."""

    lipschitz_L: float
    convexity_lambda: float
    growth_K: float

    def __post_init__(self):
        # NaN and infinity fail too
        if not 0 <= self.lipschitz_L < np.inf:
            raise ValueError("lipschitz_L must be nonnegative and finite")
        if not 0 < self.convexity_lambda < np.inf:
            raise ValueError("convexity_lambda must be positive and finite")
        if not 0 <= self.growth_K < np.inf:
            raise ValueError("growth_K must be nonnegative and finite")


@dataclass(frozen=True, eq=False)
class ActionSet:
    """Closed convex action set with a projection and an anchor point.

    kind is one of "full-space", "box" (componentwise bounds), or
    "user-projection" (caller supplies the projection map, which must be
    idempotent and non-expansive; validate_game probes both).
    """

    dimension: int
    kind: str = "full-space"
    lower: np.ndarray = None
    upper: np.ndarray = None
    projection: object = None
    anchor_point: np.ndarray = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("action dimension must be at least 1")
        if self.kind not in ("full-space", "box", "user-projection"):
            raise ValueError("unknown action set kind %r" % (self.kind,))
        if self.kind == "box":
            if self.lower is None or self.upper is None:
                raise ValueError("box action set needs lower and upper")
            lo = _frozen_array(self.lower, (self.dimension,))
            hi = _frozen_array(self.upper, (self.dimension,))
            if np.any(lo > hi):
                raise ValueError("box lower bound exceeds upper bound")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)
        if self.kind == "user-projection" and not callable(self.projection):
            raise ValueError("user-projection action set needs a callable")
        anchor = self.anchor_point
        if anchor is None:
            anchor = np.zeros(self.dimension)
        anchor = _frozen_array(anchor, (self.dimension,))
        object.__setattr__(self, "anchor_point", anchor)
        proj = self.project(anchor[None, :])[0]
        if not np.allclose(proj, anchor, atol=1e-12):
            raise ValueError("anchor point must belong to the action set")

    def project(self, alphas):
        """Project a batch (n, k) onto the set."""
        alphas = np.asarray(alphas, dtype=float)
        if self.kind == "full-space":
            return alphas
        if self.kind == "box":
            return np.clip(alphas, self.lower, self.upper)
        out = np.asarray(self.projection(alphas), dtype=float)
        if out.shape != alphas.shape:
            raise CoefficientError(
                "user projection changed shape %s -> %s"
                % (alphas.shape, out.shape)
            )
        return out


@dataclass(frozen=True, eq=False)
class DriftCoefficients:
    b0: object
    b1: object
    b2: object
    b1_bar: object = None


@dataclass(frozen=True, eq=False)
class DiffusionCoefficients:
    s0: object
    s1: object = None
    s1_bar: object = None


@dataclass(frozen=True, eq=False)
class CostFunctions:
    f: object
    g: object
    df_dx: object
    df_dalpha: object
    dg_dx: object
    df_dmu: object = None
    dg_dmu: object = None
    quadratic_in_alpha: bool = False
    quad_q: np.ndarray = None
    quad_linear: object = None
    quad_const: object = None
    # set from quad_q on every construction, dataclasses.replace included
    quad_q_inv: np.ndarray = field(default=None, init=False, repr=False)
    quad_q_diagonal: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        if self.quadratic_in_alpha:
            if self.quad_q is None:
                raise ValueError("quadratic cost needs quad_q")
            q = np.atleast_2d(np.asarray(self.quad_q, dtype=float))
            if q.shape[0] != q.shape[1]:
                raise ValueError("quad_q must be square")
            if not np.allclose(q, q.T, atol=1e-12):
                raise ValueError("quad_q must be symmetric")
            if np.linalg.eigvalsh(q).min() <= 0:
                raise ValueError("quad_q must be positive definite")
            q.setflags(write=False)
            q_inv = np.linalg.inv(q)
            q_inv.setflags(write=False)
            object.__setattr__(self, "quad_q", q)
            object.__setattr__(self, "quad_q_inv", q_inv)
            object.__setattr__(self, "quad_q_diagonal",
                               not np.count_nonzero(q - np.diag(np.diag(q))))


@dataclass(frozen=True)
class StructuralFlags:
    """Declared structure used to gate the finite-agent analyses.

    affine_competitive / affine_cooperative: the affine coefficient bounds
    hold for the populations of that kind (slopes bounded by L, intercepts
    growing at most linearly in the measure moments).
    cooperative_measure_free_intercepts: cooperative populations' b0 and
    s0 do not depend on the frozen other-population measures (required for
    whole-population deviation analysis).
    mixed_fringe_own_law_free_intercepts: competitive populations' b0 and
    s0 do not depend on their own law (required for single-deviator
    analysis in mixed games).
    """

    affine_competitive: bool = False
    affine_cooperative: bool = False
    cooperative_measure_free_intercepts: bool = False
    mixed_fringe_own_law_free_intercepts: bool = False


@dataclass(frozen=True, eq=False)
class PopulationLq:
    """Linear-quadratic data block for populations that have it.

    Drift  A x + A_bar mu_bar + sum_j C_j nu_bar_j + B alpha + a, constant
    diffusion sigma. Running cost (alpha' R alpha)/2 plus
    |x - S mu_bar - sum_j S_bar_j nu_bar_j - s|^2_W / 2, terminal cost
    |x - G mu_bar - sum_j G_bar_j nu_bar_j - h|^2_Wg / 2. Cross-population
    tuples follow increasing population-index order.
    """

    A: np.ndarray
    B: np.ndarray
    sigma: np.ndarray
    R: np.ndarray
    W: np.ndarray
    Wg: np.ndarray
    A_bar: np.ndarray = None
    C: tuple = ()
    a: np.ndarray = None
    S: np.ndarray = None
    S_bar: tuple = ()
    s: np.ndarray = None
    G: np.ndarray = None
    G_bar: tuple = ()
    h: np.ndarray = None

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.A, dtype=float)).shape[0]
        k = np.atleast_2d(np.asarray(self.B, dtype=float)).reshape(d, -1).shape[1]
        def mat(name, val, shape):
            if val is None:
                val = np.zeros(shape)
            object.__setattr__(self, name, _frozen_array(val, shape))
        mat("A", self.A, (d, d))
        mat("B", self.B, (d, k))
        mat("sigma", self.sigma, (d, d))
        mat("R", self.R, (k, k))
        mat("W", self.W, (d, d))
        mat("Wg", self.Wg, (d, d))
        mat("A_bar", self.A_bar, (d, d))
        mat("a", self.a, (d,))
        mat("S", self.S, (d, d))
        mat("s", self.s, (d,))
        mat("G", self.G, (d, d))
        mat("h", self.h, (d,))
        for name in ("C", "S_bar", "G_bar"):
            vals = tuple(_frozen_array(v, (d, d)) for v in getattr(self, name))
            object.__setattr__(self, name, vals)

    @property
    def dim_x(self):
        return self.A.shape[0]

    @property
    def dim_a(self):
        return self.B.shape[1]

    def cross(self, name, j):
        """Cross-population matrix j of C / S_bar / G_bar, zeros if absent."""
        tup = getattr(self, name)
        if j < len(tup):
            return tup[j]
        return np.zeros((self.dim_x, self.dim_x))


@dataclass(frozen=True, eq=False)
class PopulationSpec:
    state_dim: int
    drift: DriftCoefficients
    diffusion: DiffusionCoefficients
    cost: CostFunctions
    action_set: ActionSet
    cooperation: str
    initial_law: object
    moment_order: float = 8.0
    initial_mean: np.ndarray = None
    initial_cov: np.ndarray = None
    lq: PopulationLq = None
    label: str = ""

    def __post_init__(self):
        if self.state_dim < 1:
            raise ValueError("state_dim must be at least 1")
        if self.cooperation not in (COMPETITIVE, COOPERATIVE):
            raise ValueError(
                "cooperation must be %r or %r" % (COMPETITIVE, COOPERATIVE)
            )
        if self.cooperation == COMPETITIVE:
            if self.drift.b1_bar is not None or self.diffusion.s1_bar is not None:
                raise ValueError(
                    "competitive populations must not use own-mean terms "
                    "(b1_bar, s1_bar)"
                )
        else:
            if self.cost.df_dmu is None or self.cost.dg_dmu is None:
                raise ValueError(
                    "cooperative populations must supply df_dmu and dg_dmu"
                )
        if not callable(self.initial_law):
            raise ValueError("initial_law must be callable (rng, n) -> (n, d)")
        if self.initial_mean is not None:
            object.__setattr__(
                self, "initial_mean",
                _frozen_array(self.initial_mean, (self.state_dim,)),
            )
        if self.initial_cov is not None:
            object.__setattr__(
                self, "initial_cov",
                _frozen_array(self.initial_cov, (self.state_dim, self.state_dim)),
            )


@dataclass(frozen=True, eq=False)
class GameSpec:
    populations: tuple
    horizon: float
    constants: ModelConstants
    structural_flags: StructuralFlags = field(default_factory=StructuralFlags)
    name: str = ""

    def __post_init__(self):
        pops = tuple(self.populations)
        if not pops:
            raise ValueError("need at least one population")
        for p in pops:
            if not isinstance(p, PopulationSpec):
                raise ValueError("populations must be PopulationSpec instances")
        object.__setattr__(self, "populations", pops)
        if not 0 < self.horizon < np.inf:  # NaN fails too
            raise ValueError("horizon must be positive and finite")

    @property
    def n_populations(self):
        return len(self.populations)

    def others(self, i):
        """Indices of the populations other than i, increasing."""
        return tuple(j for j in range(self.n_populations) if j != i)


def measure_args(spec, i, clouds):
    """Split a per-population cloud list into (own, others) for population i."""
    mu = clouds[i]
    nus = tuple(clouds[j] for j in spec.others(i))
    return mu, nus


# ---------------------------------------------------------------------------
# Linear-quadratic population factory


def gaussian_initial_law(mean, std):
    """Initial sampler for an isotropic-per-coordinate Gaussian."""
    mean = _frozen_array(mean)
    std = _frozen_array(std) if np.ndim(std) else float(std)

    def draw(rng, n):
        return mean[None, :] + std * rng.standard_normal((n, mean.shape[0]))

    return draw


def population_from_lq(lq, cooperation, initial_law, initial_mean,
                       initial_cov, moment_order=8.0, action_set=None,
                       label=""):
    """Build a PopulationSpec whose callables realize an LQ data block."""
    d, k = lq.dim_x, lq.dim_a
    # np.dot, not @: @ skips BLAS when d or k is 1 (see hamiltonian.py)

    def half_quad(e, M):
        # ~4x faster at d = 2 than einsum("nd,de,ne->n"); same bits at d = 1
        return 0.5 * np.einsum("nd,nd->n", np.dot(e, M), e)

    def _target(mu, nus, M, name, const):
        tgt = M @ mu.mean + const
        for j, cloud in enumerate(nus):
            tgt = tgt + lq.cross(name, j) @ cloud.mean
        return tgt

    def b0(t, mu, nus):
        out = lq.a.copy()
        for j, cloud in enumerate(nus):
            out = out + lq.cross("C", j) @ cloud.mean
        return out

    def b1(t, mu, nus):
        return lq.A

    def b2(t, mu, nus):
        return lq.B

    def s0(t, mu, nus):
        return lq.sigma

    def quad_const(t, x, mu, nus):
        e = x - _target(mu, nus, lq.S, "S_bar", lq.s)[None, :]
        return half_quad(e, lq.W)

    def f(t, x, mu, nus, alpha):
        return half_quad(alpha, lq.R) + quad_const(t, x, mu, nus)

    def df_dx(t, x, mu, nus, alpha):
        e = x - _target(mu, nus, lq.S, "S_bar", lq.s)[None, :]
        return np.dot(e, lq.W)

    def df_dalpha(t, x, mu, nus, alpha):
        return np.dot(alpha, lq.R)

    def g(x, mu, nus):
        e = x - _target(mu, nus, lq.G, "G_bar", lq.h)[None, :]
        return half_quad(e, lq.Wg)

    def dg_dx(x, mu, nus):
        e = x - _target(mu, nus, lq.G, "G_bar", lq.h)[None, :]
        return np.dot(e, lq.Wg)

    def quad_linear(t, x, mu, nus):
        return np.zeros((x.shape[0], k))

    df_dmu = None
    dg_dmu = None
    b1_bar = None
    if cooperation == COOPERATIVE:

        def b1_bar(t, nus):
            return lq.A_bar

        def df_dmu(t, x, mu, nus, alpha, v):
            return -np.dot(df_dx(t, x, mu, nus, alpha), lq.S)[:, None, :]

        def dg_dmu(x, mu, nus, v):
            return -np.dot(dg_dx(x, mu, nus), lq.G)[:, None, :]

    if action_set is None:
        action_set = ActionSet(dimension=k)
    return PopulationSpec(
        state_dim=d,
        drift=DriftCoefficients(b0=b0, b1=b1, b2=b2, b1_bar=b1_bar),
        diffusion=DiffusionCoefficients(s0=s0),
        cost=CostFunctions(
            f=f, g=g, df_dx=df_dx, df_dalpha=df_dalpha, dg_dx=dg_dx,
            df_dmu=df_dmu, dg_dmu=dg_dmu,
            quadratic_in_alpha=True, quad_q=lq.R,
            quad_linear=quad_linear, quad_const=quad_const,
        ),
        action_set=action_set,
        cooperation=cooperation,
        initial_law=initial_law,
        moment_order=moment_order,
        initial_mean=initial_mean,
        initial_cov=initial_cov,
        lq=lq,
        label=label,
    )


# ---------------------------------------------------------------------------
# Builtin model library


def _lq1(**kw):
    """Scalar (d = k = 1) LQ block from plain floats."""
    args = {}
    for name, val in kw.items():
        if name in ("C", "S_bar", "G_bar"):
            args[name] = tuple(np.array([[v]]) for v in val)
        elif name in ("a", "s", "h"):
            args[name] = np.array([val])
        else:
            args[name] = np.array([[val]])
    return PopulationLq(**args)


def _game(name, *pops, lipschitz_L=1.0, flags=(True,) * 4):
    """A builtin game: horizon 1, constants (lipschitz_L, 0.5, 1.0)."""
    return GameSpec(populations=pops, horizon=1.0,
                    constants=ModelConstants(lipschitz_L, 0.5, 1.0),
                    structural_flags=StructuralFlags(*flags), name=name)


def _scalar_pop(cooperation, label, mean, var, law=None, **lq):
    """A scalar LQ population declaring initial mean and variance; its law
    defaults to the Gaussian with those moments. The declared variance
    keeps the literal's bits (0.4 * 0.4 != 0.16, sqrt(0.16) == 0.4)."""
    if law is None:
        law = gaussian_initial_law([mean], np.sqrt(var))
    return population_from_lq(_lq1(**lq), cooperation, law,
                              initial_mean=[mean], initial_cov=[[var]],
                              label=label)


def _make_lq_scalar():
    return _game("lq-scalar", _scalar_pop(
        COMPETITIVE, "agent", 0.0, 1.0,
        A=0.0, B=1.0, sigma=1.0, R=1.0, W=1.0, Wg=0.5))


def _make_lq_1pop():
    return _game("lq-1pop", _scalar_pop(
        COMPETITIVE, "crowd", 1.0, 0.25,
        A=0.0, B=1.0, sigma=1.0, R=1.0, W=1.0, Wg=0.5, S=0.3))


def split_crowd_initial_law(center, half_width):
    """Two compact clusters at +-center, each a Beta(2, 2) bump.

    The gap between clusters makes the empirical measure converge at the
    square-root-in-N rate: a binomial share imbalance of order 1/sqrt(N)
    has to be transported across the fixed gap, and that term dominates
    the within-cluster error. Laws without such a separated bulk (for
    example Gaussian ones) concentrate faster in one dimension, which
    hides the generic rate at accessible sample sizes.
    """
    def law(rng, n):
        bump = 2.0 * rng.beta(2.0, 2.0, size=(int(n), 1)) - 1.0
        sign = np.where(rng.random((int(n), 1)) < 0.5, -1.0, 1.0)
        return sign * (float(center) + float(half_width) * bump)

    return law


def _make_lq_bimodal():
    center = 0.8
    half_width = 0.2
    return _game("lq-bimodal", _scalar_pop(
        COMPETITIVE, "split-crowd", 0.0,
        center * center + half_width * half_width * 0.2,
        law=split_crowd_initial_law(center, half_width),
        A=0.0, B=1.0, sigma=0.4, R=1.0, W=1.0, Wg=0.5, S=0.3))


def _make_lq_2pop_competitive():
    return _game(
        "lq-2pop-competitive",
        _scalar_pop(COMPETITIVE, "buyers", 1.0, 0.25, A=0.0, B=1.0,
                    sigma=1.0, R=1.0, W=1.0, Wg=0.5, S_bar=(0.25,)),
        _scalar_pop(COMPETITIVE, "sellers", -1.0, 0.25, A=0.0, B=1.0,
                    sigma=1.0, R=1.0, W=1.0, Wg=0.5, S_bar=(0.35,)),
    )


def _make_lq_2pop_cooperative():
    fleet = dict(A=-0.2, A_bar=0.15, B=1.0, sigma=0.8, R=1.0, W=1.0,
                 Wg=0.5, S=0.3, S_bar=(0.2,), G=0.25)
    return _game(
        "lq-2pop-cooperative",
        _scalar_pop(COOPERATIVE, "fleet-a", 1.0, 0.25, **fleet),
        _scalar_pop(COOPERATIVE, "fleet-b", -0.5, 0.25, **fleet),
    )


def _make_mixed_opec():
    return _game(
        "mixed-opec",
        _scalar_pop(COOPERATIVE, "cartel", 1.5, 0.16, A=-0.2, A_bar=0.1,
                    B=1.0, C=(0.1,), sigma=0.6, R=1.0, W=1.0, Wg=0.5,
                    S=0.2, S_bar=(0.2,), G=0.2),
        _scalar_pop(COMPETITIVE, "fringe", 0.5, 0.16, A=0.0, B=1.0,
                    sigma=0.8, R=1.0, W=1.0, Wg=0.5, S_bar=(0.3,)),
        # the cartel's drift intercept reads the fringe's mean through C
        flags=(True, True, False, True),
    )


def _make_nonlq_box():
    def b0(t, mu, nus):
        return np.zeros(1)

    def b1(t, mu, nus):
        return np.zeros((1, 1))

    def b2(t, mu, nus):
        return np.array([[0.5]])

    def s0(t, mu, nus):
        return np.array([[0.7]])

    def f(t, x, mu, nus, alpha):
        return np.cosh(alpha[:, 0]) - 1.0 + 0.5 * x[:, 0] ** 2

    def df_dx(t, x, mu, nus, alpha):
        return x.copy()

    def df_dalpha(t, x, mu, nus, alpha):
        return np.sinh(alpha)

    def g(x, mu, nus):
        return 0.25 * x[:, 0] ** 2

    def dg_dx(x, mu, nus):
        return 0.5 * x

    pop = PopulationSpec(
        state_dim=1,
        drift=DriftCoefficients(b0=b0, b1=b1, b2=b2),
        diffusion=DiffusionCoefficients(s0=s0),
        cost=CostFunctions(f=f, g=g, df_dx=df_dx, df_dalpha=df_dalpha,
                           dg_dx=dg_dx),
        action_set=ActionSet(dimension=1, kind="box", lower=[-1.0],
                             upper=[1.0]),
        cooperation=COMPETITIVE,
        initial_law=gaussian_initial_law([0.0], 0.6),
        moment_order=8.0,
        initial_mean=[0.0],
        initial_cov=[[0.36]],
        label="bounded-effort",
    )
    return _game("nonlq-box", pop, lipschitz_L=2.0)


_BUILTIN_BUILDERS = {
    "lq-scalar": _make_lq_scalar,
    "lq-1pop": _make_lq_1pop,
    "lq-bimodal": _make_lq_bimodal,
    "lq-2pop-competitive": _make_lq_2pop_competitive,
    "lq-2pop-cooperative": _make_lq_2pop_cooperative,
    "mixed-opec": _make_mixed_opec,
    "nonlq-box": _make_nonlq_box,
}
_BUILTIN_CACHE = {}


def builtin_library():
    """All builtin models, keyed by name."""
    return {name: builtin_game(name) for name in _BUILTIN_BUILDERS}


def builtin_game(name):
    """Look up one builtin model by key, with a helpful error."""
    if name not in _BUILTIN_BUILDERS:
        raise KeyError(
            "unknown builtin model %r; available: %s"
            % (name, ", ".join(sorted(_BUILTIN_BUILDERS)))
        )
    if name not in _BUILTIN_CACHE:
        _BUILTIN_CACHE[name] = _BUILTIN_BUILDERS[name]()
    return _BUILTIN_CACHE[name]
