"""Synthetic dynamic-panel generation and Monte Carlo harness.

The generator draws y_{a,t} = rho y_{a,t-1} + x_{a,t}'beta + omega_a +
eps_{a,t} with omega_a ~ N(0, sigma_effect^2). Entity a of replication r
draws from its own stream: numpy's PCG64 seeded by
``SeedSequence(seed, spawn_key=(r, a))``, so every dataset is
reproducible cell for cell. Those states are computed for all entities
at once (``_entity_streams``) rather than by numpy's constructors, which
cost most of a generated entity's time; the 152 digests in
``tests/data/golden/generate_digests.json`` and a test of the states
against numpy's own pin the contract. The harness fits a list of
estimator configurations on each replication and aggregates bias, RMSE,
SE calibration, and rejection rates.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .diagnostics import j_test
from .errors import DynpanelError
from .estimators import (
    ONE_STEP,
    TWO_STEP,
    EstimationResult,
    ExogTerm,
    ModelSpec,
    Weighting,
    fit_fixed_effects,
    fit_gmm,
    fit_pooled,
    fit_random_effects,
)
from .instruments import DynamicInstrument, InstrumentSpec, StaticInstrument
from .panel import PanelDataset, PanelSeries
from .transforms import TransformKind


@dataclass(frozen=True)
class DgpSpec:
    """Parameters of the simulated dynamic panel."""

    n_entities: int
    n_periods: int
    rho: float = 0.5
    exogenous_betas: tuple[float, ...] = (1.0,)
    sigma_effect: float = 1.0
    sigma_noise: float = 1.0
    burn_in: int = 50
    missingness: float = 0.0
    seed: int = 0
    effect_loading: float = 0.0  # adds effect_loading * omega_a to every x
    y0: float | None = None     # fixed start value instead of burn-in

    def __post_init__(self):
        if not abs(self.rho) < 1:
            raise ValueError("|rho| must be < 1 for a stationary panel")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if not 0.0 <= self.missingness < 1.0:
            raise ValueError("missingness must be in [0, 1)")
        if self.n_entities < 1 or self.n_periods < 1:
            raise ValueError("need at least one entity and one period")
        _require_non_negative_int("seed", self.seed)


def _require_non_negative_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and the
# multiplier of PCG64's 128-bit LCG (numpy/random/src/pcg64/pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(n: int) -> list[int]:
    """The little-endian uint32 words of a non-negative int (one word for 0)."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _entity_streams(seed: int, replication: int, entities: np.ndarray) -> list[dict]:
    """The PCG64 state of ``SeedSequence(seed, spawn_key=(replication, a))`` for each a.

    Runs numpy's SeedSequence algorithm with wrapping uint32 arithmetic
    over the entity indices (each below 2**32): the entropy is the seed's
    words padded with zeros to the pool size, the replication's words and
    the entity's word; it is mixed into a pool of 4 words, from which
    ``generate_state(4, uint64)`` draws PCG64's seed and increment. Only the
    last entropy word differs between entities. PCG64's seeding, two steps
    of its 128-bit LCG, then runs on Python ints. Each result equals
    ``np.random.PCG64(np.random.SeedSequence(...)).state``.
    """
    entities = np.asarray(entities, dtype=np.uint32)
    run = _words(int(seed))
    run += [0] * (_POOL_SIZE - len(run))
    entropy = [np.full(entities.shape, w, dtype=np.uint32) for w in run + _words(int(replication))]
    entropy.append(entities)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state_words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state_words.append(value ^ (value >> np.uint32(16)))
    # uint64 k joins uint32 words 2k (low half) and 2k + 1
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (state_words[2 * k + 1].astype(np.uint64) << np.uint64(32) | state_words[2 * k]).tolist()
        for k in range(4)
    )
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def generate(dgp: DgpSpec, replication: int = 0) -> PanelDataset:
    """Simulate one panel; fully deterministic given (spec, replication).

    Entity a draws from numpy's PCG64 seeded by
    ``SeedSequence(dgp.seed, spawn_key=(replication, a))``: omega, the x
    paths and the noise in one ``standard_normal`` call, then the
    missingness mask, so panels are reproducible across runs and
    platforms. numpy's constructors are not called per entity:
    ``_entity_streams`` computes every entity's state at once and one
    reused generator is set to each in turn. The 152 golden digests and a
    test of those states against numpy's pin this. The time recursion
    then runs once across all entities. With ``y0`` set the recursion
    starts from that value at the first period and no burn-in is applied;
    otherwise the start is drawn near the stationary mean and ``burn_in``
    periods are discarded.
    """
    _require_non_negative_int("replication", replication)
    n_x = len(dgp.exogenous_betas)
    N, T = dgp.n_entities, dgp.n_periods
    burn = 0 if dgp.y0 is not None else dgp.burn_in
    total = burn + T
    betas = np.asarray(dgp.exogenous_betas)
    draws = np.empty((N, 1 + (n_x + 1) * total))
    uniform = np.empty((N, T))
    bit_generator = np.random.PCG64(0)  # set to each entity's state below
    rng = np.random.Generator(bit_generator)
    for state, row, u in zip(_entity_streams(dgp.seed, replication, np.arange(N)), draws, uniform):
        bit_generator.state = state
        rng.standard_normal(out=row)
        if dgp.missingness > 0.0:
            rng.random(out=u)
    omega = draws[:, 0]
    x_path = draws[:, 1:1 + n_x * total].reshape(N, n_x, total)
    eps = draws[:, 1 + n_x * total:]
    keep = np.ones((N, T), dtype=bool)
    if dgp.missingness > 0.0:
        drop = uniform < dgp.missingness
        drop[drop.all(axis=1), 0] = False  # keep every entity observable
        keep = ~drop
    omega *= dgp.sigma_effect
    x_path += dgp.effect_loading * omega[:, None, None]
    eps *= dgp.sigma_noise
    if n_x == 1:
        bx = betas[0] * x_path[:, 0]
    else:
        # the per-cell dot product fixes the rounding of x'beta
        bx = np.array([[betas @ x[:, t] for t in range(total)] for x in x_path])

    path = np.empty((N, total))
    if dgp.y0 is not None:
        path[:, 0] = yt = np.full(N, float(dgp.y0))
        first = 1
    else:
        x_mean = dgp.effect_loading * omega
        yt = (omega + float(betas.sum()) * x_mean) / (1.0 - dgp.rho)
        first = 0
    for t in range(first, total):
        yt = dgp.rho * yt + bx[:, t] + omega + eps[:, t]
        path[:, t] = yt
    grids = {"y": path[:, burn:], **{f"x{j + 1}": x_path[:, j, burn:] for j in range(n_x)}}
    series = {name: PanelSeries(np.where(keep, g, np.nan), keep.copy()) for name, g in grids.items()}
    entities = tuple(f"e{a + 1}" for a in range(N))
    return PanelDataset(entities, tuple(range(1, T + 1)), series)


def ar1_model(
    transform: TransformKind,
    n_x: int = 1,
    intercept: bool | None = None,
) -> ModelSpec:
    """Model spec matching the generator's naming: y on y(-1) and the x's."""
    if intercept is None:
        intercept = transform in (TransformKind.NONE, TransformKind.QUASI_DEMEAN)
    effects = {
        TransformKind.WITHIN: "fixed",
        TransformKind.QUASI_DEMEAN: "random",
    }.get(transform, "none")
    return ModelSpec(
        dependent="y",
        ar_lags=1,
        exogenous=tuple(ExogTerm(f"x{j + 1}") for j in range(n_x)),
        intercept=intercept,
        effects=effects,
        transform=transform,
    )


def fd_od_comparison_configs(
    n_x: int = 1,
    weighting: Weighting = ONE_STEP,
) -> list["EstimatorConfig"]:
    """The canonical FD-vs-OD comparison pair.

    Each transform is instrumented with its three freshest valid
    lagged levels of the dependent variable: differencing contaminates
    the lag-1 level (it contains the differenced-away error), so FD
    starts at lag 2; forward deviations touch only current and future
    errors, so OD may start at lag 1. At unbounded depth the two moment
    sets span the same space and the estimators coincide; the bounded
    fresh-lag sets expose the deviation transform's advantage.
    """
    statics = tuple(StaticInstrument(f"x{j + 1}", 0, 0) for j in range(n_x))
    od_inst = InstrumentSpec(
        dynamic=(DynamicInstrument("y", 1, 3),), static=statics
    )
    fd_inst = InstrumentSpec(
        dynamic=(DynamicInstrument("y", 2, 4),), static=statics
    )
    return [
        EstimatorConfig(
            "od", ar1_model(TransformKind.ORTHOGONAL_DEVIATION, n_x=n_x),
            od_inst, weighting,
        ),
        EstimatorConfig(
            "fd", ar1_model(TransformKind.FIRST_DIFFERENCE, n_x=n_x),
            fd_inst, weighting,
        ),
    ]


@dataclass(frozen=True)
class EstimatorConfig:
    """One estimator to run each replication."""

    name: str
    model: ModelSpec
    instruments: InstrumentSpec | None = None
    weighting: Weighting = TWO_STEP
    on_singular: str = "error"

    def fit(self, data: PanelDataset) -> EstimationResult:
        if self.instruments is not None:
            return fit_gmm(
                self.model, data, self.instruments,
                weighting=self.weighting, on_singular=self.on_singular,
            )
        if self.model.effects == "fixed":
            return fit_fixed_effects(self.model, data)
        if self.model.effects == "random":
            return fit_random_effects(self.model, data)
        return fit_pooled(self.model, data)


@dataclass(frozen=True)
class CoefStats:
    """Monte Carlo summary for one coefficient of one estimator."""

    true_value: float
    mean: float
    bias: float
    rmse: float
    sd: float
    mean_se: float
    se_sd_ratio: float
    t_rejection: float  # share of |t| > 1.96 against the true value


@dataclass(frozen=True)
class EstimatorSummary:
    name: str
    n_success: int
    n_failed: int
    coef_stats: dict[str, CoefStats]
    j_rejection_rate: float | None = None


@dataclass(frozen=True)
class McSummary:
    """Aggregated Monte Carlo results plus the seed ledger."""

    dgp: DgpSpec
    reps: int
    estimators: tuple[EstimatorSummary, ...]
    seed_ledger: tuple[tuple[int, int], ...] = field(repr=False)  # (seed, replication)

    def estimator(self, name: str) -> EstimatorSummary:
        for e in self.estimators:
            if e.name == name:
                return e
        raise KeyError(f"no estimator {name!r} in summary")

    def to_json_dict(self) -> dict:
        return {
            "dgp": asdict(self.dgp),
            "reps": self.reps,
            "estimators": [
                {
                    "name": e.name,
                    "n_success": e.n_success,
                    "n_failed": e.n_failed,
                    "j_rejection_rate": e.j_rejection_rate,
                    "coefficients": {
                        name: {
                            "true": s.true_value,
                            "mean": s.mean,
                            "bias": s.bias,
                            "rmse": s.rmse,
                            "sd": s.sd,
                            "mean_se": s.mean_se,
                            "se_sd_ratio": s.se_sd_ratio,
                            "t_rejection": s.t_rejection,
                        }
                        for name, s in e.coef_stats.items()
                    },
                }
                for e in self.estimators
            ],
            "seed_ledger": [list(pair) for pair in self.seed_ledger],
        }

    def to_csv(self) -> str:
        """One row per estimator; per-coefficient stats in labeled columns."""
        coef_names: list[str] = []
        for e in self.estimators:
            for n in e.coef_stats:
                if n not in coef_names:
                    coef_names.append(n)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = ["estimator", "n_success", "n_failed", "j_rejection_rate"]
        for n in coef_names:
            header += [f"{n}:bias", f"{n}:rmse", f"{n}:sd", f"{n}:mean_se",
                       f"{n}:se_sd_ratio", f"{n}:t_rejection"]
        writer.writerow(header)
        for e in self.estimators:
            row = [
                e.name, e.n_success, e.n_failed,
                "" if e.j_rejection_rate is None else repr(e.j_rejection_rate),
            ]
            for n in coef_names:
                s = e.coef_stats.get(n)
                if s is None:
                    row += [""] * 6
                else:
                    row += [repr(s.bias), repr(s.rmse), repr(s.sd),
                            repr(s.mean_se), repr(s.se_sd_ratio), repr(s.t_rejection)]
            writer.writerow(row)
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def true_coefficients(dgp: DgpSpec, model: ModelSpec) -> dict[str, float]:
    """Map the model's parameter names onto the generator's truth."""
    truth: dict[str, float] = {}
    if model.ar_lags >= 1:
        truth[f"{model.dependent}(-1)"] = dgp.rho
    for i in range(2, model.ar_lags + 1):
        truth[f"{model.dependent}(-{i})"] = 0.0
    for term in model.exogenous:
        j = int(term.name[1:]) - 1 if term.name.startswith("x") else None
        for l in range(term.lags + 1):
            name = term.name if l == 0 else f"{term.name}(-{l})"
            if l == 0 and j is not None and j < len(dgp.exogenous_betas):
                truth[name] = float(dgp.exogenous_betas[j])
            else:
                truth[name] = 0.0
    return truth


def run_experiment(
    dgp: DgpSpec,
    configs: list[EstimatorConfig],
    reps: int,
) -> McSummary:
    """Fit every configuration on ``reps`` freshly generated panels.

    Replications that fail to estimate are excluded from the averages
    and counted per estimator. The J rejection rate at the 5% level is
    reported for instrumented configurations.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    draws: dict[str, dict[str, list[tuple[float, float]]]] = {
        c.name: {} for c in configs
    }
    j_rejects: dict[str, list[bool]] = {c.name: [] for c in configs}
    failures: dict[str, int] = {c.name: 0 for c in configs}
    ledger: list[tuple[int, int]] = []

    for rep in range(reps):
        data = generate(dgp, replication=rep)
        ledger.append((dgp.seed, rep))
        for cfg in configs:
            try:
                result = cfg.fit(data)
                if cfg.instruments is not None:
                    jt = j_test(result)
                    if jt.df > 0:
                        j_rejects[cfg.name].append(jt.p_value < 0.05)
            except DynpanelError:
                failures[cfg.name] += 1
                continue
            store = draws[cfg.name]
            for i, name in enumerate(result.param_names):
                store.setdefault(name, []).append(
                    (float(result.coefficients[i]), float(result.standard_errors[i]))
                )

    summaries = []
    for cfg in configs:
        truth = true_coefficients(dgp, cfg.model)
        coef_stats: dict[str, CoefStats] = {}
        n_success = reps - failures[cfg.name]
        for name, pairs in draws[cfg.name].items():
            if name not in truth:
                continue
            est = np.array([p[0] for p in pairs])
            ses = np.array([p[1] for p in pairs])
            true_val = truth[name]
            bias = float(est.mean() - true_val)
            rmse = float(np.sqrt(np.mean((est - true_val) ** 2)))
            sd = float(est.std(ddof=1)) if est.size > 1 else 0.0
            mean_se = float(ses.mean())
            with np.errstate(divide="ignore", invalid="ignore"):
                t_rej = float(np.mean(np.abs((est - true_val) / ses) > 1.96))
            coef_stats[name] = CoefStats(
                true_value=true_val,
                mean=float(est.mean()),
                bias=bias,
                rmse=rmse,
                sd=sd,
                mean_se=mean_se,
                se_sd_ratio=mean_se / sd if sd > 0 else float("nan"),
                t_rejection=t_rej,
            )
        j_rate = (
            float(np.mean(j_rejects[cfg.name])) if j_rejects[cfg.name] else None
        )
        summaries.append(
            EstimatorSummary(
                name=cfg.name,
                n_success=n_success,
                n_failed=failures[cfg.name],
                coef_stats=coef_stats,
                j_rejection_rate=j_rate,
            )
        )
    return McSummary(dgp, reps, tuple(summaries), tuple(ledger))
