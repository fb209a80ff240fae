"""The shared OMD/FTRL core against the separate vector and spectral steps it replaced.

The four step functions below are the library's earlier per-geometry
implementations, kept here verbatim (apart from names) as the reference.
The shared core must reproduce their decisions and states bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from expopt import (
    BallConstraint,
    CompositeRegularizer,
    EntropyParams,
    NumericRangeError,
    OmdState,
    ScheduleParams,
    SpectralSchedule,
    SvdFactors,
    elastic_net_prox_from_log,
    ftrl_init,
    ftrl_step,
    l1_ball_project_from_log,
    mirror_map,
    omd_init,
    omd_step,
    resolve_dual_point,
    spectral_ftrl_init,
    spectral_ftrl_step,
    spectral_norm,
    spectral_omd_init,
    spectral_omd_step,
    svd,
)
from expopt.entropy import EXP_ARG_LIMIT

# ---------------------------------------------------------------- reference


@dataclass(frozen=True)
class RefOmdState:
    x: np.ndarray
    sum_sq: float
    h_prev: np.ndarray
    round: int


@dataclass(frozen=True)
class RefFtrlState:
    g_accum: np.ndarray
    x1: np.ndarray
    anchor_dual: np.ndarray
    sum_sq: float
    h_prev: np.ndarray
    round: int
    reg_rounds: float


def ref_omd_init(sched, x1):
    return RefOmdState(x=x1.copy(), sum_sq=0.0, h_prev=np.zeros(sched.dim), round=1)


def ref_omd_step(state, g, sched, mode, h_next, reg_weight):
    diff = g - state.h_prev
    sum_sq = state.sum_sq + float(np.max(np.abs(diff))) ** 2
    alpha = sched.eta * math.sqrt(sched.epsilon0 + sum_sq)
    p = EntropyParams(alpha, sched.beta)
    z = mirror_map(state.x, p) - (diff + h_next)
    x = resolve_dual_point(z, p, mode, reg_weight)
    return RefOmdState(x=x, sum_sq=sum_sq, h_prev=h_next, round=state.round + 1), x


def ref_ftrl_init(sched, x1):
    anchor_dual = np.log1p(np.abs(x1) / sched.beta) * np.sign(x1)
    return RefFtrlState(
        g_accum=np.zeros(sched.dim), x1=x1.copy(), anchor_dual=anchor_dual,
        sum_sq=0.0, h_prev=np.zeros(sched.dim), round=1, reg_rounds=1.0,
    )


def ref_ftrl_step(state, g, sched, mode, h_next, reg_weight):
    diff = g - state.h_prev
    sum_sq = state.sum_sq + float(np.max(np.abs(diff))) ** 2
    alpha = sched.eta * math.sqrt(sched.epsilon0 + sum_sq)
    p = EntropyParams(alpha, sched.beta)
    g_accum = state.g_accum + g
    reg_rounds = state.reg_rounds + reg_weight
    z = alpha * state.anchor_dual - g_accum - h_next
    x = resolve_dual_point(z, p, mode, reg_rounds)
    new_state = RefFtrlState(
        g_accum=g_accum, x1=state.x1, anchor_dual=state.anchor_dual, sum_sq=sum_sq,
        h_prev=h_next, round=state.round + 1, reg_rounds=reg_rounds,
    )
    return new_state, x


def ref_resolve_spectrum(scale, p, mode, reg_weight):
    ones = np.ones_like(scale)
    if mode is None:
        if scale.size and float(np.max(scale)) > EXP_ARG_LIMIT:
            raise NumericRangeError("free-mode spectral iterate exceeds the float range")
        return p.beta * np.expm1(scale)
    if isinstance(mode, BallConstraint):
        m = float(np.max(scale))
        total = m + math.log(float(np.sum(np.exp(scale - m))))
        if total <= math.log(mode.radius / p.beta + scale.size):
            return p.beta * np.expm1(scale)
        return l1_ball_project_from_log(scale, ones, mode, p)
    if isinstance(mode, CompositeRegularizer):
        return elastic_net_prox_from_log(scale, ones, mode.scaled(reg_weight), p)
    raise TypeError(f"unsupported feasibility mode: {mode!r}")


@dataclass(frozen=True)
class RefSpectralOmdState:
    x: np.ndarray
    factors: SvdFactors
    sum_sq: float
    h_prev: np.ndarray
    round: int


@dataclass(frozen=True)
class RefSpectralFtrlState:
    g_accum: np.ndarray
    x1: np.ndarray
    anchor_factors: SvdFactors
    sum_sq: float
    h_prev: np.ndarray
    round: int
    reg_rounds: float


def ref_spectral_omd_init(sched, x1):
    return RefSpectralOmdState(
        x=x1.copy(), factors=svd(x1), sum_sq=0.0, h_prev=np.zeros((sched.m, sched.n)), round=1
    )


def ref_spectral_omd_step(state, g, sched, mode, h_next, reg_weight):
    diff = g - state.h_prev
    sum_sq = state.sum_sq + spectral_norm(diff) ** 2
    alpha = sched.eta * math.sqrt(sched.epsilon0 + sum_sq)
    p = EntropyParams(alpha, sched.beta)
    f = state.factors
    grad_x = (f.u * mirror_map(f.s, p)) @ f.vt
    zf = svd(grad_x - (diff + h_next))
    spectrum = ref_resolve_spectrum(zf.s / alpha, p, mode, reg_weight)
    x = (zf.u * spectrum) @ zf.vt
    new_state = RefSpectralOmdState(
        x=x, factors=SvdFactors(zf.u, spectrum, zf.vt), sum_sq=sum_sq,
        h_prev=h_next, round=state.round + 1,
    )
    return new_state, x


def ref_spectral_ftrl_init(sched, x1):
    return RefSpectralFtrlState(
        g_accum=np.zeros((sched.m, sched.n)), x1=x1.copy(), anchor_factors=svd(x1),
        sum_sq=0.0, h_prev=np.zeros((sched.m, sched.n)), round=1, reg_rounds=1.0,
    )


def ref_spectral_ftrl_step(state, g, sched, mode, h_next, reg_weight):
    diff = g - state.h_prev
    sum_sq = state.sum_sq + spectral_norm(diff) ** 2
    alpha = sched.eta * math.sqrt(sched.epsilon0 + sum_sq)
    p = EntropyParams(alpha, sched.beta)
    g_accum = state.g_accum + g
    reg_rounds = state.reg_rounds + reg_weight
    af = state.anchor_factors
    anchor_grad = (af.u * mirror_map(af.s, p)) @ af.vt
    zf = svd(anchor_grad - g_accum - h_next)
    spectrum = ref_resolve_spectrum(zf.s / alpha, p, mode, reg_rounds)
    x = (zf.u * spectrum) @ zf.vt
    new_state = RefSpectralFtrlState(
        g_accum=g_accum, x1=state.x1, anchor_factors=state.anchor_factors, sum_sq=sum_sq,
        h_prev=h_next, round=state.round + 1, reg_rounds=reg_rounds,
    )
    return new_state, x


# -------------------------------------------------------------------- cases

ROUNDS = 50
VECTOR_DIMS = (1, 5, 40)
MATRIX_SHAPES = ((1, 1), (4, 3), (3, 5))


def modes(radius):
    return {
        "free": None,
        "ball": BallConstraint(radius),
        "enet": CompositeRegularizer(l1=0.05, l2=0.2),
    }


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def inputs(shape, seed, rank_deficient=False):
    """Gradients, hints (zero on the last round), per-round weights and x1."""
    rng = np.random.default_rng(seed)
    gs = rng.normal(0.0, 1.0, (ROUNDS,) + shape)
    hs = 0.6 * gs[1:] + rng.normal(0.0, 0.3, (ROUNDS - 1,) + shape)
    hs = np.concatenate([hs, np.zeros((1,) + shape)])
    weights = rng.uniform(0.5, 3.0, ROUNDS)
    x1 = rng.uniform(-0.2, 0.2, shape)
    if rank_deficient:
        # everything lives in the top-left entry: the dual matrix has rank
        # one and its other singular values are exact zeros
        mask = np.zeros(shape)
        mask[0, 0] = 1.0
        gs, hs, x1 = gs * mask, hs * mask, x1 * mask
    return gs, hs, weights, x1


def run_pair(new_init, new_step, ref_init, ref_step, sched, mode, shape, seed, rd=False):
    """Steps both implementations side by side; yields (new, ref) states and decisions."""
    gs, hs, weights, x1 = inputs(shape, seed, rd)
    new, ref = new_init(sched, x1), ref_init(sched, x1)
    for g, h, w in zip(gs, hs, weights):
        ref, xr = ref_step(ref, g, sched, mode, h, w)
        new, xn = new_step(new, g, sched, mode, h_next=h, reg_weight=w)
        yield new, ref, xn, xr


def assert_common_fields(new, ref):
    assert same_bytes(new.h_prev, ref.h_prev)
    assert new.round == ref.round
    assert repr(new.sum_sq) == repr(ref.sum_sq)


class TestVectorParity:
    @pytest.mark.parametrize("dim", VECTOR_DIMS)
    @pytest.mark.parametrize("mode_name", ["free", "ball", "enet"])
    def test_omd(self, dim, mode_name):
        sched = ScheduleParams(dim, radius=1.5)
        mode = modes(1.5)[mode_name]
        for new, ref, xn, xr in run_pair(
            omd_init, omd_step, lambda s, x1: ref_omd_init(s, x1), ref_omd_step,
            sched, mode, (dim,), seed=dim,
        ):
            assert same_bytes(xn, xr)
            assert same_bytes(new.x, ref.x)
            assert_common_fields(new, ref)

    @pytest.mark.parametrize("dim", VECTOR_DIMS)
    @pytest.mark.parametrize("mode_name", ["free", "ball", "enet"])
    def test_ftrl(self, dim, mode_name):
        sched = ScheduleParams(dim, radius=1.5)
        mode = modes(1.5)[mode_name]
        for new, ref, xn, xr in run_pair(
            ftrl_init, ftrl_step, ref_ftrl_init, ref_ftrl_step,
            sched, mode, (dim,), seed=100 + dim,
        ):
            assert same_bytes(xn, xr)
            assert same_bytes(new.g_accum, ref.g_accum)
            assert same_bytes(new.x1, ref.x1)
            assert same_bytes(new.anchor_dual, ref.anchor_dual)
            assert repr(new.reg_rounds) == repr(ref.reg_rounds)
            assert_common_fields(new, ref)


def assert_direction_of(factor, primal, beta):
    """``factor`` holds the singular vectors of ``primal`` and the direction of its spectrum."""
    assert same_bytes(factor.u, primal.u)
    assert same_bytes(factor.vt, primal.vt)
    assert same_bytes(factor.s, np.log1p(primal.s / beta))


class TestMatrixParity:
    @pytest.mark.parametrize("shape", MATRIX_SHAPES)
    @pytest.mark.parametrize("mode_name", ["free", "ball", "enet"])
    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_omd(self, shape, mode_name, rank_deficient):
        sched = SpectralSchedule(*shape, radius=2.0)
        mode = modes(2.0)[mode_name]
        zero_spectra = 0
        for new, ref, xn, xr in run_pair(
            spectral_omd_init, spectral_omd_step, ref_spectral_omd_init, ref_spectral_omd_step,
            sched, mode, shape, seed=sum(shape), rd=rank_deficient,
        ):
            assert same_bytes(xn, xr)
            assert same_bytes(new.x, ref.x)
            assert_direction_of(new.factor, ref.factors, sched.beta)
            assert_common_fields(new, ref)
            zero_spectra += int(np.any(ref.factors.s == 0.0))
        if rank_deficient and min(shape) > 1:
            assert zero_spectra == ROUNDS

    @pytest.mark.parametrize("shape", MATRIX_SHAPES)
    @pytest.mark.parametrize("mode_name", ["free", "ball", "enet"])
    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_ftrl(self, shape, mode_name, rank_deficient):
        sched = SpectralSchedule(*shape, radius=2.0)
        mode = modes(2.0)[mode_name]
        for new, ref, xn, xr in run_pair(
            spectral_ftrl_init, spectral_ftrl_step, ref_spectral_ftrl_init,
            ref_spectral_ftrl_step, sched, mode, shape, seed=50 + sum(shape),
            rd=rank_deficient,
        ):
            assert same_bytes(xn, xr)
            assert same_bytes(new.g_accum, ref.g_accum)
            assert same_bytes(new.x1, ref.x1)
            assert_direction_of(new.anchor_dual, ref.anchor_factors, sched.beta)
            assert repr(new.reg_rounds) == repr(ref.reg_rounds)
            assert_common_fields(new, ref)


class TestFactorRebuild:
    """A state without its cached factor continues from one rebuilt from ``x``."""

    @pytest.mark.parametrize(
        "init, step, sched, shape, exact",
        [
            (omd_init, omd_step, ScheduleParams(6, radius=1.0), (6,), True),
            # a matrix factor rebuilt from x is a fresh SVD of the recomposed
            # product, equal to the cached one up to rounding
            (spectral_omd_init, spectral_omd_step, SpectralSchedule(4, 3, radius=1.0), (4, 3),
             False),
        ],
    )
    def test_dropped_factor_is_rebuilt(self, init, step, sched, shape, exact):
        gs, hs, weights, x1 = inputs(shape, seed=9)
        mode = BallConstraint(1.0)
        cached = init(sched, x1)
        for t in range(ROUNDS):
            bare = OmdState(x=cached.x, sum_sq=cached.sum_sq, h_prev=cached.h_prev,
                            round=cached.round)
            cached, xc = step(cached, gs[t], sched, mode, h_next=hs[t], reg_weight=weights[t])
            _, xb = step(bare, gs[t], sched, mode, h_next=hs[t], reg_weight=weights[t])
            if exact:
                assert same_bytes(xc, xb)
            else:
                assert np.allclose(xc, xb, rtol=1e-12, atol=1e-13)
