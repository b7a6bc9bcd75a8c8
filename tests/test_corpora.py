"""Every seeded corpus lies in the domain that ``fflab.corpora`` declares."""

import inspect
import math

import numpy as np

from fflab import cantor, corpora
from fflab.experiments import EXPERIMENTS, LORNOR_ALPHAS, LORNOR_QS

SEEDS = range(10)


def _default(experiment, key):
    return inspect.signature(EXPERIMENTS[experiment]).parameters[key].default


def _within(values, bounds):
    values = np.asarray(values)
    return bool(bounds[0] <= values.min() and values.max() <= bounds[1])


def _plateaus(values, masses, logs):
    # rows of one function: positive plateaus, then (0, 0) padding
    counts = (masses > 0).sum(axis=1)
    filled = np.arange(masses.shape[1]) < counts[:, None]
    logs += [values[filled], masses[filled]]
    yield "padding", np.all((values > 0) == filled) and np.all((masses > 0) == filled)
    yield "plateaus", _within(counts, corpora.TR_PLATEAUS) and masses.shape[1] <= corpora.TR_PLATEAUS[1]


def _log_normal(values, scale):
    # a normal(0, scale) sample of tens of thousands: 5 % holds it at any seed
    logs = np.log(values)
    return abs(np.std(logs) / scale - 1.0) < 0.05 and abs(np.mean(logs)) < 0.05 * scale


def _lornor(seed):
    n_seq = _default("LORNOR", "n_seq")
    for alpha in LORNOR_ALPHAS:
        for q in LORNOR_QS:
            drawn = 0
            for draw, lengths, _, _ in corpora.lornor_corpus(alpha, q, seed, n_seq):
                drawn += len(lengths)
                yield "lengths", _within(lengths, corpora.LORNOR_LENGTHS)
                yield "values", len(draw) == lengths.sum() and _within(draw, corpora.LORNOR_VALUES)
            yield "n_seq", drawn == n_seq


def _tr(seed):
    n = _default("TR_PPLUS", "n_instances")
    drawn, logs = 0, []
    for (f_vals, f_masses, f_origins), (g_vals, g_masses, g_origins), pq, eps in corpora.tr_corpus(seed, n):
        drawn += len(eps)
        yield from _plateaus(f_vals, f_masses, logs)
        yield from _plateaus(g_vals, g_masses, logs)
        past = np.cumsum(f_masses, axis=1)[:, -1] + 1.0
        yield "origins", np.all(f_origins == 0) and np.all((g_origins == 0) | (g_origins == past))
        yield "exponents", set(map(tuple, pq.tolist())) <= set(corpora.TR_EXPONENTS)
        yield "epsilons", set(eps.tolist()) <= set(corpora.TR_EPSILONS)
    yield "n_instances", drawn == n
    yield "log scale", _log_normal(np.concatenate(logs), corpora.TR_LOG_SCALE)


def _pplus(seed):
    n = _default("TR_PPLUS", "n_instances")
    drawn, logs, a_all = 0, [], []
    for (f_vals, f_masses, f_origins), (g_vals, g_masses, g_origins), pq, a_limits in corpora.pplus_corpus(seed, n):
        m, length = len(a_limits), corpora.PPLUS_SEQ_LEN
        drawn += m
        yield from _plateaus(f_vals, f_masses, logs)
        a_all.append(a_limits)
        past = np.cumsum(f_masses, axis=1)[:, -1] + 1.0
        yield "sequences", g_vals.shape == g_masses.shape == (m, length, 1) and g_origins.shape == (m, length)
        yield "origins", np.all(f_origins == 0) and np.all(g_origins == past[:, None])
        yield "exponents", set(map(tuple, pq.tolist())) <= set(corpora.TR_EXPONENTS)
    yield "n_instances", drawn == n
    yield "log scale", _log_normal(np.concatenate(logs), corpora.TR_LOG_SCALE)
    yield "log A scale", _log_normal(np.concatenate(a_all), corpora.PPLUS_LOG_A_SCALE)


def _dd(seed):
    n = _default("DD_CORPUS", "n_families")
    families = list(corpora.dd_corpus(seed, n))
    yield "n_families", len(families) == n
    for family in families:
        centers, radii = (np.array(col) for col in zip(*family.bumps))
        # each gap from a bump's left edge back to its neighbour's right edge, or to 0
        gaps = centers - radii - np.concatenate(([0.0], centers[:-1] + radii[:-1]))
        yield "floats", all(type(v) is float for bump in family.bumps for v in bump)
        yield "bumps", _within([len(radii)], corpora.DD_BUMPS)
        yield "radii", _within(radii, corpora.DD_RADII)
        yield "gaps", _within(gaps, (corpora.DD_GAPS[0] - 1e-12, corpora.DD_GAPS[1] + 1e-12))


def _galleries(seed):
    profiles = corpora.profile_gallery(seed)
    yield "profiles", len(profiles) == 20 and all(len(p) == 8 and min(p) >= 1 for p in profiles)
    rng = corpora._rng(seed, "hlp")
    for n in range(1, 7):
        cloud = corpora.random_cloud(rng, n)
        yield "cloud", cloud.d == 1 and len(cloud.points) == n and _within(cloud.points, (0.0, 1.0))
    mu = corpora.frostman_measure(seed)
    yield "frostman points", _within(mu.points, (0.0, 1.0)) and all(len(x) == mu.d for x in mu.points)
    yield "frostman weights", min(mu.weights) > 0 and math.isclose(sum(mu.weights), 1.0, rel_tol=1e-12)


def test_every_instance_lies_in_its_declared_domain():
    outside = [
        (corpus.__name__.strip("_"), seed, what)
        for seed in SEEDS
        for corpus in (_lornor, _tr, _pplus, _dd, _galleries)
        for what, ok in corpus(seed)
        if not ok
    ]
    gauges = corpora.gauge_gallery(0.5)
    ts = (1e-6, 0.01, 0.1, 0.3, 0.6)
    outside += [("gauges", None, i) for i, phi in enumerate(gauges) if phi(0.0) != 0 or min(map(phi, ts)) <= 0]
    assert outside == []


def test_the_construction_draws_from_the_corpus_streams():
    # one stream scheme: realize_tree's step k stream is _rng(seed, k), an
    # int key being its own spawn key
    assert corpora._rng is cantor._rng
    want = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(5,))).random(4)
    assert np.array_equal(cantor._rng(3, 5).random(4), want)
