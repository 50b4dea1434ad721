"""Invariants checked as properties over seeded random states of every
family, with hbar (and J, omega on the line) drawn as well.
"""

import itertools
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from angulab import cli, operators, oracle, relations, states  # noqa: E402
from angulab.cli import GRAM_SET, RELATIONS, evaluate_relation  # noqa: E402
from angulab.operators import COS_PHI, LZ, PHI, SIN_PHI  # noqa: E402
from angulab.relations import TOL_GRAM, TOL_IDENTITY, TOL_INEQUALITY, csf, gram_det  # noqa: E402

PROPERTY = settings(max_examples=40, deadline=None)

SEEDS = st.integers(0, 2**32 - 1)
HBARS = st.floats(0.1, 10.0)
LINE_CONSTANTS = st.floats(0.1, 10.0)


@st.composite
def random_states(draw, families=("periodic", "oscillator", "sphere")):
    """A seeded random state of one of ``families``."""
    family = draw(st.sampled_from(families))
    rng = np.random.default_rng(draw(SEEDS))
    hbar = draw(HBARS)
    if family == "periodic":
        return states.random_periodic(rng, hbar=hbar)
    if family == "oscillator":
        inertia, frequency = draw(LINE_CONSTANTS), draw(LINE_CONSTANTS)
        return states.random_oscillator(rng, inertia=inertia, frequency=frequency, hbar=hbar)
    return states.random_sphere(rng, draw(st.integers(0, 4)), hbar=hbar)


@PROPERTY
@given(random_states())
def test_csf_holds_on_every_pair(state):
    ket = operators.lift(state)
    for a, b in itertools.combinations((LZ, PHI, SIN_PHI, COS_PHI), 2):
        assert csf(a, b, ket).slack >= -TOL_INEQUALITY, (a.tag, b.tag)


@PROPERTY
@given(random_states())
def test_gram_is_positive_semidefinite(state):
    assert gram_det(GRAM_SET, state).details["min_eigenvalue"] >= -TOL_GRAM


@PROPERTY
@given(random_states(families=("oscillator",)))
def test_pendulum_mismatch_vanishes(state):
    ket = operators.lift(state)
    assert abs(ket.mismatch(LZ, PHI)) < TOL_IDENTITY


@PROPERTY
@given(st.integers(-40, 40), HBARS)
def test_scr_mismatch_is_i_hbar(m, hbar):
    ket = operators.lift(states.scr_eigenstate(m, hbar=hbar))
    assert abs(ket.mismatch(LZ, PHI) - 1j * hbar) < TOL_IDENTITY


# Corners of the drawn range that random draws seldom reach: lam = 0.1
# (J = 0.1, omega = 1, hbar = 10) and the smallest lam, 0.032 (omega = 0.1).
SMALL_LAMS = [
    states.random_oscillator(np.random.default_rng(0), inertia=0.1, frequency=omega, hbar=10.0)
    for omega in (1.0, 0.1)
]


@PROPERTY
@given(random_states())
@example(SMALL_LAMS[0])
@example(SMALL_LAMS[1])
def test_sin_squared_plus_cos_squared(state):
    """||sin phi psi||^2 + ||cos phi psi||^2 = 1: on the line at every drawn
    lam, down to 0.032, the band holds both images to eps."""
    ket = operators.lift(state)
    total = ket.acted(SIN_PHI).norm() ** 2 + ket.acted(COS_PHI).norm() ** 2
    assert abs(total - 1.0) < 1e-12


@PROPERTY
@given(random_states(families=("periodic",)))
def test_boundary_identity(state):
    """Im (dLz psi, dphi psi) = -(hbar/2) (1 - 2 pi |psi(2 pi - 0)|^2)."""
    density = abs(states.boundary_value(state)) ** 2
    target = -0.5 * state.hbar * (1.0 - 2.0 * np.pi * density)
    assert abs(operators.lift(state).cross(LZ, PHI).imag - target) < TOL_IDENTITY


@PROPERTY
@given(random_states())
def test_commutator_is_canonical_in_the_ket_algebra(state):
    """L_z (phi psi) - phi (L_z psi) = -i hbar psi on every family, the
    sphere included, where the registry row itself is not applicable."""
    entry = RELATIONS["commutator"].evaluate(operators.lift(state))
    assert entry["details"]["residual"] <= 1e-12 * state.hbar


@PROPERTY
@given(random_states(), st.permutations(list(RELATIONS)))
def test_shared_lifted_equals_fresh(state, order):
    """Every registry relation on one lifted ket, in any order, gives the
    entry of the state itself, boundary on a circle ket and eq24 on a sphere
    ket included: both read the state the ket records."""
    shared = operators.lift(state)
    for name in order:
        assert evaluate_relation(name, shared) == evaluate_relation(name, state), name


READS = {"acted": 1, "mean": 1, "std": 1, "cross": 2, "expect2": 2, "mismatch": 2}  # arity


def _value(ket, read, obs):
    """One memoized read; an acted ket compares by its coefficients."""
    val = getattr(ket, read)(*obs)
    return (val.coeffs.shape, val.coeffs.tobytes()) if read == "acted" else val


@PROPERTY
@given(
    random_states(),
    st.lists(
        st.tuples(
            st.sampled_from(sorted(READS)),
            st.lists(st.sampled_from((LZ, PHI, SIN_PHI, COS_PHI)), min_size=2, max_size=2),
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_views_of_one_ket_equal_fresh(state, reads):
    """Reads of one ket, in any order, equal each read on a freshly lifted
    state."""
    ket = operators.lift(state)
    for read, obs in reads:
        obs = obs[: READS[read]]
        got = _value(ket, read, obs)
        assert got == _value(operators.lift(state), read, obs), (read, [o.tag for o in obs])


@st.composite
def eigenstates(draw):
    """An scr, qtp or single-m sphere eigenstate with a drawn hbar."""
    family = draw(st.sampled_from(("periodic", "oscillator", "sphere")))
    hbar = draw(HBARS)
    if family == "periodic":
        return states.scr_eigenstate(draw(st.integers(-40, 40)), hbar=hbar)
    if family == "oscillator":
        return states.qtp_eigenstate(draw(st.integers(0, 20)), hbar=hbar)
    l = draw(st.integers(0, 4))
    return states.sphere_state(l, {draw(st.integers(-l, l)): 1.0}, hbar=hbar)


PAPER_OBS = (LZ, PHI, SIN_PHI, COS_PHI)
REL = 1e-12


def _close(got, want, scale):
    return abs(got - want) <= REL * scale


# lam = 0.0625: the band holds one sin/cos image to eps but drops the
# e^{+-2i phi} part of a second, so (psi, sin cos psi) is rounding noise of
# 2.4e-15 on both sides while the second image's norm is only 5e-9.
NARROW_SECOND = states.random_oscillator(
    np.random.default_rng(0), inertia=0.125, frequency=0.125, hbar=4.0
)


@PROPERTY
@given(st.one_of(random_states(), eigenstates()))
@example(NARROW_SECOND)
def test_stacked_reads_equal_ket_definitions(state):
    """Every read of the stacked block equals its definition built from
    ``apply``, ``plus``, ``scaled`` and ``inner`` on the ket, within rel
    1e-12 of the size of the terms it is made of: for a second-order
    product the norms of A psi and B psi as well as that of A B psi, whose
    truncation by the band can make it far smaller.  Both sides take the
    norm of an explicit deviation ket, so a standard deviation near 0 agrees
    to rounding; one taken from <A^2> - <A>^2 would not."""
    psi = operators.lift(state)
    ket = operators.lift(state)
    acted = {a: operators.apply(a, psi) for a in PAPER_OBS}
    size = {a: acted[a].norm() for a in PAPER_OBS}
    means = {a: psi.inner(acted[a]).real for a in PAPER_OBS}
    devs = {a: acted[a].plus(psi.scaled(-means[a])) for a in PAPER_OBS}
    for a in PAPER_OBS:
        assert _close(ket.mean(a), means[a], size[a]), ("mean", a.tag)
        assert _close(ket.std(a), devs[a].norm(), size[a]), ("std", a.tag)
    for a, b in itertools.product(PAPER_OBS, repeat=2):
        pair = size[a] * size[b]
        second = operators.apply(a, acted[b])
        expect2 = psi.inner(second)
        assert _close(ket.cross(a, b), devs[a].inner(devs[b]), pair), ("cross", a.tag, b.tag)
        assert _close(ket.expect2(a, b), expect2, pair + second.norm()), ("expect2", a.tag, b.tag)
        mismatch = acted[a].inner(acted[b]) - expect2
        assert _close(ket.mismatch(a, b), mismatch, pair + second.norm()), ("mismatch", a.tag, b.tag)


@PROPERTY
@given(SEEDS, LINE_CONSTANTS, LINE_CONSTANTS, HBARS)
def test_line_second_order_reads_need_no_wider_band(seed, inertia, frequency, hbar):
    """expect2 and mismatch of every paper pair on a line ket equal those on
    the ket zero-padded to the band sized at lam / 2, which holds the
    e^{+-2i phi} part of a second sin/cos image that the ket's own band
    drops, within rel 1e-12 of the norms of A psi and B psi."""
    state = states.random_oscillator(
        np.random.default_rng(seed), inertia=inertia, frequency=frequency, hbar=hbar
    )
    ket = operators.lift(state)
    try:
        dim = states.line_band(max(state.coefficients), ket.lam / 2)
    except ValueError:  # past the band cap
        dim = None
    assume(dim is not None)
    wide = ket._like(np.pad(ket.coeffs, (0, dim - ket.coeffs.size)))
    for a, b in itertools.product(PAPER_OBS, repeat=2):
        pair = ket.acted(a).norm() * ket.acted(b).norm()
        assert _close(wide.expect2(a, b), ket.expect2(a, b), pair), ("expect2", a.tag, b.tag)
        assert _close(wide.mismatch(a, b), ket.mismatch(a, b), pair), ("mismatch", a.tag, b.tag)


@PROPERTY
@given(st.integers(-64, 64), HBARS)
def test_scr_eigenstate_std_lz_is_zero(m, hbar):
    """L_z psi = hbar m psi holds coefficient by coefficient and the
    deviation ket is formed explicitly, so std(L_z) of an scr eigenstate is
    exactly 0."""
    assert operators.lift(states.scr_eigenstate(m, hbar=hbar)).std(LZ) == 0.0


@pytest.mark.parametrize(
    "state",
    [
        states.random_periodic(np.random.default_rng(129), band=64),
        states.random_sphere(np.random.default_rng(16), 16),
    ],
    ids=["circle width 129", "sphere l=16"],
)
def test_stacked_reads_on_wide_bands(state):
    """The checks of ``test_stacked_reads_equal_ket_definitions`` on a circle
    state of width 129 and a sphere state with l = 16."""
    test_stacked_reads_equal_ket_definitions.hypothesis.inner_test(state)


# -- the stacked action of each ket class ------------------------------------
#
# A block acts on a whole stack through the cached band map of its ket class:
# circle and sphere maps built from ``apply``, line maps written from the
# observables' matrices.  On each basis ket of a band that action must give
# exactly what ``apply`` gives.

@st.composite
def basis_bands(draw):
    """A zero ket on a band, to act on its basis kets: a circle band of
    depth 1..3, a sphere band with l <= 12 (one row), or the band of a
    lifted qtp eigenstate n <= 20 with J and omega drawn, each at drawn
    hbar."""
    kind = draw(st.sampled_from(("circle", "sphere", "line")))
    hbar = draw(HBARS)
    if kind == "line":
        n, inertia, frequency = draw(st.integers(0, 20)), draw(LINE_CONSTANTS), draw(LINE_CONSTANTS)
        ket = operators.lift(states.qtp_eigenstate(n, inertia=inertia, frequency=frequency, hbar=hbar))
        return ket._like(np.zeros_like(ket.coeffs))
    depth, l = draw(st.integers(1, 3)), None
    if kind == "circle":
        width, lo = draw(st.integers(1, 24)), draw(st.integers(-64, 64))
    else:
        l = draw(st.integers(0, 12))
        width, lo = 2 * l + 1, -l
    return operators.FourierKet(np.zeros((1, depth, width), dtype=complex), lo, hbar, l)


def _on_band(ket, band):
    """A ket's coefficients placed on a band; a line band never grows."""
    if isinstance(ket, operators.LineKet):
        return ket.coeffs
    depth, width, lo = band
    out = np.zeros(ket.coeffs.shape[:-2] + (depth, width), dtype=complex)
    d, w = ket.coeffs.shape[-2:]
    out[..., :d, ket.lo - lo : ket.lo - lo + w] = ket.coeffs
    return out


@PROPERTY
@given(basis_bands())
def test_band_map_equals_apply_on_every_basis_ket(like):
    """Slot 0 of a band map's action is psi placed on the common band, and
    slot k its image under observable k, bit for bit as ``apply`` gives it,
    at drawn hbar."""
    bmap = operators._band_map(type(like), like.band)
    size = like.coeffs.size
    images = bmap.act(np.eye(size, dtype=complex), like.hbar)  # (slot, basis ket, band)
    for b in range(size):
        coeffs = np.zeros(like.coeffs.shape, dtype=complex)
        coeffs.flat[b] = 1.0
        e = like._like(coeffs)
        want = [e] + [operators.apply(a, e) for a in PAPER_OBS]
        for slot, ket, a in zip(images, want, ("psi",) + PAPER_OBS):
            got = like.from_row(slot[b], bmap.band).coeffs
            assert np.array_equal(got, _on_band(ket, bmap.band)), (b, a)


@PROPERTY
@given(st.integers(0, 20), HBARS, LINE_CONSTANTS, LINE_CONSTANTS)
def test_line_fill_equals_apply_on_every_basis_ket(n, hbar, inertia, frequency):
    """The line band map fills each observable's images of the basis kets of
    a lifted qtp eigenstate's band, bit for bit as ``apply`` gives them,
    with J, omega and hbar drawn."""
    ket = operators.lift(states.qtp_eigenstate(n, inertia=inertia, frequency=frequency, hbar=hbar))
    basis = np.eye(ket.coeffs.size, dtype=complex)
    bmap = operators._band_map(operators.LineKet, ket.band)
    for a, images in zip(PAPER_OBS, bmap.act(basis, hbar)[1:]):
        for b, row in enumerate(basis):
            got = ket.from_row(images[b], bmap.band).coeffs
            assert np.array_equal(got, operators.apply(a, ket._like(row)).coeffs), (b, a)


# -- second-order products from the pulled-back bra ---------------------------
#
# A block reads (psi, A B psi) as (K_A^T psi^*) . B psi, with K_A the cached
# form of A pulled back onto psi's bra, not as the inner product of psi with
# A applied to B psi.  The two associate the sums differently, so they agree
# to rounding of the terms they are made of.


def _summed_moduli(x, y):
    """sum |x_i| |M_ij| |y_j| over the terms of ``x.inner(y)``, with M the
    metric of the two bands (the identity on the line)."""
    if isinstance(x, operators.LineKet):
        return float(np.abs(x.coeffs) @ np.abs(y.coeffs))
    a, b = x.coeffs, y.coeffs
    rows, da, wa = a.shape
    _, db, wb = b.shape
    metric = np.abs(operators._metric(da, wa, db, wb, y.lo - x.lo))
    return float(np.sum((np.abs(a).reshape(rows, -1) @ metric) * np.abs(b).reshape(rows, -1)))


def _term_moduli(x, a, y):
    """The summed moduli of the terms of (x, A y) written out over the basis
    kets e_b of y's band, sum |x_i| |M_ic| |(A e_b)_c| |y_b|, with M the
    metric (the identity on the line): both ways of reading (psi, A B psi)
    sum these terms, in different orders."""
    images = operators._BandMap(type(y), y.band)  # built here, not cached
    basis = np.eye(images.matrix.shape[1], dtype=complex)
    acted = np.abs(images.act(basis, y.hbar)[1 + PAPER_OBS.index(a)])
    rows = 1 if isinstance(x, operators.LineKet) else x.coeffs.shape[0]
    bra = np.abs(x.coeffs).reshape(rows, -1)
    metric = type(x).metric(x.band, images.band)
    if metric is not None:
        bra = bra @ np.abs(metric)
    return float(np.sum(bra * (np.abs(y.coeffs).reshape(rows, -1) @ acted)))


def _fourier_ket(rng, depth, width, lo, hbar, l=None):
    """A unit ket of random coefficients on a band of ``depth`` and
    ``width`` at ``lo``, with 2l + 1 rows for a sphere band."""
    shape = (1 if l is None else 2 * l + 1, depth, width)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return operators.FourierKet(c / np.linalg.norm(c), lo, hbar, l)


@st.composite
def block_kets(draw):
    """A circle ket of depth 1..3 and width 1..129, a sphere ket of depth
    1..3 with l <= 12, or a lifted line ket with J = 0.01 or J drawn."""
    kind = draw(st.sampled_from(("circle", "sphere", "line")))
    rng = np.random.default_rng(draw(SEEDS))
    hbar = draw(HBARS)
    if kind == "line":
        inertia, frequency = draw(st.one_of(st.just(0.01), LINE_CONSTANTS)), draw(LINE_CONSTANTS)
        try:
            state = states.random_oscillator(rng, inertia=inertia, frequency=frequency, hbar=hbar)
        except ValueError:  # lam past the band cap
            assume(False)
        return operators.lift(state)
    depth = draw(st.integers(1, 3))
    if kind == "circle":
        return _fourier_ket(rng, depth, draw(st.integers(1, 129)), draw(st.integers(-64, 64)), hbar)
    l = draw(st.integers(0, 12))
    return _fourier_ket(rng, depth, 2 * l + 1, -l, hbar, l)


READ_PAIRS = st.lists(st.tuples(st.sampled_from(PAPER_OBS), st.sampled_from(PAPER_OBS)), min_size=1, max_size=6)
J_001 = states.random_oscillator(np.random.default_rng(7), inertia=0.01)


@PROPERTY
@given(block_kets(), READ_PAIRS)
@example(_fourier_ket(np.random.default_rng(1), 3, 129, -64, 1.7), [(LZ, PHI), (COS_PHI, LZ)])
@example(_fourier_ket(np.random.default_rng(2), 3, 25, -12, 0.4, 12), [(LZ, LZ)])
@example(operators.lift(J_001), [(LZ, SIN_PHI), (PHI, LZ), (COS_PHI, COS_PHI)])
def test_second_order_reads_equal_composed_apply(ket, pairs):
    """expect2 and mismatch of every read pair equal the inner products of
    composed ``apply`` calls within rel 1e-12 of the summed moduli of their
    terms.  Where the band drops most of A B psi, (psi, A B psi) is rounding
    noise on both sides, so the terms are taken before A acts: the moduli of
    psi, the metric, A and B psi."""
    for a, b in pairs:
        acted_a, acted_b = operators.apply(a, ket), operators.apply(b, ket)
        second = operators.apply(a, acted_b)
        expect2, scale = ket.inner(second), _term_moduli(ket, a, acted_b)
        assert _close(ket.expect2(a, b), expect2, scale), ("expect2", a.tag, b.tag)
        mismatch = acted_a.inner(acted_b) - expect2
        scale += _summed_moduli(acted_a, acted_b)
        assert _close(ket.mismatch(a, b), mismatch, scale), ("mismatch", a.tag, b.tag)


@settings(max_examples=10, deadline=None)
@given(st.lists(HBARS, min_size=20, max_size=20), SEEDS)
def test_band_maps_hold_no_hbar(hbars, seed):
    """States that differ only in hbar share their band maps and pulled-back
    forms: over 20 drawn hbar values neither cache gains an entry after the
    first, and each stays within its byte budget.  On the line, where lam =
    sqrt(J omega / hbar), J scales with hbar to keep the band.  The map cache
    keeps only the blocks' own maps, one per family, the line's among them;
    the map onto the second images is built for a form and not kept, and
    the form cache holds no line entry, as a line form is a view of its
    map."""
    caches = operators._band_map, operators._bra_form
    operators._band_map.cache_clear()

    def read(hbar):
        for state in (
            states.random_periodic(np.random.default_rng(seed), hbar=hbar),
            states.random_sphere(np.random.default_rng(seed), 3, hbar=hbar),
            states.random_oscillator(np.random.default_rng(seed), inertia=hbar, hbar=hbar),
        ):
            operators.lift(state).mismatch(LZ, PHI)
        for cache in caches:
            assert cache.nbytes <= cache.budget
        assert len(operators._band_map.keys()) == 3
        assert operators.LineKet in {cls for cls, *_ in operators._band_map.keys()}
        assert operators.LineKet not in {cls for cls, *_ in operators._bra_form.keys()}
        return [set(cache.keys()) for cache in caches]

    keys = read(hbars[0])
    for hbar in hbars[1:]:
        assert read(hbar) == keys


# -- the oracle's cached phase rows ---------------------------------------------
#
# Sampling from cached rows must give exactly the numbers of the direct
# formulas, bit for bit, on every grid size: the oracle forms each product
# of a scalar and a row array-first, the order numpy gives ``arr * a`` at
# every size.

RESOLUTIONS = st.sampled_from((8, 1001, 4096, 16384, 32768))


@st.composite
def mode_sets(draw, top):
    """Sorted mode indices of a band 0..top with gaps: any of -band..band,
    negative indices only, or m = 0 alone."""
    kind = draw(st.sampled_from(("any", "negative", "zero") if top else ("zero",)))
    if kind == "zero":
        return [0]
    band = draw(st.integers(0 if kind == "any" else 1, top))
    high = band if kind == "any" else -1
    return sorted(draw(st.sets(st.integers(-band, high), min_size=1)))


def _amplitudes(modes, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    return dict(zip(modes, amps))


def _trig_reference(obs, psi, phi):
    """sin phi or cos phi times ``psi``, each phase taken from np.exp."""
    fvals = np.zeros(np.shape(phi), dtype=complex)
    for k, coef in obs.fourier:
        fvals = fvals + coef * np.exp(1j * k * phi)
    return fvals * psi


def _cold_and_warm(fn):
    """``fn()`` with the row and table caches emptied first, then again with them filled."""
    oracle.phase_rows.cache_clear()
    oracle.phase_tables.cache_clear()
    return fn(), fn()


@PROPERTY
@given(mode_sets(40), SEEDS, RESOLUTIONS)
def test_circle_sample_equals_evaluate(modes, seed, n):
    """On a circle_grid the oracle sums cached rows and never calls
    states.evaluate; on a hand-built circle grid with other nodes it falls
    back to states.evaluate.  Both equal states.evaluate exactly."""
    state = states.periodic_superposition(_amplitudes(modes, seed))
    grid = oracle.circle_grid(n)
    shifted = oracle.Grid1D(grid.points - 0.25 * grid.spacing, grid.spacing, "circle")
    for g, calls in ((grid, 0), (shifted, 2)):
        want = states.evaluate(state, g.points)
        with mock.patch.object(oracle.states, "evaluate", wraps=states.evaluate) as spy:
            cold, warm = _cold_and_warm(lambda: oracle.sample(state, g))
        assert spy.call_count == calls
        assert np.array_equal(cold, want) and np.array_equal(warm, want)


def _sphere_phi_rows(state, grid):
    """Reference: the (2l + 1, n_phi) phi rows c_m e^{i m phi} / sqrt(2 pi),
    m = -l..l, each phase from np.exp."""
    m = np.arange(-state.l, state.l + 1)
    c = np.array([state.coefficients.get(k, 0.0) for k in m.tolist()], dtype=complex)
    return c[:, None] * np.exp(1j * m[:, None] * grid.phi_grid.points) / np.sqrt(2.0 * np.pi)


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint8)


@PROPERTY
@given(st.integers(0, 12).flatmap(lambda l: st.tuples(st.just(l), mode_sets(l))), SEEDS, RESOLUTIONS)
def test_sphere_table_equals_direct_phases(l_modes, seed, n):
    """The phase table's columns are 1 and the real and imaginary parts of
    np.exp(1j m phi), m = 1..l, bit for bit, on a circle_grid (cached or not)
    and on a hand-built phi grid; ``sample`` is the theta factor's
    transpose times the phi rows from np.exp, to round-off.  Each of the
    l + 1 sums of 2l + 1 terms is off by at most (2l + 4) eps times the sum
    of the terms' moduli on either side, three roundings before the sum, so
    the bound is twice that.  l stops at 12 because the factor takes at
    least l + 1 theta nodes."""
    l, modes = l_modes
    state = states.sphere_state(l, _amplitudes(modes, seed))
    grid = oracle.sphere_grid(16, n)
    h = grid.phi_grid.spacing
    shifted = oracle.Grid2D(grid.theta_rule, oracle.Grid1D(grid.phi_grid.points - 0.25 * h, h, "circle"))
    factor = oracle.theta_factor(l, 16)
    c = np.array([state.coefficients.get(k, 0.0) for k in range(-l, l + 1)], dtype=complex)
    scale = (np.abs(factor).T @ np.abs(c))[:, None] / np.sqrt(2.0 * np.pi)
    for g in (grid, shifted):
        phi = g.phi_grid.points
        want = np.empty((n, 2 * l + 1))
        want[:, 0] = 1.0
        for m in range(1, l + 1):
            wave = np.exp(1j * m * phi)
            want[:, 2 * m - 1], want[:, 2 * m] = wave.real, wave.imag
        tables = []

        def keep(*args, make=oracle._phase_table):
            tables.append(make(*args))
            return tables[-1]

        with mock.patch.object(oracle, "_phase_table", keep):
            cold, warm = _cold_and_warm(lambda: oracle.sample(state, g))
        if g is grid:  # built cold, then read from the cache unless over its budget
            tables.append(oracle.phase_tables(n, l))
        else:  # built on each call, never kept
            assert len(tables) == 2 and not oracle.phase_tables.keys()
        for table in tables:
            assert not table.flags.writeable
            assert np.array_equal(_bits(table), _bits(want))
        assert np.array_equal(cold, warm)
        folded = factor.T @ _sphere_phi_rows(state, g)
        bound = 2.0 * (2 * l + 4) * np.finfo(float).eps * scale
        assert cold.shape == (l + 1, n) and cold.flags.c_contiguous
        assert np.all(np.abs(cold - folded) <= bound)


@st.composite
def sphere_states(draw):
    """A seeded sphere state at l = 0..12 with hbar drawn: random, or peaked
    on one drawn m (amplitudes scaled by 0.01 there, 1 added at m)."""
    rng = np.random.default_rng(draw(SEEDS))
    l, hbar = draw(st.integers(0, 12)), draw(HBARS)
    if not draw(st.booleans()):
        return states.random_sphere(rng, l, hbar=hbar)
    amps = 0.01 * (rng.standard_normal(2 * l + 1) + 1j * rng.standard_normal(2 * l + 1))
    amps[draw(st.integers(0, 2 * l))] += 1.0
    return states.sphere_state(l, dict(zip(range(-l, l + 1), amps)), hbar=hbar)


def _gram_quad_inner(f, g, grid):
    """Reference: the sphere inner product on the 2l + 1 phi rows, theta
    integrated through the Gram matrix, h sum conj(f) (G g)."""
    gram = oracle.theta_gram(f.shape[0] // 2, grid.theta_rule.nodes.size)
    return complex(grid.phi_grid.spacing * np.vdot(f, gram @ g))


@PROPERTY
@given(sphere_states())
def test_folded_sphere_oracle_matches_gram_form(state):
    """Every number of every registry relation from the l + 1 folded rows
    equals the one from the 2l + 1 phi rows through the theta Gram, within
    1e-12 of the larger of 1, the value and hbar^2 l^2, the size of the
    (L_z, L_z) terms a mismatch entry cancels.  boundary and the commutator
    read 1D grids only."""
    names = [name for name in oracle.RELATION_VALUES if name not in ("boundary", "commutator")]
    grid = oracle.default_grid(state)
    folded = {name: oracle.relation_values(oracle.Sampled(state, grid), name) for name in names}
    with (
        mock.patch.object(oracle, "sample", _sphere_phi_rows),
        mock.patch.object(oracle, "quad_inner", _gram_quad_inner),
    ):
        gram_form = {name: oracle.relation_values(oracle.Sampled(state, grid), name) for name in names}
    for name in names:
        assert list(folded[name]) == list(gram_form[name]), name
        for key, want in gram_form[name].items():
            got, want = np.asarray(folded[name][key]), np.asarray(want)
            bound = 1e-12 * np.maximum(np.maximum(1.0, np.abs(want)), state.hbar**2 * state.l**2)
            assert np.all(np.abs(got - want) <= bound), (name, key, got, want)


@PROPERTY
@given(mode_sets(40), SEEDS, RESOLUTIONS, st.integers(0, 3))
def test_trig_act_equals_direct_formula(modes, seed, n, l):
    """act(SinPhi / CosPhi) equals the multiplier summed from np.exp on
    circle, sphere, hand-built circle and line grids."""
    circle = states.periodic_superposition(_amplitudes(modes, seed))
    sphere = states.random_sphere(np.random.default_rng(seed), l)
    line = states.random_oscillator(np.random.default_rng(seed), nmax=4)
    grid = oracle.circle_grid(n)
    shifted = oracle.Grid1D(grid.points - 0.25 * grid.spacing, grid.spacing, "circle")
    cases = [
        (circle, grid, grid.points),
        (circle, shifted, shifted.points),
        (sphere, oracle.sphere_grid(8, n), grid.points),
        (line, oracle.line_grid_for(line, n=n), None),
    ]
    for state, g, phi in cases:
        phi = g.points if phi is None else phi
        psi = oracle.sample(state, g)
        for obs in (SIN_PHI, COS_PHI):
            want = _trig_reference(obs, psi, phi)
            cold, warm = _cold_and_warm(lambda: oracle.act(obs, psi, state, g))
            assert np.array_equal(cold, want) and np.array_equal(warm, want), (state.family, obs.tag)



# -- pair reads against the one-entry reads ------------------------------------

PAPER_PAIRS = tuple(itertools.combinations((LZ, PHI, SIN_PHI, COS_PHI), 2))
EQ8 = (("eq8-sin", SIN_PHI, relations.EQ8_SIN.g), ("eq8-cos", COS_PHI, relations.EQ8_COS.g))


def _inequality(name, lhs, rhs, tolerance, details):
    return relations._inequality_report(name, lhs, rhs, tolerance, details).to_json()


def _entry_pair_reports(ket, a, b):
    """csf, rsur, adjointness_mismatch and covariance_decomposition of (a, b)
    from the one-entry reads of the ket: the relations' formulas with every
    entry read on its own."""
    std_a, std_b, cross = ket.std(a), ket.std(b), ket.cross(a, b)
    mean_a, mean_b = ket.mean(a), ket.mean(b)
    entries = np.array([[ket.mismatch(x, y) for y in (a, b)] for x in (a, b)], dtype=complex)
    top = float(np.abs(entries).max())
    second_ab, second_ba = ket.expect2(a, b), ket.expect2(b, a)
    if top < TOL_IDENTITY:
        rhs, route = abs(cross.imag), "deviation-split"
    else:
        rhs, route = 0.5 * abs(second_ab - second_ba), "direct"
    rsur_details = {"std_a": std_a, "std_b": std_b, "mismatch_max": top}
    rsur_details.update(mismatch_ab=complex(entries[0, 1]), commutator_route=route)
    dadb, dbda = second_ab - mean_a * mean_b, second_ba - mean_a * mean_b
    assembled = 0.5 * (dadb + dbda) - 0.5j * (1j * (dadb - dbda))
    residual = float(abs(cross - assembled))
    csf_details = {"std_a": std_a, "std_b": std_b, "mean_a": mean_a, "mean_b": mean_b, "cross": cross}
    return {
        "csf": _inequality("csf", std_a * std_b, abs(cross), TOL_INEQUALITY, csf_details),
        "rsur": _inequality("rsur", std_a * std_b, rhs, TOL_IDENTITY, rsur_details),
        "mismatch": relations.MismatchMatrix(entries, [a, b], top).to_json(),
        "decomposition": relations.DecompositionResult(
            float(cross.real), float(cross.imag), residual, top < TOL_IDENTITY, top
        ),
    }


def _entry_reports(ket):
    """Every relation of ``_reports`` from the one-entry reads."""
    out = {(a.tag, b.tag): _entry_pair_reports(ket, a, b) for a, b in PAPER_PAIRS}
    gram = np.array([[ket.cross(a, b) for b in GRAM_SET] for a in GRAM_SET], dtype=complex)
    details = {"min_eigenvalue": float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[0])}
    details["order"] = len(GRAM_SET)
    details.update({f"gram_{j}{k}": complex(z) for j, row in enumerate(gram) for k, z in enumerate(row)})
    out["gram"] = _inequality("gram", float(np.linalg.det(gram).real), 0.0, TOL_GRAM, details)
    hbar = ket.hbar
    for rel, f, g in EQ8:
        lhs, rhs = ket.std(LZ) * ket.std(f), 0.5 * hbar * abs(ket.mean(g))
        out[rel] = _inequality(rel, lhs, rhs, TOL_IDENTITY, {"form": "function-pair"})
    if ket.family == "periodic":
        bval = states.boundary_value(ket.state)
        rhs = 0.5 * hbar * abs(1.0 - 2.0 * np.pi * abs(bval) ** 2)
        cross, product = ket.cross(LZ, PHI), ket.std(LZ) * ket.std(PHI)
        details = {"boundary_value": bval, "boundary_density": abs(bval) ** 2, "cross": cross}
        details.update(product_lhs=product, product_slack=product - rhs, squared_density=True)
        report = relations._inequality_report("boundary", abs(cross), rhs, TOL_IDENTITY, details)
        report.satisfied = report.satisfied and product - rhs >= -TOL_IDENTITY
        out["boundary"] = report.to_json()
    return out


def _reports(ket):
    """Every relation over the paper's pairs, gram, eq8 and, on the circle,
    the boundary bound, from the relations themselves."""
    out = {
        (a.tag, b.tag): {
            "csf": relations.csf(a, b, ket).to_json(),
            "rsur": relations.rsur(a, b, ket).to_json(),
            "mismatch": relations.adjointness_mismatch(a, b, ket).to_json(),
            "decomposition": relations.covariance_decomposition(a, b, ket),
        }
        for a, b in PAPER_PAIRS
    }
    out["gram"] = gram_det(GRAM_SET, ket).to_json()
    out.update({rel: relations.adjusted_relation(rel, ket).to_json() for rel, _, _ in EQ8})
    if ket.family == "periodic":
        out["boundary"] = relations.boundary_bound(ket).to_json()
    return out


# The relation run first on a fresh ket, and where its report sits in ``_reports``.
FIRST = {
    "csf then rsur": (lambda ket: relations.csf(LZ, PHI, ket).to_json(), ("Lz", "Phi"), "csf"),
    "rsur then csf": (lambda ket: relations.rsur(LZ, PHI, ket).to_json(), ("Lz", "Phi"), "rsur"),
    "gram then csf": (lambda ket: gram_det(GRAM_SET, ket).to_json(), "gram", None),
}


@PROPERTY
@given(random_states())
def test_pair_reads_equal_one_entry_reads(state):
    """Each relation's report equals, float for float, the one built from
    one-entry reads, whichever relation runs first on a fresh ket."""
    want = _entry_reports(operators.lift(state))
    for label, (first, key, name) in FIRST.items():
        ket = operators.lift(state)
        report = first(ket)
        assert report == (want[key] if name is None else want[key][name]), label
        assert _reports(ket) == want, label


# -- batches: a state's report does not depend on the states it shares a block with


@st.composite
def one_band_sweeps(draw):
    """1 to 9 seeded random states of one family on one band (a quarter of
    the draws peaked), and whether to mix in an eigenstate range, which puts
    every eigenstate on a band of its own."""
    family = draw(st.sampled_from(("periodic", "oscillator", "sphere")))
    rng = np.random.default_rng(draw(SEEDS))
    hbar = draw(HBARS)
    count = draw(st.integers(1, 9))
    low = draw(st.integers(0, 4))
    if family == "periodic":
        drawn = [states.random_periodic(rng, hbar=hbar) for _ in range(count)]
        eigen = [states.scr_eigenstate(m, hbar=hbar) for m in range(low - 2, low + 3)]
    elif family == "oscillator":
        inertia, frequency = draw(LINE_CONSTANTS), draw(LINE_CONSTANTS)
        drawn = [
            states.random_oscillator(rng, inertia=inertia, frequency=frequency, hbar=hbar)
            for _ in range(count)
        ]
        eigen = [
            states.qtp_eigenstate(n, inertia=inertia, frequency=frequency, hbar=hbar)
            for n in range(low, low + 5)
        ]
    else:
        l = draw(st.integers(low // 2 + 1, 4))
        drawn = [states.random_sphere(rng, l, hbar=hbar) for _ in range(count)]
        eigen = [states.sphere_state(l, {m: 1.0}, hbar=hbar) for m in range(-l, l + 1)]
    if draw(st.booleans()):
        return drawn, draw(st.permutations(drawn + eigen))
    return drawn, drawn


SPECTRAL = [name for name in RELATIONS if name != "commutator"]


def _report_bytes(result):
    reports, mismatch = result
    return cli._dumps({"reports": reports, "mismatch": mismatch})


@PROPERTY
@given(one_band_sweeps())
def test_batched_states_report_as_alone(sweep):
    """Each state's 13 spectral entries and its condition19 mismatch are the
    same bytes whether it is evaluated alone or among the states of a sweep,
    whose random states on one band share one block per ``_BATCH_BYTES`` of
    coefficients, and the reports come out in input order."""
    drawn, sweep_states = sweep
    assert len(SPECTRAL) == 13
    kets = operators.lift_all(drawn)
    per_batch = max(1, operators._BATCH_BYTES // kets[0].coeffs.nbytes)
    batches = {id(ket.batch[0]) if ket.batch else id(ket) for ket in kets}
    assert len(batches) == -(-len(kets) // per_batch)
    alone = [_report_bytes(cli._evaluate_state(s, SPECTRAL, False, None)) for s in sweep_states]
    batched = [_report_bytes(r) for r in cli._evaluate_states(sweep_states, SPECTRAL, False, None)]
    assert batched == alone
