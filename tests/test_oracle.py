import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from angulab import cli, oracle, specfun, states
from angulab.oracle import (
    Grid1D,
    circle_grid,
    line_grid,
    line_grid_for,
    numeric_derivative,
    quad_inner,
    sample,
    sphere_grid,
)
from angulab.states import (
    periodic_superposition,
    qtp_eigenstate,
    random_oscillator,
    random_periodic,
    random_sphere,
    scr_eigenstate,
    sphere_state,
)

PI = np.pi
TWO_PI = 2 * np.pi


def _dense_sample(state, grid):
    """Reference: psi(theta_i, phi_j) on the full (n_theta, n_phi) tensor grid."""
    theta = np.arccos(grid.theta_rule.nodes)
    table = specfun.theta_lm_table(state.l, theta)
    m = np.arange(-state.l, state.l + 1)
    phases = np.exp(1j * m[:, None] * grid.phi_grid.points[None, :])
    c = np.array([state.coefficients.get(k, 0.0) for k in m.tolist()], dtype=complex)
    return np.einsum("m,mi,mj->ij", c, table, phases) / np.sqrt(TWO_PI)


def _dense_quad_inner(f, g, grid):
    """Reference: Gauss-Legendre weights in theta times the midpoint rule in phi."""
    w_theta = grid.theta_rule.weights
    return complex(grid.phi_grid.spacing * np.sum(w_theta @ (np.conj(f) * g)))


class TestGrids:
    def test_circle_grid_half_open(self):
        g = circle_grid(512)
        assert g.points[0] > 0.0
        assert g.points[-1] < TWO_PI
        assert np.all(np.diff(g.points) > 0)
        assert g.spacing * len(g.points) == pytest.approx(TWO_PI, rel=1e-14)

    def test_sphere_grid_measure(self):
        g = sphere_grid(64, 512)
        total = np.sum(g.theta_rule.weights) * g.phi_grid.spacing * g.phi_grid.points.size
        assert total == pytest.approx(4 * PI, abs=1e-10)

    def test_line_grid_for_scales(self):
        q = qtp_eigenstate(1)
        g = line_grid_for(q)
        assert g.points[0] == pytest.approx(-12.0)
        q2 = qtp_eigenstate(1, inertia=4.0)  # lam = 2
        g2 = line_grid_for(q2)
        assert g2.points[-1] == pytest.approx(6.0)


class TestPhaseRows:
    """The row cache behind circle sampling, trigonometric multipliers and
    the sphere's phase tables: read-only rows, bounded by bytes whatever
    band or resolution is sampled."""

    def test_rows_are_read_only(self):
        row = oracle.phase_rows(64, 3)
        with pytest.raises(ValueError):
            row[0] = 0.0

    def test_default_rows_fill_the_budget(self):
        """|m| = 1..8 at the default circle node count and at 4096 nodes fit exactly."""
        rows = oracle.phase_rows
        rows.cache_clear()
        sample(random_periodic(np.random.default_rng(0), band=8), circle_grid())
        sample(random_periodic(np.random.default_rng(0), band=8), circle_grid(4096))
        assert rows.nbytes == rows.budget

    def test_bytes_stay_within_budget(self):
        rows = oracle.phase_rows
        rows.cache_clear()
        wide = periodic_superposition({m: 1.0 for m in range(-64, 65)})
        sample(wide, circle_grid())
        kept = rows.nbytes
        assert 0 < kept <= rows.budget
        fine = periodic_superposition({-1: 1.0, 1: 1.0})
        psi = sample(fine, circle_grid(cli.MAX_RESOLUTION))
        assert rows.nbytes == kept
        assert psi.shape == (cli.MAX_RESOLUTION,)

    def test_rows_of_a_new_grid_evict_the_oldest(self):
        """Once the default-grid rows fill the budget, 16384-node rows evict
        the least recently used ones and are then reused."""
        rows = oracle.phase_rows
        rows.cache_clear()
        sample(random_periodic(np.random.default_rng(0), band=8), circle_grid())
        sample(random_periodic(np.random.default_rng(0), band=8), circle_grid(4096))
        assert rows.nbytes == rows.budget
        state = random_periodic(np.random.default_rng(1), band=8)
        first = sample(state, circle_grid(16384))
        assert {(16384, m) for m in range(1, 9)} <= set(rows.keys())
        assert rows.nbytes <= rows.budget
        with mock.patch.object(rows, "make", wraps=rows.make) as make:
            again = sample(state, circle_grid(16384))
        assert make.call_count == 0
        assert np.array_equal(again, first)


class TestPhaseTables:
    """The sphere's (n, 2l + 1) phase tables: read-only, kept per (n, l)
    within a byte budget, and an over-budget table built for the call only."""

    def test_tables_are_read_only(self):
        table = oracle.phase_tables(64, 3)
        assert table.shape == (64, 7)
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    def test_bytes_stay_within_budget(self):
        tables = oracle.phase_tables
        tables.cache_clear()
        for n_phi in (4096, 512, 8192):
            for l in range(0, 9):
                psi = sample(random_sphere(np.random.default_rng(l), l), sphere_grid(16, n_phi))
                assert psi.shape == (l + 1, n_phi)
                assert 0 < tables.nbytes <= tables.budget

    def test_default_tables_fit(self):
        """l = 1..3 at the default 4096 phi nodes stay cached together."""
        tables = oracle.phase_tables
        tables.cache_clear()
        for l in (1, 2, 3, 1, 2, 3):
            sample(random_sphere(np.random.default_rng(l), l), sphere_grid())
        assert tables.cache_info().misses == 3
        assert set(tables.keys()) == {(4096, 1), (4096, 2), (4096, 3)}

    def test_over_budget_table_is_not_kept(self):
        """l = 64 at 8192 nodes is an 8.4 MB table: computed for the call and dropped."""
        tables = oracle.phase_tables
        tables.cache_clear()
        state = random_sphere(np.random.default_rng(0), 64)
        with mock.patch.object(oracle, "_phase_table", wraps=oracle._phase_table) as make:
            psi = sample(state, sphere_grid(n_phi=8192))
            again = sample(state, sphere_grid(n_phi=8192))
        assert make.call_count == 2
        assert psi.shape == (65, 8192) and np.array_equal(psi, again)
        assert tables.nbytes == 0 and not tables.keys()
        table = tables(8192, 64)
        assert table.nbytes == 129 * 8192 * 8 > tables.budget
        assert not table.flags.writeable and not tables.keys()


class TestTrigMultipliers:
    """sin phi and cos phi, the parts of the e^{i phi} row, against np.sin and
    np.cos of the nodes: acting on ones gives each multiplier itself."""

    @staticmethod
    def _grids(n):
        grid = circle_grid(n)
        return {
            "circle_grid": grid,
            "hand-built": Grid1D(grid.points - 0.25 * grid.spacing, grid.spacing, "circle"),
            "sphere": sphere_grid(8, n),
            "line": line_grid(12.0, n),
        }

    @pytest.mark.parametrize("n", [8, 1001, 4096, 32768])
    @pytest.mark.parametrize("kind", ["circle_grid", "hand-built", "sphere", "line"])
    def test_multipliers_match_sin_and_cos(self, n, kind):
        """Within 4 ulp of 1 (4 eps) at every node: both sides are at most 1
        in modulus and each is within an ulp of the exact value."""
        grid = self._grids(n)[kind]
        phi = grid.phi_grid.points if kind == "sphere" else grid.points
        ones = np.ones((3, n) if kind == "sphere" else n, dtype=complex)
        oracle.phase_rows.cache_clear()
        for tag, fn in (("SinPhi", np.sin), ("CosPhi", np.cos)):
            got = oracle.act(tag, ones, scr_eigenstate(1), grid)
            assert np.all(got.imag == 0.0), tag
            assert np.all(np.abs(got.real - fn(phi)) <= 4 * np.finfo(float).eps), tag
        # the cached e^{i phi} row serves exactly the nodes of a circle_grid
        assert list(oracle.phase_rows.keys()) == ([(n, 1)] if kind in ("circle_grid", "sphere") else [])


class TestQuadInner:
    def test_normalization(self):
        g = circle_grid(512)
        psi = sample(scr_eigenstate(0), g)
        assert quad_inner(psi, psi, g) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality(self):
        g = circle_grid(512)
        p1 = sample(scr_eigenstate(1), g)
        p2 = sample(scr_eigenstate(2), g)
        assert abs(quad_inner(p1, p2, g)) < 1e-10

    def test_phi_moment(self):
        g = circle_grid()
        e0 = sample(scr_eigenstate(0), g)
        assert quad_inner(e0, g.points * e0, g) == pytest.approx(PI, abs=1e-8)

    def test_length_mismatch(self):
        g = circle_grid(512)
        with pytest.raises(ValueError):
            quad_inner(np.ones(3), np.ones(3), g)

    @pytest.mark.parametrize(
        "shape, accepted",
        [
            pytest.param((64,), False, id="64"),
            pytest.param((2, 64), True, id="2x64"),
            pytest.param((4, 64), True, id="4x64"),
            pytest.param((3, 32), False, id="3x32"),
            pytest.param((3, 65), False, id="3x65"),
        ],
    )
    def test_sphere_shape_mismatch(self, shape, accepted):
        """A sphere sample is any number of rows over the phi grid: a flat
        array or rows of another length are rejected."""
        g = sphere_grid(16, 64)
        if accepted:
            assert quad_inner(np.ones(shape), np.ones(shape), g) == pytest.approx(np.prod(shape) * TWO_PI / 64)
            return
        with pytest.raises(ValueError):
            quad_inner(np.ones(shape), np.ones(shape), g)

    @pytest.mark.parametrize("n_phi", [1024, 4096, 8192])
    @pytest.mark.parametrize("l", [0, 1, 2, 3, 5, 8, 12])
    def test_sphere_gram_on_float_view_is_bit_identical(self, l, n_phi):
        """The real theta factor applied to the float view of complex rows
        gives the bytes of the complex product ``F^T @ rows``, so the fold in
        ``sample`` gives those of its plain expression."""
        factor = oracle.theta_factor(l, 64)
        rng = np.random.default_rng(1000 * l + n_phi)
        rows = rng.standard_normal((2 * l + 1, n_phi)) + 1j * rng.standard_normal((2 * l + 1, n_phi))
        product = (factor.T @ rows.view(float)).view(complex)
        assert product.shape == (l + 1, n_phi)
        assert np.array_equal(product.view(np.uint8), (factor.T @ rows).view(np.uint8))


def _four_term_derivative(samples, grid):
    """Reference: the four-term interior expression with full-array temporaries."""
    arr = np.asarray(samples)
    c = oracle._FD_INTERIOR
    out = np.zeros_like(arr, dtype=complex if np.iscomplexobj(arr) else float)
    out[..., 2:-2] = c[0] * arr[..., :-4] + c[1] * arr[..., 1:-3] + c[3] * arr[..., 3:-1] + c[4] * arr[..., 4:]
    head, tail = arr[..., :5], arr[..., -5:]
    out[..., 0] = head @ oracle._FD_FORWARD
    out[..., 1] = head @ oracle._FD_OFFSET
    out[..., -1] = -(tail[..., ::-1] @ oracle._FD_FORWARD)
    out[..., -2] = -(tail[..., ::-1] @ oracle._FD_OFFSET)
    return out / grid.spacing


def _random_samples(n, rows, dtype):
    rng = np.random.default_rng(n + (rows or 0))
    shape = (n,) if rows is None else (rows, n)
    arr = rng.standard_normal(shape)
    return arr + 1j * rng.standard_normal(shape) if dtype is complex else arr


def _assert_same_bits(got, want):
    """Bit for bit, except the sign of an exact zero: ``numeric_derivative``
    scales by 1 / h, which keeps a -0.0 that the complex division x / h
    turns into +0.0 (the derivative of a constant row is all zeros)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    nonzero = want.view(float) != 0.0
    assert np.array_equal(got.view(np.uint64)[nonzero], want.view(np.uint64)[nonzero])


def _peak_bytes(fn):
    """Peak bytes traced while ``fn()`` runs, above what was live before it;
    numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestInPlaceKernels:
    """The hot kernels fill their results in place: derivatives and
    deviation kets equal the full-temporary expressions bit for bit, and
    only the summation order of ``quad_inner`` differs from h sum conj(f) g."""

    # 16384 complex (32768 real) elements is where numpy starts eliding temporaries
    @pytest.mark.parametrize("n", [1024, 8192, 32768, 65536])
    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_derivative_equals_four_term_expression(self, n, rows, dtype):
        arr, grid = _random_samples(n, rows, dtype), circle_grid(n)
        got, want = numeric_derivative(arr, grid), _four_term_derivative(arr, grid)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    @pytest.mark.parametrize("n", [8192, 16384, 32768])
    @pytest.mark.parametrize("rows", [None, 3])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_derivative_into_buffers_equals_four_term_expression(self, n, rows, dtype):
        """Written into caller buffers that hold garbage, the same bytes."""
        arr, grid = _random_samples(n, rows, dtype), circle_grid(n)
        out, scratch = np.full_like(arr, np.nan), np.full_like(arr, np.nan)
        got, want = numeric_derivative(arr, grid, out, scratch), _four_term_derivative(arr, grid)
        assert got is out
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    # complex rows of 8192, 16384 and 32768 nodes, 2, 3 and 4 rows of 4096 (128,
    # 192 and 256 KiB) and 4096 line nodes: both sides of 256 KiB, where numpy
    # starts eliding temporaries, which the one array-first order must not notice
    KERNEL_CASES = [("circle", 8192), ("circle", 16384), ("circle", 32768)]
    KERNEL_CASES += [("sphere", 1), ("sphere", 2), ("sphere", 3), ("line", 8)]

    @staticmethod
    def _kernel_case(family, size):
        """A sampled state: a band-8 circle state on ``size`` nodes, an l =
        ``size`` sphere state, or a line state up to n = ``size``."""
        rng = np.random.default_rng(size)
        if family == "circle":
            state, grid = random_periodic(rng, band=8), circle_grid(size)
        elif family == "sphere":
            state, grid = random_sphere(rng, size), sphere_grid(n_phi=4096)
        else:
            state = random_oscillator(rng, nmax=size)
            grid = line_grid_for(state)
        return state, grid, sample(state, grid)

    @staticmethod
    def _plain_action(tag, psi, state, grid):
        """The action as a plain expression over fresh temporaries, each
        phase from np.exp: the operand order numpy picks for it is the one
        the in-place kernels must reproduce."""
        line = grid if isinstance(grid, Grid1D) else grid.phi_grid
        if tag == "Lz":
            return -1j * state.hbar * _four_term_derivative(psi, line)
        if tag == "Phi":
            return line.points * psi
        fvals = np.zeros(line.points.shape, dtype=complex)
        for k, coef in oracle.operators.resolve_observable(tag).fourier:
            fvals = fvals + coef * np.exp(1j * k * line.points)
        return fvals * psi

    @pytest.mark.parametrize("case", KERNEL_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
    @pytest.mark.parametrize("tag", ["Lz", "Phi", "SinPhi", "CosPhi"])
    def test_act_into_buffers_is_bit_identical(self, case, tag):
        """act into caller buffers equals a fresh act byte for byte, and
        both equal the plain expression; only an exact zero may carry the
        other sign there (see ``_assert_same_bits``)."""
        state, grid, psi = self._kernel_case(*case)
        fresh = oracle.act(tag, psi, state, grid)
        out, scratch = np.full_like(psi, np.nan), np.full_like(psi, np.nan)
        into = oracle.act(tag, psi, state, grid, out=out, scratch=scratch)
        assert into is out
        assert np.array_equal(into.view(np.uint8), fresh.view(np.uint8))
        _assert_same_bits(into, self._plain_action(tag, psi, state, grid))

    @staticmethod
    def _sampled(family):
        rng = np.random.default_rng(17)
        state = {
            "circle": random_periodic(rng),
            "line": qtp_eigenstate(3),
            "sphere": random_sphere(rng, 3),
        }[family]
        return oracle.Sampled(state)

    @pytest.mark.parametrize("family", ["circle", "line", "sphere"])
    def test_quad_inner_matches_direct_sum(self, family):
        """On the sphere the folded rows of ``sample`` carry the theta
        weights, so every grid sums h conj(f) g over its samples."""
        s = self._sampled(family)
        arrays = [s.psi] + [s.acted(t) for t in ("Lz", "Phi", "SinPhi", "CosPhi")]
        h = s.grid.phi_grid.spacing if family == "sphere" else s.grid.spacing
        for f in arrays:
            for g in arrays:
                terms = np.conj(f) * g
                want = complex(h * np.sum(terms))
                # relative to the summed moduli: entries that vanish analytically sit at round-off
                scale = h * np.sum(np.abs(terms))
                assert abs(quad_inner(f, g, s.grid) - want) <= 1e-13 * scale

    @pytest.mark.parametrize("family", ["circle", "line", "sphere"])
    def test_deviation_is_bit_identical(self, family):
        s = self._sampled(family)
        for tag in ("Lz", "Phi", "SinPhi", "CosPhi"):
            want = s.acted(tag) - s.mean(tag) * s.psi
            assert np.array_equal(s._deviation(tag).view(np.uint8), want.view(np.uint8))


class TestAllocations:
    """On a 32768-node grid each full-grid array is 512 KiB; the kernels
    allocate only the arrays they return or must hold at once, and a
    ``Sampled`` acts into its work block."""

    SLACK = 16384  # bytes of small Python objects, far below one grid array

    @pytest.fixture
    def warm(self):
        s = oracle.Sampled(random_periodic(np.random.default_rng(23)), circle_grid(32768))
        tags = ("Lz", "Phi", "SinPhi", "CosPhi")
        for tag in tags:
            s.acted(tag)
            s.mean(tag)
        return s, tags, s.psi.nbytes

    def test_quad_inner_allocates_no_grid_array(self, warm):
        s, _, _ = warm
        assert _peak_bytes(lambda: quad_inner(s.psi, s.acted("Phi"), s.grid)) < self.SLACK

    def test_numeric_derivative_peaks_at_two_arrays(self, warm):
        s, _, size = warm
        peak = _peak_bytes(lambda: numeric_derivative(s.psi, s.grid))
        assert 2 * size - self.SLACK < peak < 2 * size + self.SLACK

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_dev_inners_allocates_one_array_per_tag(self, warm, count):
        """One array per tag past the two that take the work block's rows."""
        s, tags, size = warm
        pairs = [(a, b) for a in tags[:count] for b in tags[:count]]
        peak = _peak_bytes(lambda: s.dev_inners(pairs))
        new = max(count - 2, 0) * size
        assert new - self.SLACK < peak < new + self.SLACK

    def test_warm_sampled_acts_without_allocating(self, warm):
        """Once a Sampled holds its work block, first- and second-order
        actions allocate no grid array; Phi takes one ufunc buffer to cast
        the real nodes to complex."""
        s, _, _ = warm
        cast_buffer = np.getbufsize() * np.dtype(complex).itemsize
        fresh = oracle.Sampled(s.state, s.grid)
        fresh.acted("Lz")  # samples psi and allocates the block
        for tag in ("Phi", "SinPhi", "CosPhi"):
            assert _peak_bytes(lambda: fresh.acted(tag)) < cast_buffer + self.SLACK
        for a in ("Lz", "Phi"):
            for b in ("Lz", "Phi"):
                assert _peak_bytes(lambda: s.expect2(a, b)) < cast_buffer + self.SLACK

    def test_second_circle_grid_allocates_nothing(self):
        first = circle_grid(32768)
        assert _peak_bytes(lambda: circle_grid(32768)) == 0
        assert circle_grid(32768) is first
        with pytest.raises(ValueError):
            first.points[0] = 0.0


# One in-process scenario op, run three times; prints the exit code and the
# minor page faults of the last run.
FAULT_SCRIPT = """
import contextlib, io, resource, sys
from angulab import cli

for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["scenario", "custom", "--coeffs", sys.argv[1], "--oracle"])
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(code, faults)
"""


@pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="counts the page faults of glibc's malloc thresholds",
)
@pytest.mark.parametrize("family", ["circle", "sphere"])
def test_warm_scenario_takes_no_page_faults(tmp_path, family):
    """A warm circle (band 8) or sphere (l = 3) op reuses heap pages.

    The first op's work block is above glibc's mmap threshold, and freeing
    it raises that threshold and the trim threshold; the second op grows
    the heap to its peak once, and from the third on no grid array maps
    fresh pages (separate arrays per action took 481 and 1308 faults on
    the third op here).  A fresh process, because an earlier test that
    frees a large array has already raised the thresholds of this one."""
    rng = np.random.default_rng(31)
    state = random_periodic(rng, band=8) if family == "circle" else random_sphere(rng, 3)
    path = tmp_path / "state.json"
    states.save(state, str(path))
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_SCRIPT, str(path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    code, faults = map(int, proc.stdout.split())
    assert code == 0
    assert faults < 64


class TestNumericDerivative:
    def test_plane_wave(self):
        g = circle_grid(1024)
        f = np.exp(1j * g.points)
        df = numeric_derivative(f, g)
        err = np.abs(df[2:-2] - 1j * f[2:-2])
        assert np.max(err) < 1e-7

    def test_constant(self):
        g = circle_grid(64)
        df = numeric_derivative(np.ones(64, dtype=complex), g)
        assert np.max(np.abs(df)) < 1e-12

    def test_sawtooth_no_boundary_spike(self):
        # phi itself: one-sided stencils keep the ends exact, no wrap
        g = circle_grid(1024)
        df = numeric_derivative(g.points.astype(complex), g)
        assert np.max(np.abs(df - 1.0)) < 1e-7

    def test_too_short(self):
        with pytest.raises(ValueError):
            numeric_derivative(np.ones(4), Grid1D(np.arange(4.0), 1.0, "line"))

    def test_fourth_order_convergence(self):
        errs = []
        for n in (256, 512, 1024):
            g = circle_grid(n)
            f = np.exp(2j * g.points)
            df = numeric_derivative(f, g)
            errs.append(np.max(np.abs(df[2:-2] - 2j * f[2:-2])))
        assert errs[0] / errs[1] > 12  # h^4 scaling gives 16
        assert errs[1] / errs[2] > 12


class TestGridRefinement:
    def test_variance_error_quarters_until_small(self):
        # midpoint-rule error on the angle variance scales like h^2
        target = PI / np.sqrt(3)
        s = scr_eigenstate(2)
        prev = None
        reached = False
        n = 256
        while n <= 65536:
            table = oracle.moment_table(s, ("Phi",), circle_grid(n))
            err = abs(table["Phi"][1] - target)
            if err <= 1e-9:
                reached = True
                break
            if prev is not None:
                assert prev / err >= 3.8
            prev = err
            n *= 2
        assert reached

    def test_line_truncation_tail(self):
        # tail mass beyond |phi| = 12 for n <= 10 is Gaussian-small
        for n in (0, 5, 10):
            q = qtp_eigenstate(n)
            g = line_grid(20.0, 8192)
            psi = sample(q, g)
            outside = np.abs(g.points) > 12.0
            tail = g.spacing * np.sum(np.abs(psi[outside]) ** 2)
            assert tail < 1e-12


class TestOracleReports:
    def test_scr_moments(self):
        table = oracle.moment_table(scr_eigenstate(2), ("Lz", "Phi"))
        assert abs(table["Lz"][1]) < 1e-7
        assert table["Phi"][1] == pytest.approx(PI / np.sqrt(3), abs=1e-6)

    def test_qtp_moments(self):
        q = qtp_eigenstate(1)
        table = oracle.moment_table(q, ("Lz", "Phi"), line_grid(12.0, 4096))
        assert table["Lz"][1] == pytest.approx(np.sqrt(1.5), abs=1e-6)
        assert table["Phi"][1] == pytest.approx(np.sqrt(1.5), abs=1e-6)

    def test_scr_condition19(self):
        mm = oracle.mismatch_entries(scr_eigenstate(0, hbar=1.0), "Lz", "Phi")
        assert mm[0, 1] == pytest.approx(1j, abs=1e-6)

    def test_descriptor_api(self):
        """Named relations through ``relation_values``; unknown names raise."""
        rep = oracle.relation_values(oracle.Sampled(scr_eigenstate(2)), "moments")
        assert rep["std_Phi"] == pytest.approx(PI / np.sqrt(3), abs=1e-6)
        rep = oracle.relation_values(oracle.Sampled(qtp_eigenstate(1)), "rsur")
        assert rep["lhs"] == pytest.approx(1.5, abs=1e-5)
        with pytest.raises(ValueError):
            oracle.relation_values(oracle.Sampled(scr_eigenstate(0)), "nope")

    def test_boundary_sides_match_spectral(self):
        from angulab.relations import boundary_bound

        rng = np.random.default_rng(44)
        for _ in range(5):
            s = random_periodic(rng)
            o = oracle.relation_values(oracle.Sampled(s), "boundary")
            r = boundary_bound(s)
            assert o["lhs"] == pytest.approx(r.lhs, abs=2e-6)
            assert o["rhs"] == pytest.approx(r.rhs, abs=2e-6)

    def test_sphere_csf_sides(self):
        from angulab.relations import csf
        from angulab.operators import LZ, PHI

        s = sphere_state(2, {-1: 1, 2: 1j})
        o = oracle.relation_values(oracle.Sampled(s), "csf")
        r = csf(LZ, PHI, s)
        assert o["lhs"] == pytest.approx(r.lhs, abs=2e-6)
        assert o["rhs"] == pytest.approx(r.rhs, abs=2e-6)


class TestFactoredSphere:
    """The sphere oracle keeps a state's phi factor, one row per m, folded
    onto l + 1 rows through ``theta_factor``, whose product with its
    transpose is ``theta_gram``: by linearity that is the dense tensor-grid
    oracle summed in another order, so every registry value agrees with the
    dense reference up to rounding."""

    @pytest.mark.parametrize("l", range(5))
    def test_matches_dense_reference(self, monkeypatch, l):
        state = random_sphere(np.random.default_rng(700 + l), l, hbar=1.7)
        grid = oracle.default_grid(state, 1024)
        # boundary extrapolates psi(2 pi - 0) on a circle grid; the sphere has none.
        # The commutator is 1D only, and its maximum over phi rows is not the
        # dense grid's maximum.
        left_out = ("boundary", "commutator")
        names = [name for name in oracle.RELATION_VALUES if name not in left_out]
        factored = {name: oracle.relation_values(oracle.Sampled(state, grid), name) for name in names}
        monkeypatch.setattr(oracle, "sample", _dense_sample)
        monkeypatch.setattr(oracle, "quad_inner", _dense_quad_inner)
        dense = oracle.Sampled(state, grid)
        assert dense.psi.shape == (grid.theta_rule.nodes.size, grid.phi_grid.points.size)
        for name in names:
            want = oracle.relation_values(dense, name)
            got = factored[name]
            assert list(got) == list(want), name
            for key in want:
                g, w = np.asarray(got[key]), np.asarray(want[key])
                bound = np.maximum(1e-10, 1e-9 * np.abs(w))
                assert np.all(np.abs(g - w) <= bound), (name, key, g, w)

    @pytest.mark.parametrize("l", [0, 3])
    def test_phi_rows(self, l):
        """The 2l + 1 phi rows fold onto l + 1 through the theta factor."""
        s = oracle.Sampled(random_sphere(np.random.default_rng(l), l))
        assert s.psi.shape == (l + 1, oracle.DEFAULT_SPHERE_PHI)

    def test_theta_factor(self):
        """F is (2l + 1) x (l + 1), and F F^T is the theta Gram to round-off,
        at every l the default phi grid takes."""
        for l in range(65):
            factor = oracle.theta_factor(l, oracle.DEFAULT_SPHERE_THETA)
            gram = oracle.theta_gram(l, oracle.DEFAULT_SPHERE_THETA)
            assert factor.shape == (2 * l + 1, l + 1)
            assert not factor.flags.writeable
            assert np.max(np.abs(factor @ factor.T - gram)) <= 1e-14 * np.max(np.abs(gram)), l

    def test_too_few_theta_nodes_rejected(self):
        """l + 1 folded rows need l + 1 theta nodes for a positive definite Gram."""
        state = random_sphere(np.random.default_rng(9), 9)
        assert sample(state, sphere_grid(10, 64)).shape == (10, 64)
        with pytest.raises(ValueError, match="at least l \\+ 1 theta nodes"):
            sample(state, sphere_grid(9, 64))

    @pytest.mark.parametrize("l", [0, 1, 4])
    def test_theta_gram(self, l):
        gram = oracle.theta_gram(l, oracle.DEFAULT_SPHERE_THETA)
        assert gram.shape == (2 * l + 1, 2 * l + 1)
        assert np.allclose(gram, gram.T, rtol=0.0, atol=1e-15)
        assert not gram.flags.writeable
        assert np.linalg.matrix_rank(gram) == l + 1  # theta_l,-m = +-theta_lm
        assert np.allclose(np.diag(gram), 1.0, rtol=0.0, atol=1e-13)
        assert oracle.theta_gram(l, oracle.DEFAULT_SPHERE_THETA) is gram


class TestSharedSample:
    """One ``Sampled`` shared by every relation gives exactly the numbers of
    a fresh one per relation, whatever order the relations read it in."""

    @staticmethod
    def _states():
        rng = np.random.default_rng(2024)
        return {
            "scr m=2": scr_eigenstate(2),
            "qtp n=1": qtp_eigenstate(1),
            "random periodic": random_periodic(rng),
            "random sphere l=2": random_sphere(rng, 2),
        }

    @staticmethod
    def _assert_same(got, want, where):
        assert list(got) == list(want), where
        for key in want:
            assert np.array_equal(got[key], want[key]), (where, key)

    @pytest.mark.parametrize("label", ["scr m=2", "qtp n=1", "random periodic", "random sphere l=2"])
    def test_shared_equals_fresh(self, label):
        from angulab.cli import evaluate_relation

        state = self._states()[label]
        grid = oracle.default_grid(state, 1024)
        names = [
            name
            for name in oracle.RELATION_VALUES
            if evaluate_relation(name, state).get("status") != "not-applicable"
        ]
        assert len(names) >= 9
        fresh = {name: oracle.relation_values(oracle.Sampled(state, grid), name) for name in names}
        for order in (names, names[::-1]):
            shared = oracle.Sampled(state, grid)
            for name in order:
                self._assert_same(oracle.relation_values(shared, name), fresh[name], (label, name))
