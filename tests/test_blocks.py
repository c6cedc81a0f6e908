"""Block-by-block integration tests.

Core claims:
    - the integrators, which sample and step one block of
      darboux._BLOCK_STEPS steps at a time, are bit-identical to their
      full-array forms (kept here and in whole_grid.py as references)
      for grids of one, two and three blocks, substeps 1-3 and
      n = 2, 3, 4, and so are the Simpson sums of the curve dual (on
      the grid, the only step it takes) and of both surface duals; the
      Calapso frames, which form each block's products by a prefix
      scan, match the sequential product of the same step maps to
      rounding, and sections stepped by the formed maps M_k y match
      the increment form y + E_k y to rounding
    - a batch of initial points, stepped together with one projection
      per step, gives each point's single section to rounding
    - a block interpolates only its evaluation points off the grid nodes,
      by fixed 4-point weights per fraction of a cell that match
      per-point cubic Lagrange interpolation to a few ulps, reproduce
      cubics, and equal the whole-grid sums bit for bit on grids of
      5-7 nodes, where blocks touch the clamped first and last cells
    - a secant collapse or a run off to infinity in a later block is
      reported at the same parameter as by the full-array form
    - the memory a transform (or a file write) needs beyond the arrays
      it returns does not grow with the grid
"""

import tracemalloc

import numpy as np
import pytest

import isothermic.cmc as cmc
import isothermic.darboux as db
import isothermic.minkowski as mk
import isothermic.transforms as tr
from isothermic import curves, fileio
from isothermic.clifford import sandwich
from isothermic.curves import Grid, PolarizedCurve, make_curve, make_helix
from isothermic.errors import (
    DimensionError,
    PointAtInfinityError,
    PolarizationError,
    SingularEncounterError,
)
from isothermic.surface import SemiDiscreteSurface
from whole_grid import connection_samples, cubic_interp, half_step_samples

# ------------------------------------------------------------ references


def _full_step_maps(a_all, h, rule):
    """Every step's map increment from samples over the whole grid, in
    blocks of _BLOCK_STEPS steps (the Magnus scaling sees whole blocks)."""
    total = (len(a_all) - 1) // 2
    for k0 in range(0, total, db._BLOCK_STEPS):
        k1 = min(k0 + db._BLOCK_STEPS, total)
        yield from rule(
            a_all[2 * k0 : 2 * k1 : 2],
            a_all[2 * k0 + 1 : 2 * k1 : 2],
            a_all[2 * k0 + 2 : 2 * k1 + 1 : 2],
            h,
        )


def _riccati_full(curve, mu, xhat0, substeps):
    h, (x_all, xp_all, m_all) = half_step_samples(
        curve.grid, substeps, curve.x, curve.xprime, curve.m
    )
    w_all = db.inverse_tangent(xp_all, m_all)
    scale = max(float(np.max(np.abs(curve.x))), float(np.linalg.norm(xhat0)), 1.0)
    flat = db._riccati_kernel(curve.n)(
        x_all.ravel().tolist(), w_all.ravel().tolist(), xhat0.tolist(), 0,
        (len(x_all) - 1) // 2, h, float(mu), (db.SECANT_TOL * scale) ** 2, curve.grid.s0,
    )
    samples = np.array(flat).reshape(-1, curve.n)[::substeps]
    finite = np.isfinite(samples).all(axis=1)
    if not finite.all():
        s = curve.grid.nodes()[int(np.argmin(finite))]
        raise PointAtInfinityError(f"Riccati transform leaves R^{curve.n} near s = {s:.6g}")
    node_idx = 2 * substeps * np.arange(curve.grid.num)
    secants = samples - x_all[node_idx]
    gaps = np.linalg.norm(secants, axis=1)
    if np.min(gaps) <= db.SECANT_TOL * scale:
        raise SingularEncounterError(curve.grid.nodes()[int(np.argmin(gaps))])
    return samples, mu * sandwich(secants, w_all[node_idx])


def _full_map_step(e, y):
    """(I + E_k) y: the step map formed, then applied."""
    return (np.eye(len(y)) + e).dot(y)


def _increment_step(e, y):
    """y + E_k y: the step applied in increment form."""
    return y + e.dot(y)


def _parallel_full(source, t, xihat0, substeps, step=_full_map_step):
    a_all, h = connection_samples(db.euclidean_section(source), source.m, t, substeps)
    out = np.empty(((len(a_all) - 1) // 2 + 1, source.n + 2))
    out[0] = y = mk.euclidean_lift(xihat0)
    for k, e in enumerate(_full_step_maps(a_all, h, db._rk4_increments), start=1):
        y = db.lightcone_restore(step(e, y))
        out[k] = y
    samples = out[::substeps]
    node_idx = 2 * substeps * np.arange(source.grid.num)
    return samples, np.einsum("kij,kj->ki", a_all[node_idx], samples)


def _calapso_full(sec, m, t, substeps):
    """Frames as the sequential product of the Magnus step maps, one step at a time."""
    d = sec.n + 2
    a_all, h = connection_samples(sec, m, t, substeps)
    out = np.empty(((len(a_all) - 1) // 2 + 1, d, d))
    out[0] = y = np.eye(d)
    for k, e in enumerate(_full_step_maps(a_all, h, tr._magnus_increments), start=1):
        y = y + y @ e
        out[k] = y
    frames = tr.CalapsoFrameField(grid=sec.grid, t=t, T=out[::substeps].copy(), source=sec)
    return frames, frames.move(sec)


def _dual_full(curve):
    h, (xp_all, m_all) = half_step_samples(curve.grid, 1, curve.xprime, curve.m)
    if np.any(np.sign(m_all) != np.sign(m_all[0])):
        raise PolarizationError("polarization changes sign inside the interval")
    rhs_all = db.inverse_tangent(xp_all, m_all)
    out = db.simpson_cumulative(rhs_all, h, np.zeros(curve.n))
    return out, rhs_all[::2]


def _surface_duals_full(surface):
    """Layer 0 of the lifted Christoffel dual and of the Koenigs dual.

    Each is the Simpson sum of its derivative over the whole grid; the
    further layers follow from layer 0 by an edge rule, with no sampling.
    """
    lift = surface.lift(0)
    lifted_prime = lift.xiprime / (surface.m * mk.norm2(lift.xiprime))[:, None]
    koenigs_prime = -lift.xiprime / (surface.m * surface.curves[0].speed2)[:, None]
    out = []
    for prime, anchor in ((lifted_prime, lift.xi[0]), (koenigs_prime, np.zeros(surface.n + 2))):
        h, (f_all,) = half_step_samples(surface.grid, 1, prime)
        out.append((db.simpson_cumulative(f_all, h, anchor), prime))
    return out


# ------------------------------------------------------------ bit identity


def _curve(n, num, substeps, s1=3.0):
    """A curve in R^n with a varying polarization, on [0, s1]."""
    grid = Grid(0.0, s1, num)
    s = grid.nodes()
    columns = [  # (coordinate, its derivative)
        (np.cos(s) * (1.0 + 0.1 * s), 0.1 * np.cos(s) - np.sin(s) * (1.0 + 0.1 * s)),
        (np.sin(s), np.cos(s)),
        (0.3 * s, np.full(num, 0.3)),
        (0.2 * np.sin(2 * s), 0.4 * np.cos(2 * s)),
        (0.1 * s * s, 0.2 * s),
    ][:n]
    m = (1.0 if substeps != 2 else -0.7) + 0.1 * np.sin(s)
    return PolarizedCurve(
        n=n,
        grid=grid,
        x=np.stack([f for f, _ in columns], axis=1),
        xprime=np.stack([df for _, df in columns], axis=1),
        m=m,
    )


def _grid_size(blocks, substeps):
    """Nodes of a grid whose run of steps fills ``blocks`` blocks, the last one partly."""
    return (blocks * db._BLOCK_STEPS - db._BLOCK_STEPS // 10) // substeps + 1


# The prefix scan groups the frame products differently from the
# sequential loop.  Worst gaps measured, relative to the largest entry:
# 3.9e-14 on the curves below, 1.6e-13 at t = 60, where the exponentials
# are scaled.
_FRAME_RTOL = 1e-13
_SCALED_FRAME_RTOL = 5e-13
# Sections stepped by M_k y against y + E_k y, relative to the largest
# entry: measured up to 2.7e-14 on these curves, 1.6e-13 at N = 3001.
_SECTION_RULE_RTOL = 1e-11


def _assert_close(actual, reference, rtol):
    gap = np.max(np.abs(actual - reference)) / np.max(np.abs(reference))
    assert gap <= rtol, gap


def _assert_bit_identical(c, substeps):
    p0 = c.x[0] + np.linspace(1.5, 0.5, c.n)

    x_ref, xp_ref = _riccati_full(c, -2.0, p0, substeps)
    hat = db.integrate_riccati(c, -2.0, p0, substeps)
    assert np.array_equal(hat.x, x_ref) and np.array_equal(hat.xprime, xp_ref)

    xi_ref, xip_ref = _parallel_full(c, -2.0, p0, substeps)
    sec = db.integrate_parallel_section(c, -2.0, p0, substeps)
    assert np.array_equal(sec.xi, xi_ref) and np.array_equal(sec.xiprime, xip_ref)

    if substeps == 1:  # the dual steps on the grid only
        x_ref, xp_ref = _dual_full(c)
        dual = tr.christoffel_dual(c)
        assert np.array_equal(dual.x, x_ref) and np.array_equal(dual.xprime, xp_ref)


def _assert_calapso_matches_loop(c, substeps):
    """Frames and moved sections to rounding."""
    lift = db.euclidean_section(c)
    bare = db.LightConeSection(grid=c.grid, xi=lift.xi, m=c.m)  # derivative by finite differences
    for source, ref_section, t in ((c, lift, 0.4), (bare, bare, -3.0)):
        frames_ref, moved_ref = _calapso_full(ref_section, c.m, t, substeps)
        frames = tr.integrate_calapso(source, t, substeps)
        moved = frames.move(ref_section)
        _assert_close(frames.T, frames_ref.T, _FRAME_RTOL)
        _assert_close(moved.xi, moved_ref.xi, _FRAME_RTOL)
        _assert_close(moved.xiprime, moved_ref.xiprime, _FRAME_RTOL)


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_surface_duals_are_bit_identical_to_full_arrays(blocks, monkeypatch):
    monkeypatch.setattr(db, "_BLOCK_STEPS", 64)
    c = _curve(3, _grid_size(blocks, 1), 1)
    shifted = PolarizedCurve(n=3, grid=c.grid, x=c.x + [0.0, 0.0, 0.5], xprime=c.xprime, m=c.m)
    surface = SemiDiscreteSurface(curves=[c, shifted], mu=[-2.0])
    assert (blocks - 1) * db._BLOCK_STEPS < c.grid.num - 1 <= blocks * db._BLOCK_STEPS
    lifted = cmc.lifted_christoffel_dual(surface)
    koenigs, _ = cmc.koenigs_dual(surface)
    for fields, (z_ref, zprime_ref) in zip((lifted, koenigs), _surface_duals_full(surface)):
        assert np.array_equal(fields[0].xi, z_ref)
        assert np.array_equal(fields[0].xiprime, zprime_ref)


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("substeps", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_blocks_are_bit_identical_to_full_arrays(n, substeps, blocks, monkeypatch):
    # Short blocks keep the 27 cases fast; 64 steps are not a multiple of
    # 3, so blocks also start and end between grid nodes.
    monkeypatch.setattr(db, "_BLOCK_STEPS", 64)
    c = _curve(n, _grid_size(blocks, substeps), substeps)
    steps = (c.grid.num - 1) * substeps
    assert (blocks - 1) * db._BLOCK_STEPS < steps <= blocks * db._BLOCK_STEPS
    _assert_bit_identical(c, substeps)
    _assert_calapso_matches_loop(c, substeps)


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_section_steps_by_full_maps_match_the_increment_form(n, blocks, monkeypatch):
    # M_k y with M_k = I + E_k and y + E_k y round differently, by a few
    # ulps per step; the light-cone repair holds both on the cone.
    monkeypatch.setattr(db, "_BLOCK_STEPS", 64)
    c = _curve(n, _grid_size(blocks, 1), 1)
    p0 = c.x[0] + np.linspace(1.5, 0.5, n)
    xi_ref, xip_ref = _parallel_full(c, -2.0, p0, 1, step=_increment_step)
    sec = db.integrate_parallel_section(c, -2.0, p0)
    _assert_close(sec.xi, xi_ref, _SECTION_RULE_RTOL)
    _assert_close(sec.xiprime, xip_ref, _SECTION_RULE_RTOL)
    null_defect = np.abs(mk.norm2(sec.xi)) / np.sum(sec.xi * sec.xi, axis=1)
    assert np.max(null_defect) <= 1e-14


# A batch steps its states as the columns of one array, which rounds
# differently from one state at a time: gaps up to 2.5e-14 measured on
# these curves, relative to the largest entry.
_BATCH_RTOL = 1e-13


def _batch_points(c, count):
    """``count`` affine initial points off the curve start, distinct per row."""
    return c.x[0] + np.linspace(1.5, 0.5, c.n) + 0.3 * np.arange(count)[:, None]


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("substeps", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_batched_sections_match_single_sections(n, substeps, blocks, monkeypatch):
    monkeypatch.setattr(db, "_BLOCK_STEPS", 64)
    c = _curve(n, _grid_size(blocks, substeps), substeps)
    points = _batch_points(c, 4)
    singles = [db.integrate_parallel_section(c, -2.0, p, substeps) for p in points]
    for count in (1, 2, 3, 4):
        for batch in (points[:count], mk.euclidean_lift(points[:count])):
            sections = db.integrate_parallel_section(c, -2.0, batch, substeps)
            assert isinstance(sections, list) and len(sections) == count
            for sec, ref in zip(sections, singles):
                _assert_close(sec.xi, ref.xi, _BATCH_RTOL)
                _assert_close(sec.xiprime, ref.xiprime, _BATCH_RTOL)
                null_defect = np.abs(mk.norm2(sec.xi)) / np.sum(sec.xi * sec.xi, axis=1)
                assert np.max(null_defect) <= 1e-14


def _restored_shapes(c, points, substeps, monkeypatch):
    """The shape of every ``lightcone_restore`` argument of one section run."""
    shapes = []
    restore = db.lightcone_restore

    def counted(y):
        shapes.append(y.shape)
        return restore(y)

    monkeypatch.setattr(db, "lightcone_restore", counted)
    db.integrate_parallel_section(c, -2.0, points, substeps)
    return shapes


@pytest.mark.parametrize("substeps", [1, 3])
def test_a_batch_makes_one_projection_per_step(substeps, monkeypatch):
    monkeypatch.setattr(db, "_BLOCK_STEPS", 64)
    c = _curve(3, _grid_size(2, substeps), substeps)
    shapes = _restored_shapes(c, _batch_points(c, 3), substeps, monkeypatch)
    assert shapes == [(5, 3)] * ((c.grid.num - 1) * substeps)


@pytest.mark.parametrize("substeps", [1, 3])
def test_a_single_point_makes_one_projection_per_step(substeps, monkeypatch):
    monkeypatch.setattr(db, "_BLOCK_STEPS", 64)
    c = _curve(3, _grid_size(2, substeps), substeps)
    point = mk.euclidean_lift(_batch_points(c, 1)[0])
    shapes = _restored_shapes(c, point, substeps, monkeypatch)
    assert shapes == [(5,)] * ((c.grid.num - 1) * substeps)


@pytest.mark.parametrize("count", [None, 1, 3])
def test_sections_leave_their_initial_points_unchanged(count, monkeypatch):
    # The states are projected in place; a (1, n+2) batch transposes to a
    # view of the caller's array, so that case must not be written either.
    monkeypatch.setattr(db, "_BLOCK_STEPS", 64)
    c = _curve(3, _grid_size(2, 1), 1)
    points = mk.euclidean_lift(_batch_points(c, count or 1))
    if count is None:
        points = points[0]
    before = points.copy()
    db.integrate_parallel_section(c, -2.0, points)
    assert np.array_equal(points, before)


@pytest.mark.parametrize(
    "shape", [(0, 3), (2, 4), (2, 6), (4,), (1, 2, 3), (2, 2, 5), ()], ids=str
)
def test_bad_batch_shapes_raise_dimension_error(shape):
    c = _curve(3, 11, 1)
    with pytest.raises(DimensionError):
        db.integrate_parallel_section(c, -2.0, np.ones(shape))


@pytest.mark.parametrize("substeps", [1, 2, 3])
def test_step_blocks_interpolate_only_the_points_off_the_grid_nodes(substeps, monkeypatch):
    # Random samples, which no interpolation reproduces: the node samples
    # must be exact copies, and the fills must cover every other point once.
    monkeypatch.setattr(db, "_BLOCK_STEPS", 64)
    grid = _curve(2, _grid_size(3, substeps), substeps).grid
    v = np.random.default_rng(substeps).standard_normal((grid.num, 3))
    blocks = list(db.step_blocks(grid, substeps))
    assert len(blocks) == 3
    for block in blocks:
        points = range(2 * block.steps + 1)
        on_nodes = points[block.node_samples]
        assert len(on_nodes) == block.nodes.stop - block.nodes.start > 0
        assert np.array_equal(block.sample(v[block.rows])[0][block.node_samples], v[block.nodes])
        filled = [j for at, _, _, _ in block.fills for j in points[at]]
        assert sorted(filled) == sorted(set(points) - set(on_nodes))
        assert block.rows.start <= block.nodes.start and block.nodes.stop <= block.rows.stop


def _blocked_samples(grid, substeps, v):
    """``v`` sampled block by block, joined into one whole-grid array."""
    parts = [block.sample(v[block.rows])[0][:-1] for block in db.step_blocks(grid, substeps)]
    return np.concatenate(parts + [v[-1:]])


# Fixed weights against weights formed per point from u = t - base:
# measured up to 4.7 ulps of the largest sample on these grids, and the
# rule against the cubics below up to 2.8 ulps of the largest value.
_LAGRANGE_ULPS = 8


@pytest.mark.parametrize("substeps", [1, 2, 3, 4])
@pytest.mark.parametrize("num", [5, 6, 7, 11])
def test_block_samples_match_per_point_lagrange_interpolation(num, substeps, monkeypatch):
    # Unit cells from s = 0 put every point at t = s exactly; blocks of
    # 3 steps start and end in the first and the last cell.
    monkeypatch.setattr(db, "_BLOCK_STEPS", 3)
    grid = Grid(0.0, num - 1.0, num)
    v = np.random.default_rng(num).standard_normal((num, 3))
    points = np.arange(2 * substeps * (num - 1) + 1) / (2 * substeps)
    ref = cubic_interp(v, grid, points)
    gap = np.max(np.abs(_blocked_samples(grid, substeps, v) - ref))
    assert gap <= _LAGRANGE_ULPS * np.finfo(float).eps * np.max(np.abs(v)), gap


@pytest.mark.parametrize("substeps", [1, 2, 3, 4])
@pytest.mark.parametrize("num", [5, 6, 7, 11])
def test_block_samples_reproduce_cubics(num, substeps, monkeypatch):
    monkeypatch.setattr(db, "_BLOCK_STEPS", 3)
    grid = Grid(0.0, num - 1.0, num)

    def cubic(s):
        return 2.0 * s**3 - 7.0 * s**2 + 3.0 * s - 5.0

    points = np.arange(2 * substeps * (num - 1) + 1) / (2 * substeps)
    got = _blocked_samples(grid, substeps, cubic(grid.nodes()))
    if substeps == 1:
        # Dyadic weights on integer samples: every product and sum is exact.
        assert np.array_equal(got, cubic(points))
    else:
        gap = np.max(np.abs(got - cubic(points)))
        assert gap <= _LAGRANGE_ULPS * np.finfo(float).eps * np.max(np.abs(cubic(points))), gap


@pytest.mark.parametrize("block_steps", [1, 2, 3])
@pytest.mark.parametrize("num", [5, 6, 7])
def test_blocks_on_the_smallest_grids_are_bit_identical_to_full_arrays(
    num, block_steps, monkeypatch
):
    # On these grids most blocks touch the clamped first or last cell,
    # and at N = 5 those two cells share three of their four nodes.  The
    # curve is short, so that a few RK4 steps stay near the transform.
    monkeypatch.setattr(db, "_BLOCK_STEPS", block_steps)
    for substeps in (1, 2, 3, 4):
        c = _curve(3, num, substeps, s1=0.5)
        v = np.random.default_rng(num).standard_normal((num, 2))
        _, (ref,) = half_step_samples(c.grid, substeps, v)
        assert np.array_equal(_blocked_samples(c.grid, substeps, v), ref)
        if substeps <= 3:
            _assert_bit_identical(c, substeps)
            _assert_calapso_matches_loop(c, substeps)


def test_blocks_between_grid_nodes_are_bit_identical_to_full_arrays(monkeypatch):
    # With more substeps than a block has steps, some blocks hold no node.
    monkeypatch.setattr(db, "_BLOCK_STEPS", 16)
    c = _curve(3, 7, 40)
    _assert_bit_identical(c, 40)
    _assert_calapso_matches_loop(c, 40)


def test_full_size_blocks_are_bit_identical_to_full_arrays():
    c = _curve(3, _grid_size(3, 3), 3)
    _assert_bit_identical(c, 3)
    _assert_calapso_matches_loop(c, 3)


def test_magnus_scaling_matches_the_sequential_product_across_blocks():
    # Large t makes some blocks scale Omega by 2^-s before the exponential;
    # the blocks must be the full-array form's, whatever substeps is.
    grid = Grid(0.0, 0.3, 2001)
    c = make_helix(1.0, 0.3, grid)
    for substeps in (1, 3):
        frames_ref, _ = _calapso_full(db.euclidean_section(c), c.m, 60.0, substeps)
        frames = tr.integrate_calapso(c, 60.0, substeps)
        _assert_close(frames.T, frames_ref.T, _SCALED_FRAME_RTOL)


@pytest.mark.parametrize("steps", [1, 31, 32, 33, 1024])
def test_prefix_increments_match_the_sequential_product(steps):
    # Random increments, larger than Magnus steps so that rounding builds
    # up; the products grow to entries of a few units.
    rng = np.random.default_rng(steps)
    e = 0.03 * rng.standard_normal((steps, 5, 5))
    p = db.prefix_increments(e)
    assert p.shape == (steps + 1, 5, 5) and not p[0].any()
    y = np.eye(5)
    for k in range(steps):
        y = y + y @ e[k]
        assert np.max(np.abs(p[k + 1] - (y - np.eye(5)))) <= 1e-14 * np.max(np.abs(y)), k


# ------------------------------------------------------------ error paths

# On a line in R^1 with mu = -2 the secant v = x^ - x obeys v' = -2 v^2 - 1:
# from v = 1 it passes through 0 near s = 0.68 and runs off to infinity
# near s = 1.8.  With 9000 steps both lie past the first block.
_LINE = make_curve("line", Grid(0.0, 3.0, 9001), n=1)


@pytest.mark.parametrize("substeps", [1, 3])
def test_secant_collapse_in_a_later_block_is_reported_at_the_same_s(substeps, monkeypatch):
    monkeypatch.setattr(db, "SECANT_TOL", 1e-3)
    p0 = np.array([1.0])
    with pytest.raises(SingularEncounterError) as ref:
        _riccati_full(_LINE, -2.0, p0, substeps)
    with pytest.raises(SingularEncounterError) as info:
        db.integrate_riccati(_LINE, -2.0, p0, substeps)
    assert info.value.s == ref.value.s
    assert 0.5 < info.value.s < 1.0 and info.value.s > _LINE.grid.h * db._BLOCK_STEPS / substeps


@pytest.mark.parametrize("substeps", [1, 3])
def test_run_off_to_infinity_in_a_later_block_is_reported_at_the_same_s(substeps):
    p0 = np.array([1.0])
    with np.errstate(all="ignore"):
        with pytest.raises(PointAtInfinityError) as ref:
            _riccati_full(_LINE, -2.0, p0, substeps)
    with pytest.raises(PointAtInfinityError) as info:
        db.integrate_riccati(_LINE, -2.0, p0, substeps)
    assert str(info.value) == str(ref.value)
    assert 1.78 < float(str(info.value).rsplit("s = ", 1)[1]) < 1.79


def test_sign_change_of_the_polarization_in_a_later_block_raises():
    c = _curve(3, _grid_size(3, 1), 1)
    m = c.m.copy()
    m[-10:] *= -1.0
    with pytest.raises(PolarizationError):
        tr.christoffel_dual(c.with_polarization(m))


# ------------------------------------------------------------ working set

# tracemalloc records every Python float that the Riccati kernel
# creates, which makes a traced Riccati run at N = 20001 take seconds.
# So blocks (and written and checked row blocks) shrink from 1024 to 32
# and the grids from 20001 and 40001 to 1001 and 2001 nodes.  The full-array
# forms already hold more than the bound at 1001 nodes (0.6-1.1 MB).
_SMALL_BLOCK = 32
_WORKING_SET_BOUND = 0.25e6


def _returned_bytes(value) -> int:
    """Bytes of the arrays in ``value`` that were allocated while tracing.

    Arrays count in sequences and in the fields of objects, nested: the
    frames of a curve hold its lift as their source section.  An array
    that existed before the call, such as the input's m that a section
    shares, is not the call's and does not count.
    """
    if isinstance(value, (tuple, list)):
        return sum(_returned_bytes(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.nbytes if tracemalloc.get_object_traceback(value) is not None else 0
    if hasattr(value, "__dict__"):
        return sum(_returned_bytes(v) for v in vars(value).values())
    return 0


def _excess_bytes(call) -> int:
    """Traced peak of a call minus the array bytes it returns."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
        returned = _returned_bytes(result)
    finally:
        tracemalloc.stop()
    return peak - returned


@pytest.mark.parametrize("num", [1001, 2001])
def test_working_set_does_not_grow_with_the_grid(num, tmp_path, monkeypatch):
    monkeypatch.setattr(db, "_BLOCK_STEPS", _SMALL_BLOCK)
    monkeypatch.setattr(fileio, "_WRITE_ROWS", _SMALL_BLOCK)
    monkeypatch.setattr(curves, "_CHECK_ROWS", _SMALL_BLOCK)
    c = make_helix(1.0, 0.2, Grid(0.0, 20.0, num))
    p0 = np.array([2.0, 0.0, 0.5])
    batch = p0 + np.array([[0.0], [0.7], [-0.9]])
    frames = tr.integrate_calapso(c, 0.4)
    calls = {
        "save_curve": lambda: fileio.save_curve(tmp_path / "c.json", c),
        "integrate_riccati": lambda: db.integrate_riccati(c, -2.0, p0),
        "integrate_parallel_section": lambda: db.integrate_parallel_section(c, -2.0, p0),
        "batch of 3 sections": lambda: db.integrate_parallel_section(c, -2.0, batch),
        "integrate_calapso": lambda: tr.integrate_calapso(c, 0.4),
        "metric_drift": frames.metric_drift,
        "christoffel_dual": lambda: tr.christoffel_dual(c),
        "simpson_blocks": lambda: db.simpson_blocks(
            c.grid, c.x[0], lambda block: block.sample(c.xprime[block.rows])[0]
        ),
    }
    # The n = 3 Riccati kernel is compiled once per process; compiled inside
    # the traced region it would count, or not, by test order.
    db.integrate_riccati(c, -2.0, p0)
    excess = {name: _excess_bytes(call) for name, call in calls.items()}
    assert max(excess.values()) < _WORKING_SET_BOUND, excess


# Growth of the excess from 1001 to 2001 nodes that still counts as flat.
_GROWTH_BOUND = 8e3


def test_riccati_and_dual_excess_does_not_grow_with_the_grid(monkeypatch):
    """The curve checks and the Riccati scale hold no temporary of the grid's size."""
    monkeypatch.setattr(db, "_BLOCK_STEPS", _SMALL_BLOCK)
    monkeypatch.setattr(curves, "_CHECK_ROWS", _SMALL_BLOCK)
    p0 = np.array([2.0, 0.0, 0.5])
    excess = {}
    for num in (1001, 2001):
        c = make_helix(1.0, 0.2, Grid(0.0, 20.0, num))
        calls = {
            "integrate_riccati": lambda: db.integrate_riccati(c, -2.0, p0),
            "christoffel_dual": lambda: tr.christoffel_dual(c),
        }
        for name, call in calls.items():
            call()  # warm-up: one-time allocations are not the working set
            excess[name, num] = _excess_bytes(call)
    for name in ("integrate_riccati", "christoffel_dual"):
        assert excess[name, 2001] <= excess[name, 1001] + _GROWTH_BOUND, excess
