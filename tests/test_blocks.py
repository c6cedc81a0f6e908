"""Block-by-block integration tests.

Core claims:
    - the integrators, which sample and step one block of
      darboux._BLOCK_STEPS steps at a time, are bit-identical to their
      full-array forms (kept here and in whole_grid.py as references)
      for grids of one, two and three blocks, substeps 1-3 and
      n = 2, 3, 4, and so are the Simpson sums of the curve dual and of
      both surface duals; the Calapso frames, which form each block's
      products by a prefix scan, match the sequential product of the
      same step maps to rounding
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
from isothermic.errors import PointAtInfinityError, PolarizationError, SingularEncounterError
from isothermic.surface import SemiDiscreteSurface
from whole_grid import connection_samples, half_step_samples

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


def _parallel_full(source, t, xihat0, substeps):
    a_all, h = connection_samples(db.euclidean_section(source), source.m, t, substeps)
    out = np.empty(((len(a_all) - 1) // 2 + 1, source.n + 2))
    out[0] = y = mk.euclidean_lift(xihat0)
    for k, e in enumerate(_full_step_maps(a_all, h, db._rk4_increments), start=1):
        y = db.lightcone_restore(y + e.dot(y))
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
    frames = tr.CalapsoFrameField(grid=sec.grid, t=t, T=out[::substeps].copy(), source=sec, m=m)
    return frames, frames.move(sec)


def _dual_full(curve, substeps):
    h, (xp_all, m_all) = half_step_samples(curve.grid, substeps, curve.xprime, curve.m)
    if np.any(np.sign(m_all) != np.sign(m_all[0])):
        raise PolarizationError("polarization changes sign inside the interval")
    rhs_all = db.inverse_tangent(xp_all, m_all)
    out = db.simpson_cumulative(rhs_all, h, np.zeros(curve.n))
    return out[::substeps], rhs_all[:: 2 * substeps]


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


def _curve(n, num, substeps):
    """A curve in R^n with a varying polarization, on [0, 3]."""
    grid = Grid(0.0, 3.0, num)
    s = grid.nodes()
    columns = [  # (coordinate, its derivative)
        (np.cos(s) * (1.0 + 0.1 * s), 0.1 * np.cos(s) - np.sin(s) * (1.0 + 0.1 * s)),
        (np.sin(s), np.cos(s)),
        (0.3 * s, np.full(num, 0.3)),
        (0.2 * np.sin(2 * s), 0.4 * np.cos(2 * s)),
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

    x_ref, xp_ref = _dual_full(c, substeps)
    dual = tr.christoffel_dual(c, substeps=substeps)
    assert np.array_equal(dual.x, x_ref) and np.array_equal(dual.xprime, xp_ref)


def _assert_calapso_matches_loop(c, substeps):
    """Frames and moved sections to rounding."""
    lift = db.euclidean_section(c)
    bare = db.LightConeSection(grid=c.grid, xi=lift.xi)  # derivative by finite differences
    for source, ref_section, t in ((c, lift, 0.4), (bare, bare, -3.0)):
        frames_ref, moved_ref = _calapso_full(ref_section, c.m, t, substeps)
        frames = tr.integrate_calapso(source, t, substeps, m=c.m)
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
    if isinstance(value, tuple):
        return sum(_returned_bytes(v) for v in value)
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return value.nbytes
    return sum(v.nbytes for v in vars(value).values() if isinstance(v, np.ndarray))


def _excess_bytes(call) -> int:
    """Traced peak of a call minus the array bytes it returns."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - _returned_bytes(result)


@pytest.mark.parametrize("num", [1001, 2001])
def test_working_set_does_not_grow_with_the_grid(num, tmp_path, monkeypatch):
    monkeypatch.setattr(db, "_BLOCK_STEPS", _SMALL_BLOCK)
    monkeypatch.setattr(fileio, "_WRITE_ROWS", _SMALL_BLOCK)
    monkeypatch.setattr(curves, "_CHECK_ROWS", _SMALL_BLOCK)
    c = make_helix(1.0, 0.2, Grid(0.0, 20.0, num))
    p0 = np.array([2.0, 0.0, 0.5])
    calls = {
        "save_curve": lambda: fileio.save_curve(tmp_path / "c.json", c),
        "integrate_riccati": lambda: db.integrate_riccati(c, -2.0, p0),
        "integrate_parallel_section": lambda: db.integrate_parallel_section(c, -2.0, p0),
        "integrate_calapso": lambda: tr.integrate_calapso(c, 0.4),
        "christoffel_dual": lambda: tr.christoffel_dual(c),
        "simpson_blocks": lambda: db.simpson_blocks(
            c.grid, 1, c.x[0], lambda block: block.sample(c.xprime[block.rows])[0]
        ),
    }
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
