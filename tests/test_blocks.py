"""Block-by-block integration tests.

Core claims:
    - the integrators, which sample and step one block of
      darboux._BLOCK_STEPS steps at a time, are bit-identical to their
      full-array forms (kept here as references) for grids of one, two
      and three blocks, substeps 1-3 and n = 2, 3, 4
    - a secant collapse or a run off to infinity in a later block is
      reported at the same parameter as by the full-array form
    - the memory a transform (or a file write) needs beyond the arrays
      it returns does not grow with the grid
"""

import tracemalloc

import numpy as np
import pytest

import isothermic.darboux as db
import isothermic.minkowski as mk
import isothermic.transforms as tr
from isothermic import fileio
from isothermic.clifford import sandwich
from isothermic.curves import Grid, PolarizedCurve, make_curve, make_helix
from isothermic.errors import PointAtInfinityError, PolarizationError, SingularEncounterError

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
    h, (x_all, xp_all, m_all) = db.half_step_samples(
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
    frame = mk.canonical_frame(source.n)
    a_all, h = db.connection_samples(db.euclidean_section(source), source.m, t, substeps)
    out = np.empty(((len(a_all) - 1) // 2 + 1, source.n + 2))
    out[0] = y = mk.euclidean_lift(xihat0)
    for k, e in enumerate(_full_step_maps(a_all, h, db._rk4_increments), start=1):
        y = db.lightcone_restore(y + e.dot(y), frame)
        out[k] = y
    samples = out[::substeps]
    node_idx = 2 * substeps * np.arange(source.grid.num)
    return samples, np.einsum("kij,kj->ki", a_all[node_idx], samples)


def _calapso_full(sec, m, t, substeps):
    d = sec.n + 2
    a_all, h = db.connection_samples(sec, m, t, substeps)
    out = np.empty(((len(a_all) - 1) // 2 + 1, d, d))
    out[0] = y = np.eye(d)
    for k, e in enumerate(_full_step_maps(a_all, h, tr._magnus_increments), start=1):
        y = y + y @ e
        out[k] = y
    frames = tr.CalapsoFrameField(
        grid=sec.grid, t=t, T=out[::substeps].copy(), a=a_all[:: 2 * substeps]
    )
    return frames, frames.move(sec)


def _dual_full(curve, substeps):
    h, (xp_all, m_all) = db.half_step_samples(curve.grid, substeps, curve.xprime, curve.m)
    if np.any(np.sign(m_all) != np.sign(m_all[0])):
        raise PolarizationError("polarization changes sign inside the interval")
    rhs_all = db.inverse_tangent(xp_all, m_all)
    out = db.simpson_cumulative(rhs_all, h, np.zeros(curve.n))
    return out[::substeps], rhs_all[:: 2 * substeps]


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


def _assert_bit_identical(c, substeps):
    p0 = c.x[0] + np.linspace(1.5, 0.5, c.n)

    x_ref, xp_ref = _riccati_full(c, -2.0, p0, substeps)
    hat = db.integrate_riccati(c, -2.0, p0, substeps)
    assert np.array_equal(hat.x, x_ref) and np.array_equal(hat.xprime, xp_ref)

    xi_ref, xip_ref = _parallel_full(c, -2.0, p0, substeps)
    sec = db.integrate_parallel_section(c, -2.0, p0, substeps)
    assert np.array_equal(sec.xi, xi_ref) and np.array_equal(sec.xiprime, xip_ref)

    lift = db.euclidean_section(c)
    bare = db.LightConeSection(grid=c.grid, xi=lift.xi)  # derivative by finite differences
    for source, ref_section, t in ((c, lift, 0.4), (bare, bare, -3.0)):
        frames_ref, moved_ref = _calapso_full(ref_section, c.m, t, substeps)
        frames, moved = tr.integrate_calapso(source, t, substeps, m=c.m)
        assert np.array_equal(frames.T, frames_ref.T) and np.array_equal(frames.a, frames_ref.a)
        assert np.array_equal(moved.xi, moved_ref.xi)
        assert np.array_equal(moved.xiprime, moved_ref.xiprime)

    x_ref, xp_ref = _dual_full(c, substeps)
    dual = tr.christoffel_dual(c, substeps=substeps)
    assert np.array_equal(dual.x, x_ref) and np.array_equal(dual.xprime, xp_ref)


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


def test_blocks_between_grid_nodes_are_bit_identical_to_full_arrays(monkeypatch):
    # With more substeps than a block has steps, some blocks hold no node.
    monkeypatch.setattr(db, "_BLOCK_STEPS", 16)
    _assert_bit_identical(_curve(3, 7, 40), 40)


def test_full_size_blocks_are_bit_identical_to_full_arrays():
    _assert_bit_identical(_curve(3, _grid_size(3, 3), 3), 3)


def test_magnus_scaling_is_bit_identical_across_blocks():
    # Large t makes some blocks scale Omega by 2^-s before the exponential;
    # the blocks must be the full-array form's, whatever substeps is.
    grid = Grid(0.0, 0.3, 2001)
    c = make_helix(1.0, 0.3, grid)
    for substeps in (1, 3):
        frames_ref, _ = _calapso_full(db.euclidean_section(c), c.m, 60.0, substeps)
        frames, _ = tr.integrate_calapso(c, 60.0, substeps)
        assert np.array_equal(frames.T, frames_ref.T)


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
# creates, which makes a traced Riccati run at N = 20001 take seconds.  So blocks (and written row blocks) shrink from 1024 to 32 and
# the grids from 20001 and 40001 to 1001 and 2001 nodes.  The full-array
# forms already hold more than the bound at 1001 nodes (0.6-1.1 MB).
_SMALL_BLOCK = 32
_WORKING_SET_BOUND = 0.25e6


def _returned_bytes(value) -> int:
    if isinstance(value, tuple):
        return sum(_returned_bytes(v) for v in value)
    if value is None:
        return 0
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
    c = make_helix(1.0, 0.2, Grid(0.0, 20.0, num))
    p0 = np.array([2.0, 0.0, 0.5])
    calls = {
        "save_curve": lambda: fileio.save_curve(tmp_path / "c.json", c),
        "integrate_riccati": lambda: db.integrate_riccati(c, -2.0, p0),
        "integrate_parallel_section": lambda: db.integrate_parallel_section(c, -2.0, p0),
        "integrate_calapso": lambda: tr.integrate_calapso(c, 0.4),
        "christoffel_dual": lambda: tr.christoffel_dual(c),
    }
    excess = {name: _excess_bytes(call) for name, call in calls.items()}
    assert max(excess.values()) < _WORKING_SET_BOUND, excess
