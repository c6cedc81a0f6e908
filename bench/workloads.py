"""The three benchmark workloads.

A workload turns a seed into input files and curves, and then hands out
passes: fixed lists of operations, each with the certificate its output
must pass.  The harness in ``run.py`` times ``Op.run`` and calls
``Op.certify`` outside the timed region.

Every certificate row names the ``cli.TOLERANCES`` entry it is held to,
so a residual is judged by the same bound the package's own ``verify``
uses for that quantity.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from isothermic import bianchi, cli, darboux, fileio, fixtures, surface, transforms
from isothermic import minkowski as mk
from isothermic.curves import Grid, PolarizedCurve, make_circle, make_helix
from isothermic.errors import GeometryError

# (label, tolerance key, residual)
Row = tuple[str, str, float]

GOLDEN_ANGLE = 2.399963229728653


class CertificateError(Exception):
    """An operation's output failed a structural check (exit code, file)."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    certify: Callable[[object], list[Row]]
    # Set for operations that fail at the parent commit for a documented
    # reason (see README.md).  They still count in fail_ratio.
    known_defect: str | None = None


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process, returning (exit code, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def expect_exit(result: tuple[int, str], code: int = 0) -> str:
    if result[0] != code:
        raise CertificateError(f"exit code {result[0]}, expected {code}: {result[1].strip()[-300:]}")
    return result[1]


def csv_rows(path: Path, prefix: str) -> list[Row]:
    """Certificate rows from a report CSV written by ``verify`` or ``export``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [
            (f"{prefix}{r['check']}@{r['edge_or_curve']}", r["check"], float(r["max_residual"]))
            for r in csv.DictReader(fh)
        ]
    if not rows:
        raise CertificateError(f"{path.name} has no rows")
    return rows


def table_rows(text: str, pattern: str, prefix: str) -> list[Row]:
    """Rows 'name: residual (tol ...)' printed by ``surface moutard`` and ``cmc``."""
    rows = [(prefix + m[0], m[0], float(m[1])) for m in re.findall(pattern, text, re.M)]
    if not rows:
        raise CertificateError("no certificate rows in the command output")
    return rows


def darboux_rows(curve: PolarizedCurve, hat: PolarizedCurve, mu: float, prefix: str) -> list[Row]:
    fit = darboux.is_darboux_pair(curve, hat)
    return [
        (prefix + "cross-ratio", "quad-cross-ratio", max(fit.spread, abs(fit.mu - mu) / abs(mu))),
        (prefix + "reality", "darboux-ribaucour-contact", fit.reality),
    ]


def rotation(n: int, angle: float) -> np.ndarray:
    """Rotation by ``angle`` in the first coordinate plane of R^n."""
    rot = np.eye(n)
    c, s = np.cos(angle), np.sin(angle)
    rot[:2, :2] = [[c, -s], [s, c]]
    return rot


def rotated(curve: PolarizedCurve, rot: np.ndarray) -> PolarizedCurve:
    return PolarizedCurve(
        n=curve.n, grid=curve.grid, x=curve.x @ rot.T, xprime=curve.xprime @ rot.T, m=curve.m.copy()
    )


def arg(v: float) -> str:
    return repr(float(v))


def point_arg(p: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in p)


class Workload:
    """Seeded inputs plus passes of operations; one instance per set-up."""

    name = ""
    # Passes always run, whatever --seconds says; the headroom metric is
    # taken over these so it does not depend on machine speed.
    min_passes = 1

    def __init__(self, seed: int, work: Path, tiny: bool = False, corrupt: bool = False):
        self.seed = seed
        self.work = work
        self.tiny = tiny
        self.corrupt = corrupt

    def input_curve(self, curve: PolarizedCurve) -> PolarizedCurve:
        """The curve the program sees; perturbed when --corrupt is given."""
        if self.corrupt:
            return fixtures.perturb_curve(curve, scale=1e-3, seed=self.seed)
        return curve

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> Op:
        raise NotImplementedError

    def pass_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def input_digest(self) -> str:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


# ------------------------------------------------------------------ curve-long


class CurveLong(Workload):
    """Five CLI transforms of one long seeded space curve, JSON in and out.

    Pass p moves the seeded curve by a rotation of p golden angles about
    the z axis: the geometry (and so every residual, up to rounding) is
    the same, but the bytes differ, so no input is read twice.
    """

    name = "curve-long"
    min_passes = 2
    tau = 0.4

    def __init__(self, seed, work, tiny=False, corrupt=False):
        super().__init__(seed, work, tiny, corrupt)
        self.num = 2001 if tiny else 20001
        self.length = (self.num - 1) * 1e-3
        rng = np.random.default_rng([seed, 1])
        self.radius = rng.uniform(0.9, 1.1)
        self.pitch = rng.uniform(0.1, 0.2)
        self.amp = rng.uniform(0.025, 0.05, size=2)
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
        self.mu = -rng.uniform(1.8, 2.2)
        self.offset = rng.uniform(0.9, 1.1)
        self.files = {k: work / f"{k}.json" for k in ("curve", "riccati", "parallel", "calapso+", "calapso-", "dual")}
        self.curve: PolarizedCurve | None = None
        self.init: np.ndarray | None = None

    def _base(self) -> PolarizedCurve:
        grid = Grid(0.0, self.length, self.num)
        s = grid.nodes()
        r, p, (a, b), ph = self.radius, self.pitch, self.amp, self.phase
        x = np.stack([
            r * np.cos(s) + a * np.cos(2 * s + ph[0]),
            r * np.sin(s) + a * np.sin(3 * s + ph[1]),
            p * s + b * np.cos(2 * s + ph[2]),
        ], axis=1)
        xp = np.stack([
            -r * np.sin(s) - 2 * a * np.sin(2 * s + ph[0]),
            r * np.cos(s) + 3 * a * np.cos(3 * s + ph[1]),
            p - 2 * b * np.sin(2 * s + ph[2]),
        ], axis=1)
        return PolarizedCurve(n=3, grid=grid, x=x, xprime=xp, m=np.ones(self.num))

    def _prepare(self, index: int) -> None:
        rot = rotation(3, index * GOLDEN_ANGLE)
        base = self._base()
        init = base.x[0].copy()
        init[:2] *= 1.0 + self.offset
        self.curve = self.input_curve(rotated(base, rot))
        self.init = rot @ init
        fileio.save_curve(self.files["curve"], self.curve)

    def setup(self) -> None:
        self._prepare(0)

    def input_digest(self) -> str:
        return f"{self.curve.x.sum():.15e}/{self.mu!r}"

    def describe(self) -> dict:
        return {
            "curve": "perturbed helix in R^3 with analytic x', m = 1",
            "grid": {"s0": 0.0, "s1": self.length, "N": self.num, "h": 1e-3},
            "mu": self.mu, "tau": [self.tau, -self.tau], "init": "radially outward by the seeded offset",
            "commands": ["darboux --route riccati", "darboux --route parallel --report",
                         f"calapso --t {self.tau}", f"calapso --t {-self.tau}", "dual"],
        }

    def _darboux(self, route: str) -> Op:
        f = self.files
        argv = ["darboux", "--in", str(f["curve"]), "--mu", arg(self.mu), "--init", point_arg(self.init),
                "--route", route, "--out", str(f[route])]
        if route == "parallel":
            argv.append("--report")
        curve, mu = self.curve, self.mu

        def certify(result):
            expect_exit(result)
            hat = fileio.load_curve(f[route])
            rows = darboux_rows(curve, hat, mu, "darboux-")
            if route == "parallel":
                other = fileio.load_curve(f["riccati"])
                gap = float(np.max(np.linalg.norm(other.x - hat.x, axis=1)))
                rows.append(("route-agreement", "riccati-parallel-agreement", gap))
            return rows

        return Op(f"darboux-{route}", lambda: cli_call(argv), certify)

    def _calapso(self, t: float) -> Op:
        f = self.files
        key = "calapso+" if t > 0 else "calapso-"
        argv = ["calapso", "--in", str(f["curve"]), "--t", arg(t), "--out", str(f[key])]
        curve, mu = self.curve, self.mu

        def certify(result):
            expect_exit(result)
            moved = fileio.load_curve(f[key])
            hat = fileio.load_curve(f["riccati"])
            _, moved_hat = transforms.calapso_darboux_permute(curve, hat, mu, t)
            fit = darboux.is_darboux_pair(moved, moved_hat)
            return [
                ("permuted-pair-mu", "calapso-permute-parameter", abs(fit.mu - (mu - t))),
                ("permuted-pair-spread", "calapso-permute-parameter", fit.spread),
                ("permuted-pair-reality", "calapso-permute-parameter", fit.reality),
            ]

        known = None
        if t > 0 and not self.tiny:
            known = ("Calapso at t = +0.4 over s in [0, 20] drifts: the permuted pair fails "
                     "is_darboux_pair, or a point reaches infinity")
        return Op(key, lambda: cli_call(argv), certify, known)

    def _dual(self) -> Op:
        f = self.files
        argv = ["dual", "--in", str(f["curve"]), "--out", str(f["dual"])]
        curve = self.curve

        def certify(result):
            expect_exit(result)
            dual = fileio.load_curve(f["dual"])
            return [("dual-defect", "dual-darboux-permute", transforms.dual_defect(curve, dual))]

        return Op("dual", lambda: cli_call(argv), certify)

    def warmup(self) -> Op:
        return self._dual()

    def pass_ops(self, index: int) -> list[Op]:
        self._prepare(index)
        return [self._darboux("riccati"), self._darboux("parallel"),
                self._calapso(self.tau), self._calapso(-self.tau), self._dual()]


# ------------------------------------------------------------------ quads-many


def fourier_curve(coef: np.ndarray, grid: Grid) -> PolarizedCurve:
    """Unit circle in R^4 plus seeded harmonics 2 and 3 in every coordinate."""
    s = grid.nodes()
    x = np.zeros((grid.num, 4))
    xp = np.zeros_like(x)
    x[:, 0], x[:, 1] = np.cos(s), np.sin(s)
    xp[:, 0], xp[:, 1] = -np.sin(s), np.cos(s)
    for d in range(4):
        for j, k in enumerate((2, 3)):
            a, b = coef[d, j]
            x[:, d] += a * np.cos(k * s) + b * np.sin(k * s)
            xp[:, d] += k * (b * np.cos(k * s) - a * np.sin(k * s))
    return PolarizedCurve(n=4, grid=grid, x=x, xprime=xp, m=np.ones(grid.num))


def secant_margin(xis: list[np.ndarray]) -> float:
    """Smallest normalized |<a, b>| over pairs of sections; 0 at a pole."""
    worst = np.inf
    for i in range(len(xis)):
        for j in range(i + 1, len(xis)):
            gap = np.abs(mk.inner(xis[i], xis[j])) / (
                np.linalg.norm(xis[i], axis=1) * np.linalg.norm(xis[j], axis=1)
            )
            worst = min(worst, float(np.min(gap)))
    return worst


class QuadsMany(Workload):
    """Bianchi quads and cubes on three shared base curves, library API only.

    Each operation draws parameters and initial points.  A draw whose
    quad (or cube) has two vertices within a secant margin of 0.03 on a
    coarse N = 51 copy of the base curve is redrawn, because the quad
    construction has genuine poles there; the package's own bigauge check
    rejects draws the same way.
    """

    name = "quads-many"
    ops_per_pass = 15
    cube_every = 5
    min_passes = 7  # 105 operations
    margin = 0.03

    def __init__(self, seed, work, tiny=False, corrupt=False):
        super().__init__(seed, work, tiny, corrupt)
        self.num = 1001
        if tiny:
            self.min_passes = 1
        rng = np.random.default_rng([seed, 2])
        self.radius = rng.uniform(0.9, 1.1)
        self.helix = (rng.uniform(0.9, 1.1), rng.uniform(0.15, 0.25))
        self.coef = 0.1 * rng.standard_normal((4, 2, 2))
        self.draws = np.random.default_rng([seed, 3])
        self.bases: list[PolarizedCurve] = []
        self.coarse: list[PolarizedCurve] = []
        self.lifts: list[np.ndarray] = []

    def _curves(self, num: int) -> list[PolarizedCurve]:
        grid = Grid(0.0, 1.0, num)
        return [
            make_circle(self.radius, grid),
            make_helix(self.helix[0], self.helix[1], grid),
            fourier_curve(self.coef, grid),
        ]

    def setup(self) -> None:
        self.bases = [self.input_curve(c) for c in self._curves(self.num)]
        self.coarse = self._curves(51)
        self.lifts = [darboux.euclidean_section(c).xi for c in self.bases]

    def input_digest(self) -> str:
        return f"{sum(float(c.x.sum()) for c in self.bases):.15e}/{self.draws.bit_generator.state['state']['state']}"

    def describe(self) -> dict:
        return {
            "bases": ["circle n=2", "helix n=3", "Fourier curve n=4"],
            "grid": {"s0": 0.0, "s1": 1.0, "N": self.num, "h": 1.0 / (self.num - 1)},
            "ops_per_pass": self.ops_per_pass, "cube_every": self.cube_every,
            "draws": "|mu| in [0.5, 3], random sign, pairwise gap >= 0.3; initial points at distance "
                     "[1, 2] from x(0); bigauge t in [0.05, 0.9] min|mu|",
            "pole_margin": self.margin,
        }

    def _draw(self, base: int, count: int) -> tuple[list[float], list[np.ndarray], float]:
        rng, curve = self.draws, self.bases[base]
        for _ in range(500):
            mus = [float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)) for _ in range(count)]
            if min(abs(a - b) for i, a in enumerate(mus) for b in mus[i + 1:]) < 0.3:
                continue
            pts = []
            for _ in range(count):
                u = rng.standard_normal(curve.n)
                pts.append(curve.x[0] + rng.uniform(1.0, 2.0) * u / np.linalg.norm(u))
            t = float(rng.uniform(0.05, 0.9) * min(abs(m) for m in mus))
            if self._clear_of_poles(base, mus, pts):
                return mus, pts, t
        raise RuntimeError("no pole-free draw in 500 tries")

    def _clear_of_poles(self, base: int, mus, pts) -> bool:
        coarse = self.coarse[base]
        try:
            secs = [darboux.integrate_parallel_section(coarse, mu, mk.euclidean_lift(p)) for mu, p in zip(mus, pts)]
            xis = [darboux.euclidean_section(coarse).xi] + [s.xi for s in secs]
            if len(mus) == 2:
                xis.append(bianchi.bianchi_quad(coarse, secs[0], secs[1], mus[0], mus[1]).xi)
        except (ArithmeticError, ValueError, GeometryError):
            return False
        return secant_margin(xis) >= self.margin

    def _make_op(self, base: int, mus: list[float], pts: list[np.ndarray], t: float) -> Op:
        curve, xi = self.bases[base], self.lifts[base]
        cube = len(mus) == 3

        def run():
            secs = [darboux.integrate_parallel_section(curve, mu, mk.euclidean_lift(p)) for mu, p in zip(mus, pts)]
            if cube:
                return secs, bianchi.bianchi_cube(curve, *secs, *mus)
            return secs, bianchi.bianchi_quad(curve, secs[0], secs[1], mus[0], mus[1])

        def certify(value):
            secs, result = value
            if cube:
                return [("cube-routes", "cube-routes", float(np.max(result.route_gaps)))]
            report = bianchi.check_quad(curve, secs[0], secs[1], result, mus[0], mus[1])
            gap = bianchi.check_bigauge(xi, secs[0].xi, secs[1].xi, result.xi, mus[0], mus[1], t)
            return [
                ("quad-parallel-defining", "quad-parallel-defining", report.parallel_residual_defining),
                ("quad-parallel-other", "quad-parallel-other", report.parallel_residual_other),
                ("quad-cross-ratio", "quad-cross-ratio",
                 max(report.cross_ratio_spread, report.cross_ratio_swapped_spread)),
                ("bigauge-identity", "bigauge-identity", gap),
            ]

        kind = "cube" if cube else "quad"
        return Op(f"{kind}-n{curve.n}", run, certify)

    def _op(self, base: int, cube: bool) -> Op:
        return self._make_op(base, *self._draw(base, 3 if cube else 2))

    def warmup(self) -> Op:
        # A fixed quad on the circle, so set-up time does not depend on
        # how many draws the seed needs.
        curve = self.bases[0]
        return self._make_op(0, [-2.0, 1.0], [2.0 * curve.x[0], np.array([0.3, -0.4])], 0.5)

    def pass_ops(self, index: int) -> list[Op]:
        return [
            self._op(j % 3, j % self.cube_every == self.cube_every - 1)
            for j in range(self.ops_per_pass)
        ]


# -------------------------------------------------------------- surface-verify


class SurfaceVerify(Workload):
    """``verify --suite all`` plus a surface pipeline, all through the CLI.

    Pass p rotates the seeded seed curve and the layer points by p golden
    angles, so every file the pipeline reads is new.
    """

    name = "surface-verify"
    min_passes = 3

    def __init__(self, seed, work, tiny=False, corrupt=False):
        super().__init__(seed, work, tiny, corrupt)
        self.num = 201 if tiny else 1001
        rng = np.random.default_rng([seed, 5])
        self.radius = rng.uniform(0.9, 1.1)
        self.amp = rng.uniform(0.01, 0.03, size=2)
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
        self.files = {k: work / f"sv-{k}" for k in (
            "seed.json", "surface.json", "moved.json", "dual.json", "mesh.obj", "export.csv",
            "verify.csv", "verify-surface.csv", "cmc-in.json", "cmc-out.json")}
        self.layers: list[tuple[float, np.ndarray]] = []
        self.curve: PolarizedCurve | None = None

    def _prepare(self, index: int) -> None:
        grid = Grid(0.0, 1.0, self.num)
        s = grid.nodes()
        r, (a, b), ph = self.radius, self.amp, self.phase
        x = np.stack([r * np.cos(s) + a * np.cos(2 * s + ph[0]), r * np.sin(s) + b * np.sin(3 * s + ph[1])], axis=1)
        xp = np.stack([-r * np.sin(s) - 2 * a * np.sin(2 * s + ph[0]), r * np.cos(s) + 3 * b * np.cos(3 * s + ph[1])], axis=1)
        rot = rotation(2, index * GOLDEN_ANGLE)
        base = PolarizedCurve(n=2, grid=grid, x=x, xprime=xp, m=np.ones(self.num))
        self.curve = self.input_curve(rotated(base, rot))
        self.layers = [(-2.0, rot @ (2.0 * x[0])), (1.0, rot @ np.array([0.3, -0.4]))]
        fileio.save_curve(self.files["seed.json"], self.curve)

    def setup(self) -> None:
        self._prepare(0)

    def input_digest(self) -> str:
        return f"{self.curve.x.sum():.15e}"

    def describe(self) -> dict:
        return {
            "seed_curve": "perturbed circle in R^2, m = 1",
            "grid": {"s0": 0.0, "s1": 1.0, "N": self.num, "h": 1.0 / (self.num - 1)},
            "layers": [[mu, "point"] for mu, _ in self.layers],
            "verify_seed": self.seed,
        }

    def _verify_all(self) -> Op:
        f = self.files["verify.csv"]
        argv = ["verify", "--suite", "all", "--seed", str(self.seed), "--csv", str(f)]

        def certify(result):
            expect_exit(result)
            return csv_rows(f, "verify:")

        return Op("verify-all", lambda: cli_call(argv), certify)

    def warmup(self) -> Op:
        return self._build()

    def _build(self) -> Op:
        f = self.files
        layers = ";".join(f"{arg(mu)}:{point_arg(p)}" for mu, p in self.layers)
        argv = ["surface", "build", "--in", str(f["seed.json"]), "--layers", layers, "--out", str(f["surface.json"])]

        def certify(result):
            expect_exit(result)
            return surface_rows(fileio.load_surface(f["surface.json"]), "build:")

        return Op("surface-build", lambda: cli_call(argv), certify)

    def pass_ops(self, index: int) -> list[Op]:
        self._prepare(index)
        f = {k: str(v) for k, v in self.files.items()}
        t_move = 0.618 * min(abs(mu) for mu, _ in self.layers)
        named = r"^([a-z-]+): (\S+) \(tol"

        def moved(result):
            expect_exit(result)
            moved_surface = fileio.load_surface(f["moved.json"])
            shifted = [mu - t_move for mu, _ in self.layers]
            rows = surface_rows(moved_surface, "calapso:")
            rows.append(("calapso:mu-shift", "surface-calapso-parameter",
                         max(abs(a - b) for a, b in zip(moved_surface.mu, shifted))))
            return rows

        def dual(result):
            text = expect_exit(result)
            rows = [(f"dual:edge{m[0]}", "dual-edge-smooth", float(m[1]))
                    for m in re.findall(r"^edge (\d+): edge/smooth consistency (\S+)$", text, re.M)]
            if len(rows) != len(self.layers):
                raise CertificateError("dual printed no row for some edge")
            fileio.load_surface(f["dual.json"])
            return rows

        def export(result):
            expect_exit(result)
            vertices = sum(1 for line in open(f["mesh.obj"], encoding="utf-8") if line.startswith("v "))
            if vertices != self.num * (len(self.layers) + 1):
                raise CertificateError(f"mesh has {vertices} vertices")
            return csv_rows(Path(f["export.csv"]), "export:")

        def verify_surface(result):
            expect_exit(result)
            return csv_rows(Path(f["verify-surface.csv"]), "verify-surface:")

        def cmc_table(prefix):
            return lambda result: table_rows(expect_exit(result), named, prefix)

        def cli_op(name, argv, certify, known=None):
            return Op(name, lambda: cli_call(argv), certify, known)

        return [
            self._verify_all(),
            self._build(),
            cli_op("surface-check", ["surface", "check", "--in", f["surface.json"]], surface_check_rows("check:")),
            cli_op("surface-moutard", ["surface", "moutard", "--in", f["surface.json"]],
                   cmc_table("moutard:")),
            cli_op("calapso", ["calapso", "--in", f["surface.json"], "--t", arg(t_move), "--out", f["moved.json"]],
                   moved),
            cli_op("dual", ["dual", "--in", f["surface.json"], "--out", f["dual.json"]], dual),
            cli_op("export", ["export", "--in", f["surface.json"], "--obj", f["mesh.obj"], "--csv", f["export.csv"]],
                   export),
            cli_op("verify-surface", ["verify", "--surface", f["surface.json"], "--csv", f["verify-surface.csv"]],
                   verify_surface),
            cli_op("cmc-inward", ["cmc", "--orientation", "inward", "--out", f["cmc-in.json"]], cmc_table("cmc-in:")),
            cli_op("cmc-outward", ["cmc", "--orientation", "outward", "--out", f["cmc-out.json"]],
                   cmc_table("cmc-out:")),
            cli_op("surface-check-outward", ["surface", "check", "--in", f["cmc-out.json"]],
                   surface_check_rows("check-outward:"),
                   "the outward cmc surface has m(x', x') < 0, so EdgeReport.nu_residual is None and "
                   "surface check raises TypeError"),
        ]


def surface_check_rows(prefix: str) -> Callable[[object], list[Row]]:
    """Certificate rows from the per-edge table of ``surface check``."""
    edge = r"^edge (\d+): mu=\S+ declared=\S+ spread=(\S+) defect=(\S+) nu=(\S+) (?:pass|FAIL)$"

    def certify(result) -> list[Row]:
        rows = [(f"{prefix}edge{m[0]}", "surface-isothermic", max(float(v) for v in m[1:]))
                for m in re.findall(edge, expect_exit(result), re.M)]
        if not rows:
            raise CertificateError("surface check printed no edge rows")
        return rows

    return certify


def surface_rows(layers, prefix: str) -> list[Row]:
    report = surface.check_isothermic(layers)
    return [
        (f"{prefix}edge{k}", "surface-isothermic",
         max(e.spread, e.reality, e.mu_defect, 0.0 if e.nu_residual is None else e.nu_residual))
        for k, e in enumerate(report.edges)
    ]


WORKLOADS = {cls.name: cls for cls in (CurveLong, QuadsMany, SurfaceVerify)}
