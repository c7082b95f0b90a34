"""Fixtures, iterations, correctness gates and layer probes of the benchmark.

Every call into genfilter goes through ``run.api`` (see `tracing.Api`), so
the traced half of a ``--trace 1`` run records a span for each of them.

Fixture rules.  Each fixture is a function of the workload seed, and the
default seeds reproduce the fixtures ROADMAP.md quotes.

* Population 100 (SIR beta=0.04, gamma=1, psi=1, s0=97, i0=3, T=1): draw
  trajectories from one ``default_rng(seed)`` stream until one has 3 to 8
  samples, the rule of acceptance criterion 7, and its visible genealogy
  has exactly 8 events.  The event count sets how many intervals the
  filter and the oracle step through, so pinning it keeps the work of an
  iteration from swinging with the seed.  Seed 101 gives 26 jumps and 8
  events on its first draw.
* Population 1000 (SIR beta=0.0025, gamma=1, psi=0.3, s0=990, i0=10, T=4):
  draw from one ``default_rng(seed)`` stream until a trajectory has at least
  151 samples, then keep only the jumps before its 152nd sample (the
  horizon moves to that sample's time).  Every fixture therefore has
  exactly 151 samples and about 250 events, so the size of the work does
  not swing with the seed.  Seed 5 has exactly 151 samples on its first
  draw, so it keeps T=4: 1298 jumps, 254 visible nodes, 250 events.
* sir100-varying: the population-100 fixture of seed 101 under the
  time-varying beta, whatever the workload seed; the seed drives the
  filter streams only.  The time-varying filter's cost depends on the
  genealogy far more than the constant-rate one does: at equal size (8
  events) it ranged over 1.8x across six seeds, so a genealogy drawn from
  each seed would make runs on different seeds incomparable.
* cli-chain: the first seed ``s >= seed`` whose single draw
  ``simulate(spec, 1, default_rng(s))``, the draw ``genfilter simulate
  --seed s`` makes, meets the population-100 rule.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse
from scipy.special import logsumexp, stdtrit

from genfilter.filtering import Ensemble, FilterConfig
from genfilter.models import PiecewiseConstant, SIRParams
from genfilter.population import JumpSequence, forward_generator

from tracing import Api, Tracer

TOL = 1e-8            # oracle and integrator tolerance
REL_TOL = 1e-9        # closed-form routes must agree this closely (criterion 1)
Z_SIGMA = 4.0         # filter-vs-oracle gate, as a two-sided normal level
SETUP_REPEATS = 5
CALIBRATION_S = 0.05  # end-to-end times are seconds on a machine whose calibration takes this

SIR100 = SIRParams(0.04, 1.0, 1.0, 97, 3)
SIR100_VARYING = SIRParams(PiecewiseConstant((0.5,), (0.04, 0.02)), 1.0, 1.0, 97, 3)
SIR1000 = SIRParams(0.0025, 1.0, 0.3, 990, 10)
SIR1000_SAMPLES = 151
SIR100_EVENTS = 8
VARYING_FIXTURE_SEED = 101

E2E_METRICS = {"setup_s": "s", "iteration_s": "s", "filter_s": "s", "peak_rss_mb": "MiB"}

LAYER_METRICS = {
    "models.spec_s": "s", "models.truncation_s": "s",
    "population.simulate_s": "s", "population.jumps": "count",
    "population.history_log_density_s": "s", "population.lattice_s": "s",
    "population.forward_generator_s": "s", "population.generator_nnz": "count",
    "population.integrate_linear_s": "s", "population.rhs_evals": "count",
    "genealogy.build_s": "s", "genealogy.prune_s": "s",
    "genealogy.visible_nodes": "count", "genealogy.schedule_events": "count",
    "genealogy.lineage_function_s": "s", "genealogy.json_roundtrip_s": "s",
    "genealogy.newick_roundtrip_s": "s",
    "exact.loglik_events_s": "s", "exact.loglik_lineages_s": "s", "exact.rel_diff": "ratio",
    "filtering.smc_loglik_s": "s", "filtering.particle_event_ns": "ns",
    "filtering.propagate_s": "s", "filtering.event_update_s": "s",
    "filtering.bench_resample_s": "s", "filtering.resample_count": "count",
    "filtering.ess_min_frac": "ratio", "filtering.oracle_loglik_s": "s",
    "filtering.boundary_flux_s": "s", "filtering.oracle_states": "count",
    "filtering.filter_oracle_z": "sd",
    "cli.simulate_s": "s", "cli.prune_s": "s", "cli.exact_s": "s",
    "cli.filter_s": "s", "cli.oracle_s": "s", "cli.profile_s": "s",
    "tracing.overhead_s": "s",
}


@dataclass(frozen=True)
class Sizes:
    """How much work one iteration and one probe pass do."""

    particles: int                 # smc_loglik particles per library iteration
    cli_particles: int = 2000      # genfilter filter --n_particles
    cli_reps: int = 4              # genfilter filter n_reps
    profile_particles: int = 1000
    profile_reps: int = 2
    profile_values: tuple = (0.03, 0.04, 0.05)
    companion_reps: int = 8        # sir1000-long: filter replicates on its grid companion
    companion_particles: int = 2000
    min_iterations: int = 2        # per measured half, so the z gate has a standard error


SIZES = {
    "sir100-crosscheck": Sizes(20000),
    "sir1000-long": Sizes(2000),
    # 1000 rather than 2000 particles: about twice the iterations in a run,
    # so its medians and its z gate rest on more filter calls.
    "sir100-varying": Sizes(1000),
    "cli-chain": Sizes(2000),
}
TINY = Sizes(300, cli_particles=200, cli_reps=2, profile_particles=200,
             profile_reps=2, profile_values=(0.04,), companion_reps=4,
             companion_particles=200)


class CheckFailed(RuntimeError):
    """An output of the program failed its correctness check."""


class Aborted(Exception):
    """Raised out of `Run.op` after a failure has been counted."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def z_gate(estimates, reference: float) -> tuple[float, float, bool]:
    """z of the mean estimate against the reference, its bound, and whether it holds.

    The standard error is estimated from the estimates themselves, so the
    bound is the Student-t quantile (n - 1 degrees of freedom) with the tail
    mass of a two-sided ``Z_SIGMA`` normal test: 5.36 at n = 17, 17.4 at
    n = 5.  The gate runs once per run, dozens of times in an evaluation,
    so its level is set at 4 sigma (a correct filter fails it once in about
    16000 runs); at 3 sigma it would fail once in about 370.
    """
    values = np.asarray(estimates, dtype=float)
    n = len(values)
    if n < 2 or not np.isfinite(values).all() or reference is None or not math.isfinite(reference):
        return math.nan, math.nan, False
    bound = float(stdtrit(n - 1, 0.5 * (1.0 + math.erf(Z_SIGMA / math.sqrt(2.0)))))
    se = float(values.std(ddof=1)) / math.sqrt(n)
    diff = float(values.mean()) - reference
    z = diff / se if se > 0 else (0.0 if diff == 0 else math.copysign(math.inf, diff))
    return z, bound, abs(z) <= bound


def rel_diff(a: float, b: float) -> float:
    """|a - b| relative to |b|: how closely the two closed-form routes agree."""
    return abs(a - b) / max(abs(b), 1e-300)


def replay_rng(state: dict) -> np.random.Generator:
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


def sample_jumps(spec, traj) -> list[int]:
    return [i for i, j in enumerate(traj.jumps) if spec.events[j.event].is_sample]


def keep_samples(spec, traj, k: int):
    """The trajectory before its (k+1)-th sample, which becomes the horizon."""
    idx = sample_jumps(spec, traj)
    if len(idx) <= k:
        return traj
    stop = idx[k]
    return JumpSequence(traj.x0, traj.jumps[:stop], traj.jumps[stop].time)


@dataclass
class Fixture:
    params: SIRParams
    spec: object            # the model the likelihoods are computed under
    draw_spec: object       # the model the trajectory was drawn from
    horizon: float
    draw_state: dict        # bit-generator state just before the accepted draw
    samples: int | None     # keep this many samples (population 1000), or all
    traj: JumpSequence
    visible: object
    truncation: list | None

    def replay(self, api, spec=None):
        """simulate on the accepted draw again, cut as the fixture rule says."""
        traj = api.population.simulate(spec or self.draw_spec, self.horizon,
                                       replay_rng(self.draw_state))
        return keep_samples(self.draw_spec, traj, self.samples) if self.samples else traj


def _draw(api, spec, horizon, seed, accept):
    rng = np.random.default_rng(seed)
    while True:
        state = rng.bit_generator.state
        traj = api.population.simulate(spec, horizon, rng)
        if accept(api, spec, traj):
            return state, traj


def sir100_accept(api, spec, traj) -> bool:
    if not 3 <= len(sample_jumps(spec, traj)) <= 8:
        return False
    visible = api.genealogy.prune(api.genealogy.build_genealogy(spec, traj)[0])
    return len(api.filtering.event_schedule(visible)) == SIR100_EVENTS


def _fixture(api, params, draw_params, horizon, state, traj, samples, grid):
    spec = api.models.sir_spec(params)
    draw_spec = spec if draw_params is params else api.models.sir_spec(draw_params)
    if samples:
        traj = keep_samples(draw_spec, traj, samples)
    g, _ = api.genealogy.build_genealogy(draw_spec, traj)
    return Fixture(params, spec, draw_spec, horizon, state, samples, traj,
                   api.genealogy.prune(g),
                   api.models.sir_truncation(params) if grid else None)


def sir100_fixture(api, seed, params=SIR100):
    spec = api.models.sir_spec(SIR100)
    state, traj = _draw(api, spec, 1.0, seed, sir100_accept)
    return _fixture(api, params, SIR100, 1.0, state, traj, None, True)


def sir1000_fixture(api, seed):
    spec = api.models.sir_spec(SIR1000)
    state, traj = _draw(api, spec, 4.0, seed,
                        lambda api, spec, traj: len(sample_jumps(spec, traj)) >= SIR1000_SAMPLES)
    return _fixture(api, SIR1000, SIR1000, 4.0, state, traj, SIR1000_SAMPLES, False)


def cli_fixture(api, seed):
    spec = api.models.sir_spec(SIR100)
    s = seed
    while True:
        rng = np.random.default_rng(s)
        state = rng.bit_generator.state
        traj = api.population.simulate(spec, 1.0, rng)
        if sir100_accept(api, spec, traj):
            return s, _fixture(api, SIR100, SIR100, 1.0, state, traj, None, True)
        s += 1


# ---------------------------------------------------------------------------
# One run of one workload.

class Calibration:
    """Fixed work outside genfilter, timed before every iteration.

    On a shared host the same code runs up to 1.8x slower for minutes at a
    time: the deterministic oracle took 0.16 s to 0.33 s on one genealogy
    within four minutes.  Runs made at different times are compared by
    scaling their times by this kernel's median time in the same run.  The
    kernel mixes the work genfilter does: interpreted Python, numpy
    operations on particle-sized arrays, and sparse matrix-vector products
    on a grid-sized matrix.  It calls no genfilter code, so a change to the
    program moves the scaled times fully.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.particles = rng.random((2000, 3))
        self.generator = scipy.sparse.random(5000, 5000, density=1e-3, random_state=rng,
                                             format="csr")
        self.samples: list[float] = []

    def measure(self) -> None:
        start = time.perf_counter()
        w = np.ones(self.generator.shape[0])
        for _ in range(150):
            (np.cumsum(self.particles, axis=1) > 0.5).sum(axis=1)
            w = self.generator @ w + 1.0
            w /= w.sum()
        total = 0
        for k in range(100_000):
            total += k
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Seconds at ``CALIBRATION_S`` per second measured in this run."""
        return CALIBRATION_S / statistics.median(self.samples)


class Run:
    """Counters, spans and fixtures of one benchmark run."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.tracer = Tracer()
        self.api = Api(self.tracer)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.estimates: list[float] = []
        self.reference = None
        self.flux = None
        self.gate_detail: dict = {}
        self.calibration = Calibration()
        self.fx = None
        self.cli = None
        self._seeds = np.random.SeedSequence(seed)

    def next_rng(self) -> np.random.Generator:
        """A fresh independent stream spawned from the workload seed."""
        return np.random.default_rng(self._seeds.spawn(1)[0])

    @contextlib.contextmanager
    def op(self, name: str):
        """One operation: attempted always, failed if it raises or its check fails."""
        self.attempted += 1
        try:
            yield
        except Aborted:
            raise
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            raise Aborted(name) from exc

    def phase(self, name: str):
        return self.tracer.span(name)

    def setup(self):
        """Build the workload's model and fixture; timed by the caller."""
        if self.workload == "sir1000-long":
            self.fx = sir1000_fixture(self.api, self.seed)
        elif self.workload == "sir100-varying":
            self.fx = sir100_fixture(self.api, VARYING_FIXTURE_SEED, SIR100_VARYING)
        elif self.workload == "sir100-crosscheck":
            self.fx = sir100_fixture(self.api, self.seed)
        else:
            self.cli = CliChain(self, *cli_fixture(self.api, self.seed))
            self.fx = self.cli.fx

    def iterate(self, tag: str, seconds: float) -> list[float]:
        """Run iterations for ``seconds`` (at least ``min_iterations``); their durations."""
        body = ITERATIONS[self.workload]
        start = time.perf_counter()
        i = 0
        while i < self.sizes.min_iterations or time.perf_counter() - start < seconds:
            self.calibration.measure()
            self.tracer.iteration = (tag, i)
            try:
                with self.phase("iteration"):
                    body(self)
            except Aborted:
                pass
            i += 1
        self.tracer.iteration = None
        return self.tracer.durations("iteration", {(tag, k) for k in range(i)})

    def gate(self) -> dict:
        """Filter-vs-oracle z gate over the run's estimates, where an oracle exists."""
        if self.workload not in ("sir100-crosscheck", "sir100-varying"):
            return {}
        z, bound, ok = z_gate(self.estimates, self.reference)
        with contextlib.suppress(Aborted), self.op("filter_vs_oracle"):
            expect(ok, f"filter mean is {z:.3g} standard errors from the oracle "
                       f"(bound {bound:.3g}, {len(self.estimates)} estimates)")
        self.gate_detail = {
            "z": z, "bound": bound, "n": len(self.estimates), "oracle": self.reference,
            "mean": float(np.mean(self.estimates)) if self.estimates else None,
            "boundary_flux": self.flux}
        return self.gate_detail


def _smc(run, fx, n_particles):
    res = run.api.filtering.smc_loglik(fx.spec, fx.visible, FilterConfig(n_particles),
                                       rng=run.next_rng())
    expect(not res.diagnostics.collapsed and math.isfinite(res.loglik),
           f"filter collapsed at t={res.diagnostics.collapse_time}")
    return res


def iterate_grid(run: Run) -> None:
    """sir100-crosscheck and sir100-varying: the oracle, then the filter."""
    fx, A = run.fx, run.api
    with run.phase("oracle"):
        with run.op("oracle_loglik"):
            ll, grid = A.filtering.oracle_loglik(fx.spec, fx.visible, fx.truncation,
                                                 tol=TOL, return_grid=True)
            expect(math.isfinite(ll), f"oracle log likelihood {ll} is not finite")
            expect(run.reference is None or ll == run.reference,
                   f"oracle gave {ll}, earlier {run.reference}: not deterministic")
        with run.op("boundary_flux"):
            flux = A.filtering.boundary_flux(fx.spec, grid, t=fx.visible.time)
            expect(math.isfinite(flux) and flux >= 0.0, f"boundary flux {flux}")
    run.reference, run.flux = ll, flux
    with run.phase("filter"), run.op("smc_loglik"):
        run.estimates.append(_smc(run, fx, run.sizes.particles).loglik)


def iterate_long(run: Run) -> None:
    """sir1000-long: genealogy pipeline, the closed-form routes, the filter."""
    fx, A = run.fx, run.api
    with run.phase("pipeline"):
        with run.op("simulate"):
            traj = fx.replay(A)
            expect(traj == fx.traj, "replayed draw differs from the fixture")
        with run.op("build_genealogy"):
            g, _ = A.genealogy.build_genealogy(fx.spec, traj)
        with run.op("prune"):
            v = A.genealogy.prune(g)
            expect(v == fx.visible, "pruned genealogy differs from the fixture")
    with run.phase("exact"):
        h = A.population.to_history(traj)
        with run.op("history_log_density"):
            dens = A.population.history_log_density(fx.spec, h)
            expect(math.isfinite(dens), f"history log density {dens}")
        with run.op("loglik_events"):
            by_events = A.exact.loglik_events(fx.spec, h, v)
            expect(math.isfinite(by_events), f"loglik_events {by_events}")
        with run.op("loglik_lineages"):
            by_lineages = A.exact.loglik_lineages(fx.spec, traj)
            rel = rel_diff(by_lineages, by_events)
            expect(rel <= REL_TOL, f"closed-form routes differ by {rel:.3g} (relative)")
    with run.phase("filter"), run.op("smc_loglik"):
        run.estimates.append(_smc(run, fx, run.sizes.particles).loglik)


ITERATIONS = {"sir100-crosscheck": iterate_grid, "sir1000-long": iterate_long,
              "sir100-varying": iterate_grid, "cli-chain": lambda run: run.cli.chain()}


# ---------------------------------------------------------------------------
# The CLI chain.

class CliChain:
    """simulate -> prune -> exact -> filter -> oracle -> profile through `genfilter.cli.main`."""

    def __init__(self, run: Run, cli_seed: int, fx: Fixture):
        self.run = run
        self.fx = fx
        self.dir = run.workdir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        sizes = run.sizes
        model = {"name": "sir", "params": {"transmission_rate": SIR100.transmission_rate,
                                           "recovery_rate": SIR100.recovery_rate,
                                           "sampling_rate": SIR100.sampling_rate,
                                           "s0": SIR100.s0, "i0": SIR100.i0}}
        chain = {"schema_version": 1, "seed": cli_seed, "model": model,
                 "inputs": {"trajectory": "sim/trajectory",
                            "genealogy": "pruned/genealogy_visible.json"},
                 "simulate": {"horizon": 1.0},
                 "filter": {"n_particles": sizes.cli_particles, "n_reps": sizes.cli_reps},
                 "oracle": {"tol": TOL},
                 "profile": {"parameter": "transmission_rate",
                             "values": list(sizes.profile_values),
                             "n_particles": sizes.profile_particles,
                             "n_reps": sizes.profile_reps, "include_oracle": True}}
        prune = {"schema_version": 1, "seed": cli_seed, "model": model,
                 "inputs": {"genealogy": "sim/genealogy_full.json"}}
        (self.dir / "chain.json").write_text(json.dumps(chain))
        (self.dir / "prune.json").write_text(json.dumps(prune))

    def _main(self, command: str, config: str, out: str) -> Path:
        argv = [command, "--config", str(self.dir / config), "--out", str(self.dir / out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.run.api.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        expect(code == 0, f"genfilter {command} exited {code}: {stderr.getvalue().strip()}")
        return self.dir / out

    def chain(self) -> dict:
        """One pass of the chain; checks every output and returns the parsed results."""
        run = self.run
        for sub in ("sim", "pruned", "exact", "filter", "oracle", "profile"):
            shutil.rmtree(self.dir / sub, ignore_errors=True)
        out = {}
        with run.phase("cli.simulate"), run.op("cli simulate"):
            sim = self._main("simulate", "chain.json", "sim")
            json.loads((sim / "trajectory.json").read_text())
            json.loads((sim / "genealogy_full.json").read_text())
        with run.phase("cli.prune"), run.op("cli prune"):
            pruned = self._main("prune", "prune.json", "pruned")
            json.loads((pruned / "genealogy_visible.json").read_text())
        with run.phase("cli.exact"), run.op("cli exact"):
            res = _result(self._main("exact", "chain.json", "exact"))
            lin, ev = float(res["loglik_lineages"]), float(res["loglik_events"])
            expect(math.isfinite(ev) and rel_diff(lin, ev) <= REL_TOL,
                   f"exact routes {lin} vs {ev}")
        with run.phase("cli.filter"), run.op("cli filter"):
            res = out["filter"] = _result(self._main("filter", "chain.json", "filter"))
            expect(math.isfinite(float(res["mean"])) and res["collapse_count"] == 0
                   and len(res["estimates"]) == run.sizes.cli_reps, f"filter result {res}")
        with run.phase("cli.oracle"), run.op("cli oracle"):
            res = out["oracle"] = _result(self._main("oracle", "chain.json", "oracle"))
            expect(math.isfinite(float(res["loglik"])) and "boundary_flux" in res,
                   f"oracle result {res}")
        with run.phase("cli.profile"), run.op("cli profile"):
            rows = _profile_rows(self._main("profile", "chain.json", "profile"))
            expect(len(rows) == len(run.sizes.profile_values)
                   and all(math.isfinite(r["mean"]) and math.isfinite(r["oracle"])
                           and r["collapsed"] == 0 for r in rows), f"profile rows {rows}")
        return out


def _result(out: Path) -> dict:
    return json.loads((out / "result.json").read_text())


def _profile_rows(out: Path) -> list[dict]:
    lines = [ln for ln in (out / "profile.csv").read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [{k: float(v) for k, v in zip(header, ln.split(","))} for ln in lines[1:]]


# ---------------------------------------------------------------------------
# Layer probes of the traced run.

def probes(run: Run) -> dict:
    """Per-layer metrics, each read from spans of calls made on the workload's fixtures.

    Probes that need a state grid run on ``grid``: the workload's own
    fixture, except on sir1000-long, whose full grid would hold about 500k
    states; there they run on the population-100 fixture of the same seed.
    Every workload also runs the CLI chain once, on the cli-chain model.
    """
    A, T, sizes = run.api, run.tracer, run.sizes
    T.iteration = tag = ("probe", 0)
    fx = run.fx
    grid = fx if fx.truncation is not None else sir100_fixture(A, run.seed)
    cli = run.cli or CliChain(run, *cli_fixture(A, run.seed))
    schedule = A.filtering.event_schedule(fx.visible)
    m = {}

    def timed(name, fn, repeat=3):
        with run.op(name):
            for _ in range(repeat):
                with run.phase(name):
                    out = fn()
        return out

    def med(name):
        return T.median(name, {tag})

    timed("models.spec", lambda: A.models.sir_spec(fx.params), repeat=5)
    timed("models.truncation", lambda: A.models.sir_truncation(grid.params))

    timed("population.simulate", lambda: fx.replay(A, fx.spec))
    h = A.population.to_history(fx.traj)
    timed("population.history_log_density",
          lambda: A.population.history_log_density(fx.spec, h))
    m["population.jumps"] = len(fx.traj.jumps)
    m.update(_grid_probes(run, grid, timed))

    g = timed("genealogy.build", lambda: A.genealogy.build_genealogy(fx.draw_spec, fx.traj)[0])
    timed("genealogy.prune", lambda: A.genealogy.prune(g))
    m["genealogy.visible_nodes"] = len(fx.visible.nodes)
    m["genealogy.schedule_events"] = len(schedule)

    def lineage_function():
        count = A.genealogy.LineageFunction(fx.visible)
        return [count(e) for e, _ in schedule]
    timed("genealogy.lineage_function", lineage_function)

    def json_roundtrip():
        back = A.genealogy.genealogy_from_json(
            json.loads(json.dumps(A.genealogy.genealogy_to_json(fx.visible))))
        expect(back == fx.visible, "JSON round trip changed the genealogy")
    timed("genealogy.json_roundtrip", json_roundtrip)

    def newick_roundtrip():
        back = A.genealogy.from_newick(A.genealogy.to_newick(fx.visible))
        expect(len(back.nodes) == len(fx.visible.nodes), "Newick round trip lost nodes")
    timed("genealogy.newick_roundtrip", newick_roundtrip)

    by_events = timed("exact.loglik_events", lambda: A.exact.loglik_events(fx.spec, h, fx.visible))
    by_lineages = timed("exact.loglik_lineages", lambda: A.exact.loglik_lineages(fx.spec, fx.traj))
    m["exact.rel_diff"] = rel_diff(by_lineages, by_events)
    with run.op("exact routes agree"):
        expect(m["exact.rel_diff"] <= REL_TOL,
               f"closed-form routes differ by {m['exact.rel_diff']:.3g}")

    res = timed("filtering.smc_loglik", lambda: _smc(run, fx, sizes.particles), repeat=1)
    m["filtering.particle_event_ns"] = (med("filtering.smc_loglik") * 1e9
                                        / (sizes.particles * (len(schedule) + 1)))
    m["filtering.resample_count"] = res.diagnostics.resample_count
    m["filtering.ess_min_frac"] = min(res.diagnostics.ess_trace) / sizes.particles
    with run.op("filter phases"):
        _phase_pass(run, fx, schedule, sizes.particles)

    ll, weights = timed("filtering.oracle_loglik", lambda: A.filtering.oracle_loglik(
        grid.spec, grid.visible, grid.truncation, tol=TOL, return_grid=True), repeat=1)
    timed("filtering.boundary_flux",
          lambda: A.filtering.boundary_flux(grid.spec, weights, t=grid.visible.time), repeat=1)
    m["filtering.oracle_states"] = len(weights.states)

    chain = timed("cli.chain", cli.chain, repeat=1)
    for sub in ("simulate", "prune", "exact", "filter", "oracle", "profile"):
        m[f"cli.{sub}_s"] = med(f"cli.{sub}")

    if run.workload in ("sir100-crosscheck", "sir100-varying"):
        z = run.gate_detail["z"]
    elif run.workload == "cli-chain":
        z, _, _ = z_gate(chain["filter"]["estimates"], float(chain["oracle"]["loglik"]))
    else:
        estimates = timed("filtering.companion_replicates", lambda: [
            _smc(run, grid, sizes.companion_particles).loglik
            for _ in range(sizes.companion_reps)], repeat=1)
        z, bound, ok = z_gate(estimates, ll)
        with run.op("companion filter_vs_oracle"):
            expect(ok, f"companion filter mean is {z:.3g} standard errors from the oracle "
                       f"(bound {bound:.3g})")
    m["filtering.filter_oracle_z"] = z

    for phase in ("propagate", "event_update", "bench_resample"):
        m[f"filtering.{phase}_s"] = sum(T.durations(f"filtering.{phase}", {tag}))
    for name, unit in LAYER_METRICS.items():
        if unit == "s" and name not in m and name != "tracing.overhead_s":
            m[name] = med(name[:-2])
    T.iteration = None
    return m


def _grid_probes(run: Run, grid: Fixture, timed) -> dict:
    """StateLattice, forward_generator and integrate_linear over the longest event-free stretch."""
    A, spec = run.api, grid.spec

    def lattice():
        lat = A.population.StateLattice(grid.truncation, spec.d)
        for u in spec.displacements:
            with run.tracer.span("population.StateLattice.transition", "call"):
                lat.transition(u)
        return lat
    lat = timed("population.lattice", lattice)
    gen = timed("population.forward_generator",
                lambda: A.population.forward_generator(spec, lat, 0.0))

    times = [0.0, *(e for e, _ in A.filtering.event_schedule(grid.visible)), grid.visible.time]
    t0, t1 = max(zip(times, times[1:]), key=lambda ab: ab[1] - ab[0])
    x = A.population.state_at(grid.draw_spec, grid.traj, t0)
    x[list(spec.bookkeeping_dims)] = 0
    w0 = np.zeros(lat.size)
    w0[lat.row_of(x)] = 1.0
    evals = [0]

    def rhs(t, w):
        evals[0] += 1
        return (forward_generator(spec, lat, t) if spec.any_time_dependent else gen) @ w

    def integrate():
        evals[0] = 0
        w = A.population.integrate_linear(rhs, w0, t0, t1, TOL)
        expect(np.isfinite(w).all() and 0.0 < w.sum() <= 1.0 + 1e-6,
               "integrated mass out of range")
    timed("population.integrate_linear", integrate, repeat=1)
    return {"population.generator_nnz": int(gen.nnz), "population.rhs_evals": evals[0]}


def _phase_pass(run: Run, fx: Fixture, schedule, n: int) -> None:
    """One filter pass through the public per-phase calls; resampling is done here."""
    A, rng = run.api, run.next_rng()
    ens = A.filtering.init_ensemble(fx.spec, n, rng)
    t = 0.0
    for e, kind in (*schedule, (fx.visible.time, None)):
        if e > t:
            with run.phase("filtering.propagate"):
                ens = A.filtering.propagate_interval(fx.spec, ens, fx.visible, t, e, rng)
        if kind is None:
            break
        with run.phase("filtering.event_update"):
            ens = A.filtering.event_update(fx.spec, ens, fx.visible, e, kind, rng)
        with run.phase("filtering.bench_resample"):
            ens = _normalise_and_resample(ens, rng)
        t = e


def _normalise_and_resample(ens: Ensemble, rng, threshold: float = 0.5) -> Ensemble:
    """Divide out the mean weight; systematic resampling below ``threshold`` ESS."""
    n = len(ens.log_weights)
    lmw = float(logsumexp(ens.log_weights)) - math.log(n)
    expect(math.isfinite(lmw), "every particle weight vanished")
    w = np.exp(ens.log_weights - lmw)
    if w.sum() ** 2 / (w ** 2).sum() >= threshold * n:
        return Ensemble(ens.states, ens.log_weights - lmw)
    cum = np.cumsum(w / w.sum())
    idx = np.minimum(np.searchsorted(cum, (rng.random() + np.arange(n)) / n, side="right"), n - 1)
    return Ensemble(ens.states[idx].copy(), np.zeros(n))

