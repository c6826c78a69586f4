"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (instance
generation and ``SensingMatrix`` construction), makes one untimed warm-up
pass in ``warm_up``, and then runs ``round`` repeatedly: one round calls
the program on the whole seeded batch once and returns one :class:`Call`
per public call, timed around that call only.  ``check`` runs after the
timed loop and does the checks that need every round.

The default seed reproduces the acceptance-suite instances.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import resource
import time
import traceback
from dataclasses import dataclass, field
from statistics import median

import numpy as np

import irlskit.cli
import irlskit.experiments
import irlskit.linalg
import irlskit.solver
import irlskit.verify
from irlskit import ExperimentConfig, IrlsConfig, SensingMatrix

ACCEPTANCE_SEED = 20250809


@dataclass
class Call:
    """One timed call into the program and the checks made on its output."""

    kind: str
    key: tuple
    seconds: float
    digest: str = ""
    error: str = ""
    info: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.error)


def fmt17(values) -> str:
    return " ".join(f"{float(v):.17g}" for v in np.ravel(values))


def sha(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def result_digest(termination: str, x_final, trace_rows) -> str:
    """SHA-256 over the termination, the 17g x_final and the 17g trace."""
    rows = [
        fmt17([r["n"], r["surrogate"], r["eps"], r["step_l1"]])
        + ("" if r["ref_error_l1"] is None else " " + fmt17([r["ref_error_l1"]]))
        for r in trace_rows
    ]
    return sha(termination, fmt17(x_final), *rows)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return math.nan
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def round_seconds(rounds) -> list[float]:
    """Busy time of each round: the sum of its timed calls."""
    return [sum(c.seconds for c in calls) for calls in rounds]


def timed(fn, *args, **kwargs):
    """(seconds, result, error text) of one call; exceptions become error text."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception:
        return time.perf_counter() - t0, None, traceback.format_exc()
    return time.perf_counter() - t0, out, ""


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def signed_permutation(seed: int, tag: str, phi: SensingMatrix, xs: list):
    """The same problems with rows and columns permuted and columns sign-flipped.

    The permutation is drawn from the seed, and is the identity at the
    acceptance seed.  Every seed then poses the problems of the acceptance
    instances up to symmetry: the IRLS iterations take the same path up to
    rounding, so a seed changes the bits but not the amount of work.
    """
    if seed == ACCEPTANCE_SEED:
        return phi, xs
    exp = irlskit.experiments
    rng = exp.make_rng(exp.derive_seed(seed, tag))
    m, n = phi.shape
    rows, cols = rng.permutation(m), rng.permutation(n)
    signs = rng.choice(np.array([-1.0, 1.0]), size=n)
    return SensingMatrix(phi.entries[rows][:, cols] * signs), [x[cols] * signs for x in xs]


class Workload:
    name = ""
    # what one round runs
    batch = ""

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir
        self.fingerprints: dict[str, str] = {}
        # key -> digest of the first round, to check later rounds against
        self.first_digest: dict[tuple, str] = {}

    def warm_up(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Call]:
        raise NotImplementedError

    def check(self, rounds: list[list[Call]]) -> list[Call]:
        """Checks that need the whole run; returns the extra calls made."""
        return []

    def traced_extra(self) -> list[Call]:
        """Work done only in the traced run, after the traced rounds."""
        return []

    def same_as_first(self, call: Call) -> None:
        """Mark ``call`` failed if its digest differs from the first round's."""
        if call.failed:
            return
        first = self.first_digest.setdefault(call.key, call.digest)
        if call.digest != first:
            call.error = f"digest {call.digest[:12]} differs from first repetition {first[:12]}"

    def pool_side(self, rounds: list[list[Call]]) -> tuple[float, float]:
        """(pool efficiency, children CPU seconds per round); zero without a pool."""
        return 0.0, 0.0

    def report(self, rounds: list[list[Call]], extra: list[Call]) -> dict:
        """Workload-specific metrics: name -> (value, unit, samples)."""
        return {}

    def digest(self, rounds: list[list[Call]]) -> str:
        """One digest over the first repetition of every call in round order."""
        return sha(*(c.digest for c in rounds[0])) if rounds else ""


# --- recover-small -----------------------------------------------------------


class RecoverSmall(Workload):
    """In-process ``irls_run`` on a batch of 50x250 instances.

    The matrix and the planted vectors are the acceptance-8 phase table's
    at the acceptance seed; other seeds take a :func:`signed_permutation`
    of them.  Fresh draws would change the batch's total work: over five
    seeds of fresh 48-instance batches the mean iteration count ranged
    from 25 to 35.  The planted k stay below the l1 transition, so no run
    goes to the 2000-iteration cap and a run's cost is mostly
    per-iteration call overhead.
    """

    name = "recover-small"
    batch = "48 irls_run calls"
    M, N = 50, 250
    K_LIST = (2, 4, 6, 8)
    TAUS = (1.0, 0.5)
    TRIALS = 6

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        exp = irlskit.experiments
        master = ACCEPTANCE_SEED + 6
        phi = exp.gen_gaussian_matrix(self.M, self.N, exp.derive_seed(master, "matrix"))
        keys, xs = [], []
        for k in self.K_LIST:
            for tau in self.TAUS:
                tag = exp.method_tag(tau)
                for t in range(self.TRIALS):
                    keys.append((k, tau, t))
                    xs.append(exp.gen_sparse_vector(self.N, k, exp.derive_seed(master, "trial", k, tag, t)))
        self.phi, xs = signed_permutation(seed, "recover-small", phi, xs)
        self.fingerprints["recover-small/phi"] = self.phi.fingerprint()
        self.instances = [
            (key, x, self.phi.entries @ x, IrlsConfig(K=key[0], tau=key[1]))
            for key, x in zip(keys, xs)
        ]

    def warm_up(self):
        _, x, y, cfg = self.instances[0]
        irlskit.solver.irls_run(self.phi, y, cfg)

    def round(self):
        run = irlskit.solver.irls_run
        calls = []
        for key, x, y, cfg in self.instances:
            seconds, res, err = timed(run, self.phi, y, cfg)
            call = Call("l1" if cfg.tau == 1.0 else "hybrid", key, seconds, error=err)
            if res is not None:
                call.error = self._check(res, y)
                call.digest = result_digest(
                    res.termination, res.x_final, [vars(r) for r in res.trace]
                )
                call.info["success"] = float(np.sum(np.abs(res.x_final - x))) <= 1e-4 * float(np.sum(np.abs(x)))
                call.info["iterations"] = res.iterations
            self.same_as_first(call)
            calls.append(call)
        return calls

    def _check(self, res, y) -> str:
        if res.termination not in irlskit.solver.TERMINATIONS:
            return f"unknown termination {res.termination!r}"
        if not np.all(np.isfinite(res.x_final)):
            return "non-finite x_final"
        resid = float(np.linalg.norm(self.phi.entries @ res.x_final - y))
        if resid > 1e-8 * float(np.linalg.norm(y)):
            return f"infeasible: residual {resid:.3e}"
        if res.config.tau == 1.0:
            l1 = float(np.sum(np.abs(res.x_final)))
            if l1 > res.a_bound * (1.0 + 1e-9):
                return f"l1 norm {l1:.17g} above the a-priori bound {res.a_bound:.17g}"
        return ""

    def report(self, rounds, extra):
        lat = sorted(c.seconds for calls in rounds for c in calls)
        busy = sum(lat)
        ok = [c for calls in rounds[:1] for c in calls if not c.failed]
        return {
            "recoveries_per_s": (len(lat) / busy, "1/s", len(lat)),
            "recovery_p50_ms": (1e3 * percentile(lat, 0.50), "ms", len(lat)),
            "recovery_p95_ms": (1e3 * percentile(lat, 0.95), "ms", len(lat)),
            "planted_recovered_frac": (
                sum(c.info["success"] for c in ok) / max(len(ok), 1), "ratio", len(ok)
            ),
            "mean_iterations": (
                sum(c.info["iterations"] for c in ok) / max(len(ok), 1), "count", len(ok)
            ),
        }


# --- recover-large -------------------------------------------------------------


class RecoverLarge(Workload):
    """The acceptance 6/7 instance through ``irlskit.cli.main(["recover", ...])``.

    Fresh 250x1500 draws differ a lot in difficulty: over five seeds the
    tau = 1 run took 123 to 369 iterations, and the tau = 0.6 run ended
    IllConditioned between 1e-7 and 2e-5 from the planted vector.  So the
    seed draws a :func:`signed_permutation` of the acceptance instance.
    """

    name = "recover-large"
    batch = "one tau=1 plus one tau=0.6 recover"
    M, N, K = 250, 1500, 45
    ARGS = {
        "l1": ["--tau", "1.0"],
        "hybrid": ["--tau", "0.6", "--warmstart", "10"],
    }

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        exp = irlskit.experiments
        phi = exp.gen_gaussian_matrix(self.M, self.N, ACCEPTANCE_SEED + 4)
        x = exp.gen_sparse_vector(self.N, self.K, ACCEPTANCE_SEED + 5)
        self.phi, (self.x,) = signed_permutation(seed, "recover-large", phi, [x])
        self.y = self.phi.entries @ self.x
        self.fingerprints["recover-large/phi"] = self.phi.fingerprint()
        self.matrix_path = os.path.join(tmpdir, "phi.mat")
        self.rhs_path = os.path.join(tmpdir, "y.vec")
        irlskit.linalg.write_matrix(self.matrix_path, self.phi.entries)
        irlskit.linalg.write_vector(self.rhs_path, self.y)

    def _argv(self, extra, out):
        return [
            "recover", "--matrix", self.matrix_path, "--rhs", self.rhs_path,
            "--K", str(self.K), "--eps-floor", "1e-13", "--max-iters", "2000",
            "--out", out, *extra,
        ]

    def warm_up(self):
        out = os.path.join(self.tmpdir, "warm.json")
        with contextlib.redirect_stdout(io.StringIO()):
            irlskit.cli.main(self._argv(["--max-iters", "2"], out))

    def round(self):
        calls = []
        for kind, extra in self.ARGS.items():
            out = os.path.join(self.tmpdir, f"{kind}.json")
            with contextlib.redirect_stdout(io.StringIO()):
                seconds, code, err = timed(irlskit.cli.main, self._argv(extra, out))
            call = Call(kind, (kind,), seconds, error=err)
            if not err:
                call.error = f"exit code {code}" if code != 0 else self._check(call, out)
            self.same_as_first(call)
            calls.append(call)
        return calls

    def _check(self, call, out) -> str:
        res = irlskit.solver.load_result(out)
        call.digest = result_digest(res.termination, res.x_final, [vars(r) for r in res.trace])
        call.info["termination"] = res.termination
        call.info["iterations"] = res.iterations
        resid = float(np.linalg.norm(self.phi.entries @ res.x_final - self.y))
        if resid > 1e-8 * float(np.linalg.norm(self.y)):
            return f"infeasible: residual {resid:.3e}"
        err = float(np.sum(np.abs(res.x_final - self.x)))
        if err > 1e-6:
            return f"l1 distance {err:.3e} to the planted vector exceeds 1e-6"
        return ""

    def report(self, rounds, extra):
        out = {}
        for kind in self.ARGS:
            secs = [c.seconds for calls in rounds for c in calls if c.kind == kind]
            out[f"{kind}_recover_s"] = (median(secs), "s", len(secs))
        first = {c.kind: c for c in rounds[0]} if rounds else {}
        for kind, c in first.items():
            if not c.failed:
                out[f"{kind}_iterations"] = (c.info["iterations"], "count", 1)
        return out


# --- phase-pool ------------------------------------------------------------------


class PhasePool(Workload):
    """The acceptance-8 phase table at reduced trials, through the process pool.

    ``run_phase_transition`` runs at its default worker count.  The pool
    starts, and each worker builds its matrix, inside every timed call,
    as it does for the ``phase`` command.
    """

    name = "phase-pool"
    batch = "one pooled phase table"
    TRIALS = 2

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.cfg = self._config(seed, self.TRIALS)
        exp = irlskit.experiments
        phi = exp.gen_gaussian_matrix(self.cfg.m, self.cfg.N, exp.derive_seed(self.cfg.master_seed, "matrix"))
        self.fingerprints["phase-pool/phi"] = phi.fingerprint()
        self.n_trials = len(self.cfg.k_list) * len(self.cfg.tau_list) * self.TRIALS
        self.workers = exp.worker_count()
        self.serial_s = math.nan

    @staticmethod
    def _config(seed, trials):
        return ExperimentConfig(
            m=50, N=250, k=25, k_list=[5, 10, 15, 20, 25], tau_list=[1.0, 0.5],
            trials=trials, master_seed=seed + 6, success_tol=1e-4,
            K_policy="EqualsPlantedK", warmstart_iters=40, max_iters=500,
        )

    def _csv_text(self, table) -> str:
        path = os.path.join(self.tmpdir, "phase.csv")
        irlskit.experiments.write_phase_csv(table, path)
        with open(path, encoding="ascii") as fh:
            return fh.read()

    def warm_up(self):
        # a different table size, so no worker state is shared with the timed tables
        irlskit.experiments.run_phase_transition(self._config(self.seed, 1))

    def _table(self, kind: str, n_workers: int | None = None) -> Call:
        seconds, table, err = timed(irlskit.experiments.run_phase_transition, self.cfg, n_workers)
        call = Call(kind, (kind,), seconds, error=err)
        if table is not None:
            call.info["text"] = self._csv_text(table)
            call.digest = sha(call.info["text"])
        return call

    def round(self):
        cpu0 = children_cpu_s()
        call = self._table("table")
        call.info["children_cpu_s"] = children_cpu_s() - cpu0
        self.same_as_first(call)
        return [call]

    def check(self, rounds):
        serial = self._table("serial-table", n_workers=1)
        self.serial_s = serial.seconds
        if not serial.failed:
            for calls in rounds:
                for c in calls:
                    if not c.failed and c.info["text"] != serial.info["text"]:
                        c.error = "pooled table differs from the serial table"
        return [serial]

    def traced_extra(self):
        return [self._table("serial-table", n_workers=1)]

    def pool_side(self, rounds):
        """Serial table time over (workers x pooled table time), and the
        workers' CPU seconds per pooled table, as medians over the rounds."""
        efficiency = self.serial_s / (self.workers * median(round_seconds(rounds)))
        return efficiency, median(c.info["children_cpu_s"] for r in rounds for c in r)

    def report(self, rounds, extra):
        walls = round_seconds(rounds)
        efficiency, cpu = self.pool_side(rounds)
        return {
            "trials_per_s": (self.n_trials / median(walls), "1/s", len(walls)),
            "serial_table_s": (self.serial_s, "s", 1),
            "pool_workers": (self.workers, "count", 1),
            "pool_efficiency": (efficiency, "ratio", len(walls)),
            "children_cpu_s": (cpu, "s", len(walls)),
        }


# --- verify-oracles ----------------------------------------------------------------


class VerifyOracles(Workload):
    """The verify layer: exact NSP profiles, RIP and sparse enumeration,
    the LP l1 oracle and a Monte Carlo NSP bound.  No IRLS runs here.

    The 8x12 batch is the acceptance 4/5 scan; checks made after the timed
    loop certify oracle recovery on it and bound each Monte Carlo NSP
    estimate by the exact value.
    """

    name = "verify-oracles"
    batch = "all five oracle batches"
    # sizes chosen so that each oracle kind takes a similar share of a round
    NSP_BATCH = 24
    RIP_SHAPE, RIP_ORDER, RIP_BATCH = (16, 30), 3, 2
    SPARSE_SHAPE, SPARSE_K, SPARSE_BATCH = (16, 32), 3, 3
    L1_SHAPE, L1_K, L1_BATCH = (50, 250), 5, 2
    MC_SHAPE, MC_ORDER, MC_SAMPLES = (50, 250), 5, 4000
    CHECK_MC_SAMPLES = 2000

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        exp = irlskit.experiments
        rng = np.random.default_rng(seed + 1)
        self.tiny = [
            SensingMatrix(rng.normal(0.0, 1.0 / np.sqrt(8), size=(8, 12)))
            for _ in range(self.NSP_BATCH)
        ]

        def gauss(shape, tag, i):
            return exp.gen_gaussian_matrix(*shape, exp.derive_seed(seed, "verify", tag, i))

        def planted(n, k, tag, i):
            return exp.gen_sparse_vector(n, k, exp.derive_seed(seed, "verify-x", tag, i))

        self.rip = [gauss(self.RIP_SHAPE, "rip", i) for i in range(self.RIP_BATCH)]
        self.sparse = []
        for i in range(self.SPARSE_BATCH):
            phi = gauss(self.SPARSE_SHAPE, "sparse", i)
            x = planted(self.SPARSE_SHAPE[1], self.SPARSE_K, "sparse", i)
            self.sparse.append((phi, x, phi.entries @ x))
        self.l1 = []
        for i in range(self.L1_BATCH):
            phi = gauss(self.L1_SHAPE, "l1", i)
            x = planted(self.L1_SHAPE[1], self.L1_K, "l1", i)
            self.l1.append((phi, x, phi.entries @ x))
        self.mc = gauss(self.MC_SHAPE, "mc", 0)
        named = (
            [("tiny", p) for p in self.tiny]
            + [("rip", p) for p in self.rip]
            + [("sparse", p) for p, _, _ in self.sparse]
            + [("l1", p) for p, _, _ in self.l1]
            + [("mc", self.mc)]
        )
        counts: dict[str, int] = {}
        for tag, phi in named:
            i = counts.get(tag, 0)
            counts[tag] = i + 1
            self.fingerprints[f"verify-oracles/{tag}{i}"] = phi.fingerprint()
        self.profiles: dict[int, np.ndarray] = {}

    def _jobs(self):
        """The calls of one round, round-robin across oracle kinds."""
        v = irlskit.verify
        kinds = [
            [("nsp_profile", ("nsp", i), v.exact_nsp_profile, (phi,), {})
             for i, phi in enumerate(self.tiny)],
            [("rip", ("rip", i), v.rip_constant, (phi, self.RIP_ORDER), {})
             for i, phi in enumerate(self.rip)],
            [("sparse", ("sparse", i), v.sparse_oracle, (phi, y, self.SPARSE_K), {})
             for i, (phi, _, y) in enumerate(self.sparse)],
            [("l1", ("l1", i), v.l1_oracle, (phi, y), {})
             for i, (phi, _, y) in enumerate(self.l1)],
            [("mc", ("mc", 0), v.nsp_constant, (self.mc, self.MC_ORDER),
              {"method": "montecarlo", "samples": self.MC_SAMPLES, "seed": self.seed})],
        ]
        return [job for group in itertools.zip_longest(*kinds) for job in group if job]

    def warm_up(self):
        seen = set()
        for kind, _, fn, args, kwargs in self._jobs():
            if kind not in seen:
                seen.add(kind)
                fn(*args, **kwargs)

    def round(self):
        calls = []
        for kind, key, fn, args, kwargs in self._jobs():
            seconds, out, err = timed(fn, *args, **kwargs)
            call = Call(kind, key, seconds, error=err)
            if not err:
                call.digest, call.error = self._digest_and_check(kind, key, out)
            self.same_as_first(call)
            calls.append(call)
        return calls

    def _digest_and_check(self, kind, key, out) -> tuple[str, str]:
        i = key[1]
        if kind == "nsp_profile":
            self.profiles.setdefault(i, out)
            return sha(fmt17(out)), ""
        if kind in ("rip", "mc"):
            ok = math.isfinite(out.constant) and out.constant >= 0.0
            return sha(fmt17([out.constant])), "" if ok else f"constant {out.constant!r}"
        if kind == "sparse":
            support, x_hat, residual = out
            _, x, _ = self.sparse[i]
            err = float(np.max(np.abs(x_hat - x)))
            # m >= 2k: a generic Gaussian matrix has a unique k-sparse solution
            bad = f"sparse oracle missed the planted vector by {err:.3e}" if err > 1e-8 else ""
            return sha(" ".join(map(str, support)), fmt17(x_hat), fmt17([residual])), bad
        phi, x, y = self.l1[i]
        x_hat = out
        resid = float(np.linalg.norm(phi.entries @ x_hat - y))
        l1, l1_star = float(np.sum(np.abs(x_hat))), float(np.sum(np.abs(x)))
        if resid > 1e-7 * float(np.linalg.norm(y)):
            return sha(fmt17(x_hat)), f"LP solution infeasible: residual {resid:.3e}"
        # the planted vector is feasible, so the optimum cannot exceed its l1 norm
        if l1 > l1_star * (1.0 + 1e-9):
            return sha(fmt17(x_hat)), f"LP objective {l1:.17g} above the planted {l1_star:.17g}"
        return sha(fmt17(x_hat)), ""

    def check(self, rounds):
        """On the 8x12 batch: oracles recover every planted vector the exact
        NSP constant certifies, and Monte Carlo bounds stay below exact values."""
        v = irlskit.verify
        rng = np.random.default_rng(self.seed + 2)
        calls = []
        for i, phi in enumerate(self.tiny):
            profile = self.profiles.get(i)
            if profile is None:
                continue
            for order in (1, 2):
                seconds, rep, err = timed(
                    v.nsp_constant, phi, order, method="montecarlo",
                    samples=self.CHECK_MC_SAMPLES, seed=i,
                )
                call = Call("mc-check", ("mc-check", i, order), seconds, error=err)
                if rep is not None and rep.constant > profile[order - 1] * (1.0 + 1e-12):
                    call.error = f"Monte Carlo gamma_{order} {rep.constant:.17g} above exact {profile[order - 1]:.17g}"
                calls.append(call)
            # NSP of order k with gamma_k < 1 makes every k-sparse vector the
            # unique l1 minimizer of its measurements
            certified = [k for k in (2, 1) if profile[k - 1] < 1.0]
            if not certified:
                continue
            k = certified[0]
            x = np.zeros(12)
            x[rng.choice(12, size=k, replace=False)] = rng.normal(size=k)
            y = phi.entries @ x
            for kind, fn, args in (
                ("l1-check", v.l1_oracle, (phi, y)),
                ("sparse-check", v.sparse_oracle, (phi, y, k)),
            ):
                seconds, out, err = timed(fn, *args)
                call = Call(kind, (kind, i), seconds, error=err)
                if not err:
                    x_hat = out if kind == "l1-check" else out[1]
                    dist = float(np.sum(np.abs(x_hat - x)))
                    if dist > 1e-6:
                        call.error = f"{kind}: certified {k}-sparse vector missed by {dist:.3e}"
                calls.append(call)
        return calls

    def report(self, rounds, extra):
        out = {}
        # work per call: profiles, enumerated supports, LP solves, MC samples
        per_call = {
            "nsp_profile": ("nsp_profiles_per_s", 1),
            "rip": ("rip_supports_per_s", math.comb(self.RIP_SHAPE[1], self.RIP_ORDER)),
            "sparse": ("sparse_supports_per_s", math.comb(self.SPARSE_SHAPE[1], self.SPARSE_K)),
            "l1": ("l1_solves_per_s", 1),
            "mc": ("mc_samples_per_s", self.MC_SAMPLES),
        }
        for kind, (metric, work) in per_call.items():
            calls = [c for r in rounds for c in r if c.kind == kind]
            busy = sum(c.seconds for c in calls)
            out[metric] = (work * len(calls) / busy, "1/s", len(calls))
        certified = [c for c in extra if c.kind in ("l1-check", "sparse-check")]
        out["certified_recoveries_checked"] = (len(certified), "count", len(certified))
        return out


WORKLOADS = {w.name: w for w in (RecoverSmall, RecoverLarge, PhasePool, VerifyOracles)}
