"""Span tracing of polyscore's public functions, from outside the package.

`Tracer.install` replaces every public function of the seven layer modules
with a timing wrapper at every module attribute it is bound to, so a function
imported by name (``hardness.quad_log_integral``, ``estimators.moments``) is
traced where it is called, and public methods of the modules' classes are
wrapped on the class.  Spans nest through an explicit stack; a span's self
time is its duration minus the time of its direct children.  Spans are
aggregated per function as they close, so memory stays flat however many
MALA steps a run takes.  `layer_metrics` turns the aggregates into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("polybasis", "expfam", "sampler", "estimators", "fisher", "hardness", "cli")

# expfam functions that build quadrature grids; nested calls count once
_GRID_BUILDERS = frozenset(
    "expfam." + f
    for f in ("build_grid", "auto_radius", "family_radius", "default_grid", "family_grid",
              "QuadratureGrid.doubled")
)

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("polybasis.sparse_eval_rows_per_s", "rows/s"),
    ("polybasis.suffstats_rows_per_s", "rows/s"),
    ("polybasis.jacobian_rows_per_s", "rows/s"),
    ("polybasis.laplacian_rows_per_s", "rows/s"),
    ("polybasis.self_s", "s"),
    ("expfam.quad_nodes", "nodes"),
    ("expfam.logz_nodes_per_s.n1", "nodes/s"),
    ("expfam.logz_nodes_per_s.n2", "nodes/s"),
    ("expfam.logz_nodes_per_s.n3", "nodes/s"),
    ("expfam.moments_nodes_per_s.n1", "nodes/s"),
    ("expfam.moments_nodes_per_s.n2", "nodes/s"),
    ("expfam.moments_nodes_per_s.n3", "nodes/s"),
    ("expfam.gate_s", "s"),
    ("expfam.grid_build_s", "s"),
    ("expfam.self_s", "s"),
    ("sampler.mala_steps", "steps"),
    ("sampler.mala_steps_per_s", "steps/s"),
    ("sampler.ess_per_step", "ratio"),
    ("sampler.exact_draws_per_s", "draws/s"),
    ("sampler.self_s", "s"),
    ("estimators.sm_fit_s", "s"),
    ("estimators.sm_rows_per_s", "rows/s"),
    ("estimators.sm_loss_s", "s"),
    ("estimators.mle_fit_s", "s"),
    ("estimators.mle_iters", "iterations"),
    ("estimators.mle_objective_evals", "evaluations"),
    ("estimators.self_s", "s"),
    ("fisher.audit_s", "s"),
    ("fisher.fisher_info_s", "s"),
    ("fisher.gram_s", "s"),
    ("fisher.moment_inputs_s", "s"),
    ("fisher.self_s", "s"),
    ("hardness.encode_s", "s"),
    ("hardness.formula_poly_s", "s"),
    ("hardness.roots_s", "s"),
    ("hardness.vertices_per_s", "vertices/s"),
    ("hardness.experiments_s", "s"),
    ("cli.self_s", "s"),
)


_ROW_COUNTED = frozenset(
    ("polybasis.eval_suffstats", "polybasis.eval_jacobian", "polybasis.eval_laplacian",
     "polybasis.PolyCoeffs.evaluate")
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return int(shape[0])


class Tracer:
    """Wraps the layer modules' public functions and aggregates their spans."""

    def __init__(self):
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        modules = {name: importlib.import_module(f"polyscore.{name}") for name in LAYERS}
        owners = {f"polyscore.{name}": name for name in LAYERS}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ in owners:
                    if id(value) not in wrappers:
                        qual = f"{owners[value.__module__]}.{value.__name__}"
                        wrappers[id(value)] = self._wrap(value, qual)
                    self._patch(mod, attr, wrappers[id(value)])
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for meth, fn in list(vars(value).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        if inspect.isgeneratorfunction(fn):
                            continue  # a span would close before the work is done
                        qual = f"{owners[mod.__name__]}.{value.__name__}.{meth}"
                        self._patch(value, meth, self._wrap(fn, qual))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, qual: str):
        # the hot path of every traced call: locals only, one dict lookup per counter
        stack, active, work = self._stack, self._active, self.work
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        count = _COUNTERS.get(qual)
        builds_grid = qual in _GRID_BUILDERS
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            active[qual] += 1
            frame = [clock(), 0.0, work["mala_rows"]]  # start, child time, MALA rows so far
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                active[qual] -= 1
                calls[qual] += 1
                total_s[qual] += dur
                self_s[qual] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if builds_grid and not any(active[g] for g in _GRID_BUILDERS):
                    work["grid_build_s"] += dur
            if count is not None:
                count(self, args, kwargs, result, dur, frame[2])
            return result

        return traced

    # -- metrics --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the aggregates, taken when set-up ends."""
        return {k: dict(getattr(self, k)) for k in _AGGREGATES}

    def layer_metrics(self, setup: dict, rounds: int) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one average round."""
        agg = {}
        for key in _AGGREGATES:
            before, now = setup[key], getattr(self, key)
            agg[key] = {
                k: before.get(k, 0) + (v - before.get(k, 0)) / rounds for k, v in now.items()
            }
        total, own, work = agg["total_s"], agg["self_s"], agg["work"]

        def t(*quals):
            return sum(total.get(q, 0.0) for q in quals)

        def rate(num, den):
            return num / den if den > 0 else 0.0

        def layer_self(layer):
            return sum(v for q, v in own.items() if q.split(".", 1)[0] == layer)

        m = {
            "polybasis.sparse_eval_rows_per_s": rate(
                work.get("polybasis.PolyCoeffs.evaluate:rows", 0), t("polybasis.PolyCoeffs.evaluate")),
            "polybasis.suffstats_rows_per_s": rate(
                work.get("polybasis.eval_suffstats:rows", 0), t("polybasis.eval_suffstats")),
            "polybasis.jacobian_rows_per_s": rate(
                work.get("polybasis.eval_jacobian:rows", 0), t("polybasis.eval_jacobian")),
            "polybasis.laplacian_rows_per_s": rate(
                work.get("polybasis.eval_laplacian:rows", 0), t("polybasis.eval_laplacian")),
            "expfam.quad_nodes": work.get("quad_nodes", 0),
            "expfam.gate_s": t("expfam.convergence_gap"),
            "expfam.grid_build_s": work.get("grid_build_s", 0.0),
            "sampler.mala_steps": work.get("mala_steps", 0),
            "sampler.mala_steps_per_s": rate(work.get("mala_steps", 0), t("sampler.sample_mala")),
            "sampler.ess_per_step": rate(work.get("mala_ess", 0), work.get("mala_steps", 0)),
            "sampler.exact_draws_per_s": rate(
                work.get("exact_draws", 0), t("sampler.sample_exact_separable")),
            "estimators.sm_fit_s": t("estimators.fit_score_matching"),
            "estimators.sm_rows_per_s": rate(work.get("sm_rows", 0), t("estimators.fit_score_matching")),
            "estimators.sm_loss_s": t("estimators.sm_loss"),
            "estimators.mle_fit_s": t("estimators.fit_mle"),
            "estimators.mle_iters": work.get("mle_iters", 0),
            "estimators.mle_objective_evals": work.get("mle_objective_evals", 0),
            "fisher.audit_s": t("fisher.verify_bounds"),
            "fisher.fisher_info_s": t("fisher.fisher_info"),
            "fisher.gram_s": t("fisher.gram_matrix"),
            "fisher.moment_inputs_s": t("fisher.sm_moment_inputs"),
            "hardness.encode_s": t("hardness.encode"),
            "hardness.formula_poly_s": t("hardness.formula_poly"),
            "hardness.roots_s": t("hardness.verify_roots"),
            "hardness.vertices_per_s": rate(work.get("vertices", 0), t("hardness.verify_roots")),
            "hardness.experiments_s": t("hardness.zgap_experiment", "hardness.mean_sign_experiment",
                                        "hardness.orthant_mass"),
        }
        for n in (1, 2, 3):
            for kind in ("logz", "moments"):
                m[f"expfam.{kind}_nodes_per_s.n{n}"] = rate(
                    work.get(f"{kind}_nodes.n{n}", 0), work.get(f"{kind}_s.n{n}", 0.0))
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self(layer)
        return {name: float(m[name]) for name, _ in LAYER_METRICS}

    def table(self) -> dict[str, dict]:
        """Calls, total and self seconds per traced function."""
        return {
            q: {"calls": self.calls[q], "total_s": self.total_s[q], "self_s": self.self_s[q]}
            for q in sorted(self.calls)
        }


_AGGREGATES = ("calls", "total_s", "self_s", "work")


# Counters run after a traced call returns, as count(tracer, args, kwargs,
# result, duration, MALA rows counted when the call started).


def _count_rows(qual):
    def count(tr, args, kwargs, result, dur, _):
        tr.work[qual + ":rows"] += _rows(_arg(args, kwargs, 1, "x"))
    return count


def _count_nodes(kind, grid_pos, mle_objective=False):
    def count(tr, args, kwargs, result, dur, _):
        grid = _arg(args, kwargs, grid_pos, "grid")
        w = tr.work
        w["quad_nodes"] += grid.total_nodes
        w[f"{kind}_nodes.n{grid.n}"] += grid.total_nodes
        w[f"{kind}_s.n{grid.n}"] += dur
        if mle_objective and tr._active["estimators.fit_mle"]:
            w["mle_objective_evals"] += 1  # fit_mle's objective is one moments() call
    return count


def _count_result(key, get):
    def count(tr, args, kwargs, result, dur, _):
        tr.work[key] += get(result)
    return count


def _count_density_rows(tr, args, kwargs, result, dur, _):
    # under MALA: one proposal row per chain and step, plus each chain's start
    if tr._active["sampler.sample_mala"]:
        tr.work["mala_rows"] += _rows(_arg(args, kwargs, 1, "x"))


def _count_mala(tr, args, kwargs, result, dur, rows_at_start):
    chains = _arg(args, kwargs, 2, "config").chains
    tr.work["mala_steps"] += tr.work["mala_rows"] - rows_at_start - chains
    ess = result.provenance["parameters"]["ess"]
    tr.work["mala_ess"] += sum(ess) / len(ess)


def _count_mle_iterations(tr, args, kwargs, result, dur, _):
    for note in result.notes:
        if note.startswith("iterations="):
            tr.work["mle_iters"] += int(note.split("=", 1)[1])


_COUNTERS = {
    **{q: _count_rows(q) for q in _ROW_COUNTED},
    "expfam.quad_log_integral": _count_nodes("logz", 0),
    "expfam.quad_expectation": _count_nodes("moments", 0),
    "expfam.moments": _count_nodes("moments", 1, mle_objective=True),
    "expfam.log_unnormalized_density": _count_density_rows,
    "sampler.sample_mala": _count_mala,
    "sampler.sample_exact_separable": _count_result("exact_draws", lambda r: r.N),
    "estimators.fit_score_matching": _count_result("sm_rows", lambda r: r.N),
    "estimators.fit_mle": _count_mle_iterations,
    "hardness.verify_roots": _count_result("vertices", lambda r: r["vertices"]),
}
