"""Outside-in tracing of fsvi: an in-memory span recorder and the wrappers
that feed it.

The program is not edited. `Instrumentation` replaces functions at the
module attributes their callers look them up through (for example
`fsvi.fit.scg_maximise`, which `fit` calls) and model methods on the
classes that define them, with thin wrappers that open and close a span.
`undo()` puts every original back.

Each span records its name, start, end, parent and the number of draw rows
it was handed. A span's self time is its duration minus the durations of
its direct children; self times are summed per layer, so the layers plus
the untraced remainder add up to the traced wall time.
"""

import importlib
import os
import time
from array import array

import numpy as np

import fsvi
import fsvi.baselines
import fsvi.experiments
from fsvi import models as fsvi_models

# The package re-exports the function `fit` under the submodule's name.
fit_module = importlib.import_module("fsvi.fit")

# Likelihood methods: the `models` layer. Prediction methods are scoring
# work and are counted under `evaluate`.
_POINTWISE = ("log_lik", "grad_log_lik")
_BATCHED = (
    "log_lik_batch",
    "grad_log_lik_batch",
    "grad_model_params_batch",
    "residual_sq_batch",
)
_PREDICT = ("predict", "predict_batch", "reconstruct")

_MODEL_CLASSES = (
    fsvi_models.TargetModel,
    fsvi_models.GaussianNoiseModel,
    fsvi_models.RbfRegressionModel,
    fsvi_models.LogisticModel,
    fsvi_models.SoftmaxModel,
    fsvi_models.SkewTarget,
    fsvi_models.GaussianTarget,
    fsvi_models.CauchyPpcaModel,
    fsvi_models.SpectrumDecayModel,
    fsvi.baselines.MlPpcaFit,
)

# Module-level functions: (module, attribute, span name, layer category).
_FUNCTIONS = (
    (fsvi.experiments, "run_experiment", "experiments.run_experiment", "experiments"),
    (fsvi.experiments, "spectrum_mse_benchmark", "experiments.spectrum_mse_benchmark",
     "experiments"),
    (fsvi.experiments, "monitor_generalisation", "fit.monitor_generalisation", "fit"),
    (fit_module, "update_alpha", "bound.update_alpha", "bound"),
    (fit_module, "update_beta", "bound.update_beta", "bound"),
    (fsvi.experiments, "laplace_approximation", "baselines.laplace_approximation",
     "baselines.laplace"),
    # Every Laplace objective and finite-difference Hessian column calls this.
    (fsvi.baselines, "_log_joint_and_grad", "baselines.log_joint", "baselines.laplace"),
    (fsvi.experiments, "exact_blr_posterior", "baselines.exact_blr_posterior",
     "baselines.other"),
    (fsvi.experiments, "ml_ppca_fit", "baselines.ml_ppca_fit", "baselines.other"),
    (fsvi.experiments, "kld_numerical_2d", "evaluate.kld_numerical_2d", "evaluate.kld"),
    (fsvi.experiments, "gaussian_logdensity_fn", "evaluate.gaussian_logdensity_fn",
     "evaluate.kld"),
    (fsvi.experiments, "reconstruction_error", "evaluate.reconstruction_error",
     "evaluate.predict"),
    (fsvi.experiments, "mc_accuracy", "evaluate.mc_accuracy", "evaluate.predict"),
)

# Self-time buckets; their sum plus `trace.other_s` is the traced wall time.
SELF_TIME_METRICS = (
    ("models.self_s", ("models",)),
    ("bound.self_s", ("bound",)),
    ("scg.self_s", ("scg",)),
    ("fit.self_s", ("fit",)),
    ("baselines.laplace_s", ("baselines.laplace",)),
    ("baselines.other_s", ("baselines.other",)),
    ("evaluate.kld_s", ("evaluate.kld",)),
    ("evaluate.predict_s", ("evaluate.predict",)),
    ("io.s", ("io",)),
    ("experiments.self_s", ("experiments",)),
)


class SpanRecorder:
    """Spans kept in flat arrays until the run ends."""

    def __init__(self):
        self.names = []
        self.categories = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self._stack = [-1]
        self.counters = {}
        # (n_samples, n_holdout) of the fits currently open.
        self.fit_sizes = []

    def name_id(self, name, category):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.categories.append(category)
        return nid

    def open(self, nid, rows=0):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.rows.append(rows)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def count(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def span_arrays(self):
        """Name ids, parents, durations and self times as numpy arrays."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(
            self.start, dtype=float
        )
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return name, parent, dur, dur - child

    def write_csv(self, path):
        """Write every span as one CSV row (times relative to the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as handle:
            handle.write("id,parent,name,start_s,end_s,rows\n")
            for i in range(len(self.name)):
                handle.write(
                    f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self.rows[i]}\n"
                )


def _span(rec, name, category, fn, rows_of=None):
    nid = rec.name_id(name, category)

    def wrapped(*args, **kwargs):
        i = rec.open(nid, rows_of(args) if rows_of else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)

    return wrapped


def _fit_sizes(args, kwargs):
    config = args[1] if len(args) > 1 else kwargs.get("config")
    config = config or fsvi.FitConfig()
    return config.n_samples, config.n_holdout


class Instrumentation:
    """Installs the tracing wrappers into fsvi; `undo` restores the originals."""

    def __init__(self, rec):
        self.rec = rec
        self._saved = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        rec = self.rec
        for module, attr, name, category in _FUNCTIONS:
            self._set(module, attr, _span(rec, name, category, getattr(module, attr)))
        self._install_io(rec)
        self._install_fit(rec)
        self._install_scg(rec, fit_module, "bound")
        self._install_scg(rec, fsvi.baselines, None)
        for cls in _MODEL_CLASSES:
            for meth in _POINTWISE + _BATCHED + _PREDICT:
                fn = cls.__dict__.get(meth)
                if fn is None or getattr(fn, "__isabstractmethod__", False):
                    continue
                if meth in _PREDICT:
                    category, rows_of = "evaluate.predict", None
                elif meth in _POINTWISE:
                    category, rows_of = "models", _one_row
                else:
                    category, rows_of = "models", _batch_rows
                span_name = f"models.{cls.__name__}.{meth}"
                self._set(cls, meth, _span(rec, span_name, category, fn, rows_of))

    def undo(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _install_io(self, rec):
        for attr, path_index in (("write_csv", 0), ("save_posterior", 2)):
            inner = _span(rec, f"io.{attr}", "io", getattr(fsvi.experiments, attr))

            def wrapped(*args, _inner=inner, _at=path_index, **kwargs):
                out = _inner(*args, **kwargs)
                path = args[_at] if len(args) > _at else kwargs["path"]
                rec.count("io.bytes", os.path.getsize(path))
                return out

            self._set(fsvi.experiments, attr, wrapped)

    def _install_fit(self, rec):
        inner = _span(rec, "fit.fit", "fit", fsvi.experiments.fit)

        def fit(*args, **kwargs):
            rec.fit_sizes.append(_fit_sizes(args, kwargs))
            try:
                report = inner(*args, **kwargs)
            finally:
                rec.fit_sizes.pop()
            rec.count("fit.outer_iters", report.iterations)
            return report

        self._set(fsvi.experiments, "fit", fit)

        train_id = rec.name_id("bound.lower_bound_fs", "bound")
        hold_id = rec.name_id("bound.lower_bound_fs.holdout", "bound")
        bound = fit_module.lower_bound_fs

        def lower_bound_fs(model, post, hyper, samples):
            n_train, n_hold = rec.fit_sizes[-1] if rec.fit_sizes else (0, 0)
            held_out = samples.size == n_hold and n_hold != n_train
            i = rec.open(hold_id if held_out else train_id)
            try:
                return bound(model, post, hyper, samples)
            finally:
                rec.close(i)

        self._set(fit_module, "lower_bound_fs", lower_bound_fs)

    def _install_scg(self, rec, module, objective_category):
        inner = _span(rec, "scg.scg_maximise", "scg", module.scg_maximise)

        def scg_maximise(fun, *args, **kwargs):
            if objective_category is not None:
                block = fun.__qualname__.split(".")[0].lstrip("_")
                fun = _span(rec, f"bound.objective.{block}", objective_category, fun)
            result = inner(fun, *args, **kwargs)
            rec.count("scg.iters", result.iterations)
            rec.count("scg.evals", result.n_evals)
            return result

        self._set(module, "scg_maximise", scg_maximise)


def _one_row(args):
    return 1


def _batch_rows(args):
    return len(args[1])


def layer_metrics(rec, n_rounds, wall_s):
    """Per-round layer metrics from the spans of `n_rounds` traced rounds.

    `wall_s` is the mean wall time of a traced round.
    """
    name, parent, dur, self_t = rec.span_arrays()
    rows = np.frombuffer(rec.rows, dtype=np.int64)

    def spans(pred):
        by_name = [pred(n, c) for n, c in zip(rec.names, rec.categories)]
        return np.array(by_name, dtype=bool)[name]

    def per_round(x):
        return float(x) / n_rounds

    out = {}
    layer_sum = 0.0
    for metric, cats in SELF_TIME_METRICS:
        value = per_round(self_t[spans(lambda n, c: c in cats)].sum())
        out[metric] = value
        layer_sum += value

    def of_parent(span_flags):
        # Index -1 (no parent) reads the appended False.
        return np.append(span_flags, False)[parent]

    model = spans(lambda n, c: c == "models")
    objective = spans(lambda n, c: n.startswith("bound.objective."))
    outer_model = model & ~of_parent(model)
    lower_bound = spans(lambda n, c: n.startswith("bound.lower_bound_fs"))
    holdout = spans(lambda n, c: n == "bound.lower_bound_fs.holdout")
    pointwise = spans(lambda n, c: c == "models" and n.rsplit(".", 1)[1] in _POINTWISE)
    fits = spans(lambda n, c: n == "fit.fit")

    model_rows = int(rows[outer_model].sum())
    out["models.calls"] = per_round(outer_model.sum())
    out["models.rows"] = per_round(model_rows)
    out["models.ns_per_row"] = (
        1e9 * out["models.self_s"] / out["models.rows"] if model_rows else 0.0
    )
    n_objective = int(objective.sum())
    out["models.passes_per_eval"] = (
        float((outer_model & of_parent(objective)).sum()) / n_objective
        if n_objective else 0.0
    )
    out["models.pointwise_calls"] = per_round(pointwise.sum())

    evals = n_objective + int(lower_bound.sum())
    out["bound.evals"] = per_round(evals)
    out["bound.us_per_eval"] = (
        1e6 * out["bound.self_s"] / out["bound.evals"] if evals else 0.0
    )

    counters = rec.counters
    scg_iters = counters.get("scg.iters", 0)
    out["scg.blocks"] = per_round(spans(lambda n, c: n == "scg.scg_maximise").sum())
    out["scg.iters"] = per_round(scg_iters)
    out["scg.evals_per_iter"] = (
        counters.get("scg.evals", 0) / scg_iters if scg_iters else 0.0
    )

    outer = counters.get("fit.outer_iters", 0)
    out["fit.calls"] = per_round(fits.sum())
    out["fit.outer_iters"] = per_round(outer)
    out["fit.ms_per_outer_iter"] = (
        1e3 * float(dur[fits].sum()) / outer if outer else 0.0
    )
    out["fit.holdout_s"] = per_round(dur[holdout].sum())

    out["baselines.laplace_evals"] = per_round(
        spans(lambda n, c: n == "baselines.log_joint").sum()
    )
    out["io.bytes"] = per_round(counters.get("io.bytes", 0))

    out["trace.wall_s"] = wall_s
    out["trace.other_s"] = wall_s - layer_sum
    return out
