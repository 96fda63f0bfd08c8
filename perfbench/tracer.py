"""In-memory span tracer that wraps swissmc's public functions in place.

swissmc modules import names directly (``from .linalg import eigh``), and the
harness and CLI dispatch combiners through ``_COMBINE`` dicts, so wrapping a
function at its defining module alone would miss most calls.  ``install``
therefore replaces the function at every module attribute and every
module-level dict entry of the package that refers to it, and ``uninstall``
puts the originals back.

A span is ``[name, start, end, parent, tag]`` with ``parent`` the index of the
enclosing span (-1 at the root) and ``tag`` an optional per-call number (the
dimension of a combine call, the bytes of a file, the iterations of a chain).
The hot per-iteration call (``TargetModel.log_density``) is aggregated into a
counter of calls and seconds instead of one span per call.

Chains run in pool worker processes.  The job function the pool pickles
(``sampler._sample_one``) is wrapped so that the spans and counters recorded
inside one job travel back on the returned batch; the ``sample_all_batches``
wrapper then adopts them under its own span.  Timestamps are
``time.perf_counter``, a system-wide monotonic clock on Linux, so worker
spans line up with the parent's.
"""

from __future__ import annotations

import functools
import os
import sys
import time

_perf = time.perf_counter

# Attribute that carries a job's spans back from a worker on its SampleBatch.
_SHIP_ATTR = "_perfbench_trace"


def _combine_dim(args, kwargs, result):
    return result.combined.shape[1]


def _chain_iterations(args, kwargs, result):
    config = args[2]
    return config.burn_in + config.n_samples * config.thin


def _path_size(args, kwargs, result):
    return os.path.getsize(args[0])


# (module, function, span name, tag) for every wrapped public function.
SPANS = (
    ("swissmc.harness", "run_experiment", "harness.run_experiment", None),
    ("swissmc.harness", "_run_repetition", "harness.repetition", None),
    ("swissmc.harness", "bench_dimension_scaling", "harness.bench_dimension_scaling", None),
    ("swissmc.cli", "cli_main", "cli.main", None),
    ("swissmc.cli", "_cmd_combine", "cli.combine", None),
    ("swissmc.cli", "_cmd_evaluate", "cli.evaluate", None),
    ("swissmc.sampler", "sample", "sampler.chain", _chain_iterations),
    ("swissmc.targets", "simulate_rare_feature_data", "targets.simulate", None),
    ("swissmc.targets", "gaussian_conjugate_suite", "targets.conjugate_suite", None),
    ("swissmc.linalg", "eigh", "linalg.eigh", None),
    ("swissmc.linalg", "cholesky", "linalg.cholesky", None),
    ("swissmc.linalg", "spd_roots", "linalg.spd_roots", None),
    ("swissmc.linalg", "spd_inverse", "linalg.spd_inverse", None),
    ("swissmc.linalg", "spsq", "linalg.spsq", None),
    ("swissmc.linalg", "draw_gaussian", "linalg.draw_gaussian", None),
    ("swissmc.moments", "estimate_moments", "moments.estimate", None),
    ("swissmc.moments", "pool_moments", "moments.pool", None),
    ("swissmc.moments", "consensus_pool", "moments.pool", None),
    ("swissmc.combiners", "swiss_combine", "combiners.swiss", _combine_dim),
    ("swissmc.combiners", "consensus_combine", "combiners.consensus", _combine_dim),
    ("swissmc.combiners", "ar_combine", "combiners.ar", _combine_dim),
    ("swissmc.combiners", "barycenter_combine", "combiners.barycenter", _combine_dim),
    ("swissmc.metrics", "iad", "metrics.iad", None),
    ("swissmc.metrics", "mahalanobis", "metrics.mahalanobis", None),
    ("swissmc.metrics", "skew_deviation", "metrics.skew", None),
    ("swissmc.io", "read_batch", "io.read", None),
    ("swissmc.io", "read_sample_csv", "io.read", _path_size),
    ("swissmc.io", "read_json", "io.read", _path_size),
    ("swissmc.io", "write_batch", "io.write", None),
    ("swissmc.io", "write_sample_csv", "io.write", _path_size),
    ("swissmc.io", "write_json", "io.write", _path_size),
)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}  # name -> [calls, seconds]
        self.chains: list = []  # SampleBatch of every chain the run produced
        self._stack: list = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, _perf(), 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _perf()
        self._stack.pop()

    def _span(self, name, fn, tag=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if tag is not None:
                self.spans[index][4] = tag(args, kwargs, result)
            if after is not None:
                after(index, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = counters.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += _perf() - start

        return wrapper

    def _shipped_job(self, fn):
        """Wrap the pool job so its spans and counters ride home on its result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark = len(self.spans)
            before = {k: list(v) for k, v in self.counters.items()}
            outer, self._stack = self._stack, []
            index = self._open("sampler.job")
            try:
                result = fn(*args, **kwargs)
                self._close(index)
                spans = [
                    [n, s, e, p - mark if p >= mark else -1, t]
                    for n, s, e, p, t in self.spans[mark:]
                ]
                delta = {
                    k: [v[0] - before.get(k, (0, 0.0))[0], v[1] - before.get(k, (0, 0.0))[1]]
                    for k, v in self.counters.items()
                }
                setattr(result, _SHIP_ATTR, (spans, delta))
                return result
            finally:
                self._stack = outer
                del self.spans[mark:]
                self.counters.clear()
                self.counters.update(before)

        return wrapper

    def _adopt_jobs(self, index, batches) -> None:
        for batch in batches:
            shipped = batch.__dict__.pop(_SHIP_ATTR, None)
            self.chains.append(batch)
            if shipped is None:  # the job ran in a process that never saw the wrappers
                continue
            spans, delta = shipped
            base = len(self.spans)
            for name, start, end, parent, tag in spans:
                self.spans.append([name, start, end, index if parent < 0 else parent + base, tag])
            for name, (calls, seconds) in delta.items():
                entry = self.counters.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += seconds

    def _keep_full_chain(self, index, batch) -> None:
        parent = self.spans[index][3]
        if parent < 0 or self.spans[parent][0] != "sampler.job":
            self.chains.append(batch)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "swissmc"]
        by_name = {m.__name__: m for m in modules}
        for module_name, attr, span_name, tag in SPANS:
            original = getattr(by_name[module_name], attr)
            after = self._keep_full_chain if span_name == "sampler.chain" else None
            self._replace(modules, original, self._span(span_name, original, tag, after))
        sampler = by_name["swissmc.sampler"]
        self._replace(modules, sampler._sample_one, self._shipped_job(sampler._sample_one))
        phase = sampler.sample_all_batches
        phase_wrapper = self._span("sampler.shard_phase", phase, after=self._adopt_jobs)
        self._replace(modules, phase, phase_wrapper)
        model = by_name["swissmc.targets"].TargetModel
        self._undo.append((model, "log_density", model.log_density, False))
        model.log_density = self._counter("targets.log_density", model.log_density)

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((module, key, original, False))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for entry, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, entry, original, True))
                            value[entry] = wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original, is_dict = self._undo.pop()
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)


# -- reading a trace -------------------------------------------------------


def _self_times(spans) -> list:
    """Span duration minus the part of its interval its child spans cover."""
    children = [[] for _ in spans]
    for name, start, end, parent, tag in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for (name, start, end, parent, tag), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for kid_start, kid_end in sorted(kids):
            kid_start, kid_end = max(kid_start, reach), min(kid_end, end)
            if kid_end > kid_start:
                covered += kid_end - kid_start
                reach = kid_end
        result.append(end - start - covered)
    return result


def _outermost(spans, match) -> list:
    """Indices of matching spans that have no matching ancestor."""
    inside = [False] * len(spans)
    chosen = []
    for i, (name, start, end, parent, tag) in enumerate(spans):
        if parent >= 0:
            inside[i] = inside[parent] or match(spans[parent][0])
        if match(name) and not inside[i]:
            chosen.append(i)
    return chosen


def layer_metrics(tracer: Tracer, workers: int) -> dict:
    """Per-layer numbers of one traced workload run (values only, no units).

    Combiner metrics appear only for the combiners and dimensions that ran.
    """
    spans = tracer.spans
    names = [s[0] for s in spans]
    duration = [s[2] - s[1] for s in spans]
    selfs = _self_times(spans)

    def total(name):
        return sum(d for n, d in zip(names, duration) if n == name)

    def count(name):
        return sum(1 for n in names if n == name)

    def ancestor(i, name):
        parent = spans[i][3]
        while parent >= 0:
            if names[parent] == name:
                return True
            parent = spans[parent][3]
        return False

    chains = [i for i, n in enumerate(names) if n == "sampler.chain"]
    full = [i for i in chains if not ancestor(i, "sampler.job")]
    shard = [i for i in chains if ancestor(i, "sampler.job")]
    full_s = sum(duration[i] for i in full)
    full_iters = sum(spans[i][4] for i in full)
    shard_s = sum(duration[i] for i in shard)
    shard_iters = sum(spans[i][4] for i in shard)
    window = [i for i, n in enumerate(names) if n in ("sampler.chain", "sampler.shard_phase")]
    sampling_wall = (
        max(spans[i][2] for i in window) - min(spans[i][1] for i in window) if window else 0.0
    )
    accept = [b.diagnostics["acceptance_rate"] for b in tracer.chains if b.diagnostics]
    log_density = tracer.counters.get("targets.log_density", [0, 0.0])

    def io_total(kind):
        return sum(duration[i] for i in _outermost(spans, lambda n: n == f"io.{kind}"))

    def io_bytes(kind):
        return sum(s[4] or 0 for s in spans if s[0] == f"io.{kind}")

    read_s, write_s = io_total("read"), io_total("write")
    read_bytes, write_bytes = io_bytes("read"), io_bytes("write")
    out = {
        "sampler.full_chain_s": full_s,
        "sampler.shard_phase_s": total("sampler.shard_phase"),
        "sampler.us_per_iter_full": 1e6 * full_s / full_iters if full_iters else 0.0,
        "sampler.us_per_iter_shard": 1e6 * shard_s / shard_iters if shard_iters else 0.0,
        "sampler.iterations": full_iters + shard_iters,
        "sampler.core_busy_frac": (
            (full_s + shard_s) / (workers * sampling_wall) if sampling_wall else 0.0
        ),
        "sampler.accept_rate_min": min(accept) if accept else 0.0,
        "targets.log_density_calls": log_density[0],
        "targets.log_density_s": log_density[1],
        "targets.simulate_s": total("targets.simulate"),
        "targets.conjugate_suite_s": total("targets.conjugate_suite"),
        "linalg.eigh_calls": count("linalg.eigh"),
        "linalg.eigh_s": total("linalg.eigh"),
        "linalg.cholesky_calls": count("linalg.cholesky"),
        "linalg.cholesky_s": total("linalg.cholesky"),
        "moments.estimate_s": total("moments.estimate"),
        "moments.pool_s": total("moments.pool"),
        "metrics.iad_s": total("metrics.iad"),
        "metrics.mahalanobis_s": total("metrics.mahalanobis"),
        "metrics.skew_s": total("metrics.skew"),
        "io.read_s": read_s,
        "io.write_s": write_s,
        "io.bytes_read": read_bytes,
        "io.bytes_written": write_bytes,
        "io.read_mb_per_s": read_bytes / read_s / 1e6 if read_s else 0.0,
        "io.write_mb_per_s": write_bytes / write_s / 1e6 if write_s else 0.0,
        "harness.self_s": sum(t for n, t in zip(names, selfs) if n.startswith("harness.")),
        "cli.combine_s": total("cli.combine"),
        "cli.evaluate_s": total("cli.evaluate"),
        "cli.self_s": sum(t for n, t in zip(names, selfs) if n.startswith("cli.")),
    }
    eighs = [i for i, n in enumerate(names) if n == "linalg.eigh"]
    for name in sorted({n for n in names if n.startswith("combiners.")}):
        calls = [i for i, n in enumerate(names) if n == name]
        out[f"{name}_s"] = sum(duration[i] for i in calls)
        for i in calls:
            key = f"{name}_s.d{spans[i][4]}"
            out[key] = out.get(key, 0.0) + duration[i]
        out[f"{name}.eigh_calls"] = sum(1 for i in eighs if ancestor(i, name)) / len(calls)
    return out
