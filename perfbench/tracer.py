"""In-memory span recorder that wraps egoek's public functions from outside.

Nothing under ``src/`` is edited: each wrapper replaces a module attribute at
the place where its caller looks the name up, records one span per call and
restores the original on exit.  Spans carry a name, start and end
(``time.perf_counter``), the id of the span that caused them and the ensemble
member they work on.  Calls made on the pipeline's pool threads have no open
span of their own thread, so they take the innermost open ``pipeline.*`` span
as parent.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    member: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "member": self.member,
        }


class Recorder:
    """Thread-safe span store; spans stay in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._pool_parent: int | None = None

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, member=None, pool_parent=False):
        """Run ``fn`` inside a span; returns (result, span)."""
        with self._lock:
            self._next_id += 1
            sid = self._next_id
            outer_pool_parent = self._pool_parent
        stack = self._stack()
        if stack:
            parent, parent_member = stack[-1]
        else:
            parent, parent_member = outer_pool_parent, None
        if member is None:
            member = parent_member
        stack.append((sid, member))
        if pool_parent:
            with self._lock:
                self._pool_parent = sid
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if pool_parent:
                with self._lock:
                    self._pool_parent = outer_pool_parent
        span = Span(sid, name, start, end, parent, member)
        with self._lock:
            self.spans.append(span)
        return result, span


def _member_arg(position):
    def get(args, kwargs):
        return args[position] if len(args) > position else kwargs.get("member")

    return get


def _member_attr(args, kwargs):
    return getattr(args[0], "member", None) if args else None


def _threads_attr(args, kwargs, result, span):
    span.attrs["threads"] = kwargs.get("threads", 1)


def _plan_attrs(args, kwargs, result, span):
    span.attrs["plan"] = result


def _eig_attrs(args, kwargs, result, span):
    span.attrs["dimension"] = result.dimension


def _cumulative_attrs(args, kwargs, result, span):
    span.attrs["points"] = args[0]
    span.attrs["q"] = args[1]


def _periodogram_attrs(args, kwargs, result, span):
    span.attrs["samples"] = result.n_samples
    span.attrs["frequencies"] = len(result.frequency)


def _file_bytes(args, kwargs, result, span):
    span.attrs["bytes"] = os.path.getsize(args[0])


def _wrap_table(egoek):
    """(module, attribute, span name, member getter, attrs hook, pool parent).

    Each row patches the attribute its caller looks up: ``pipeline`` binds
    ``build_member``, ``eigenvalues`` and ``moments`` by name, ``ensemble``
    binds ``enumerate_basis``, ``fluctuations`` binds
    ``smooth_distribution_values``, and ``decomposition``, ``cli`` and
    ``pipeline`` reach the other modules through their module attributes.
    """
    ens, pipe, dc = egoek.ensemble, egoek.pipeline, egoek.decomposition
    fl, pg, arc, qh = egoek.fluctuations, egoek.periodogram, egoek.archive, egoek.qhermite
    return [
        (ens, "enumerate_basis", "fock.enumerate_basis", None, None, False),
        (ens, "build_embedding_plan", "ensemble.plan", None, _plan_attrs, False),
        (ens, "sample_kbody", "ensemble.sample_kbody", _member_arg(1), None, False),
        (ens, "embed", "ensemble.embed", _member_attr, None, False),
        (pipe, "build_member", "ensemble.build_member", _member_arg(1), None, False),
        (pipe, "eigenvalues", "spectra.eigvalsh", _member_attr, _eig_attrs, False),
        (pipe, "moments", "spectra.moments", _member_attr, None, False),
        (arc, "write_archive", "archive.write", None, _file_bytes, False),
        (arc, "read_archive", "archive.read", None, _file_bytes, False),
        (qh, "cumulative_weighted_integrals", "qhermite.cumulative", None, _cumulative_attrs, False),
        (dc, "decompose_member", "decomposition.decompose_member", _member_attr, None, False),
        (dc, "fit_smooth_model", "decomposition.fit_smooth_model", _member_attr, None, False),
        (fl, "smooth_distribution_values", "decomposition.smooth_values", None, None, False),
        (fl, "unfold", "fluctuations.unfold", _member_attr, None, False),
        (fl, "nnsd", "fluctuations.nnsd", None, None, False),
        (fl, "delta3", "fluctuations.delta3", None, None, False),
        (pg, "lomb_scargle", "periodogram.lomb_scargle", None, _periodogram_attrs, False),
        (pipe, "generate_archive", "pipeline.generate_archive", None, _threads_attr, True),
        (pipe, "decompose_archive", "pipeline.decompose_archive", None, _threads_attr, True),
        (pipe, "periodograms_by_order", "pipeline.periodograms_by_order", None, None, True),
        (pipe, "unfolded_ensemble", "pipeline.unfolded_ensemble", None, None, True),
    ]


class Tracing:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, recorder: Recorder, egoek):
        self.recorder = recorder
        self._table = _wrap_table(egoek)
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, attr, name, member_of, attrs_of, pool_parent in self._table:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name, member_of, attrs_of, pool_parent))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []
        return False

    def _wrapper(self, fn, name, member_of, attrs_of, pool_parent):
        recorder = self.recorder

        def traced(*args, **kwargs):
            member = member_of(args, kwargs) if member_of else None
            result, span = recorder.call(name, fn, args, kwargs, member, pool_parent)
            if attrs_of:
                attrs_of(args, kwargs, result, span)
            return result

        traced.__wrapped__ = fn
        return traced


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its children cover, per span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - _covered(children.get(s.sid, []), s.start, s.end) for s in spans
    }


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (p in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_factor_count(q: float, floor: float) -> int:
    """Factors in qhermite's truncated tail product (0 on the Gaussian path)."""
    count, qi = 0, q
    while 0.0 < q < 1.0 and qi >= floor:
        count += 1
        qi *= q
    return count


def mesh_panel_count(points, q: float, qhermite) -> int:
    """Quadrature panels of one cumulative-integral call (0 on the Gaussian path).

    Rebuilds the mesh that ``qhermite.cumulative_weighted_integrals`` builds:
    a uniform angular base grid merged with the angles of the points.
    """
    import numpy as np

    if q >= 1.0:
        return 0
    x0 = qhermite.support_halfwidth(q)
    theta = np.arcsin(np.clip(np.asarray(points, dtype=float) / x0, -1.0, 1.0))
    n_base = min(32769, max(2049, int(8.0 * x0) + 1))
    base = np.linspace(-math.pi / 2.0, math.pi / 2.0, n_base)
    return len(np.union1d(base, theta)) - 1


_MEMBER_PARENTS = ("pipeline.generate_archive", "pipeline.decompose_archive")


def layer_metrics(spans: list[Span], egoek) -> dict[str, float]:
    """Per-layer figures from one run's spans.

    ``*_s`` are summed self times, ``*_ms.p50``/``*_ms.p90`` are per-call
    inclusive durations, counts are exact, and rates divide a count computed
    from array sizes by the matching summed time.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum(own[s.sid] for s in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    def per_call_ms(name, p):
        durations = [1e3 * s.duration for s in by_name.get(name, [])]
        return percentile(durations, p) if durations else 0.0

    out: dict[str, float] = {}
    for name in (
        "fock.enumerate_basis", "ensemble.plan", "ensemble.sample_kbody", "ensemble.embed",
        "spectra.eigvalsh", "spectra.moments", "archive.write", "archive.read",
        "qhermite.cumulative", "decomposition.decompose_member",
        "decomposition.fit_smooth_model", "decomposition.smooth_values",
        "periodogram.lomb_scargle", "fluctuations.unfold", "fluctuations.nnsd",
        "fluctuations.delta3", "pipeline.generate_archive", "pipeline.decompose_archive",
        "pipeline.periodograms_by_order", "pipeline.unfolded_ensemble",
    ):
        out[f"{name}_s"] = total(name)
    for name in ("ensemble.embed", "spectra.eigvalsh", "decomposition.decompose_member",
                 "periodogram.lomb_scargle"):
        out[f"{name}_ms.p50"] = per_call_ms(name, 50)
        out[f"{name}_ms.p90"] = per_call_ms(name, 90)

    out["spectra.moments_calls"] = calls("spectra.moments")
    out["qhermite.cumulative_calls"] = calls("qhermite.cumulative")
    out["decomposition.fit_calls"] = calls("decomposition.fit_smooth_model")
    out["periodogram.calls"] = calls("periodogram.lomb_scargle")

    plans = [s.attrs["plan"] for s in by_name.get("ensemble.plan", [])]
    updates = sum(len(a_idx) ** 2 for a_idx, _g, _w in plans[0].groups) if plans else 0
    out["ensemble.plan_updates"] = updates
    embed_s = out["ensemble.embed_s"]
    out["ensemble.embed_updates_per_s"] = (
        updates * calls("ensemble.embed") / embed_s if embed_s else 0.0
    )

    eig = by_name.get("spectra.eigvalsh", [])
    flops = sum(4.0 / 3.0 * s.attrs["dimension"] ** 3 for s in eig)
    eig_s = sum(s.duration for s in eig)
    out["spectra.eigvalsh_gflops"] = flops / eig_s / 1e9 if eig_s else 0.0

    out["archive.bytes"] = sum(
        s.attrs["bytes"] for n in ("archive.write", "archive.read") for s in by_name.get(n, [])
    )

    cumulative = by_name.get("qhermite.cumulative", [])
    qh = egoek.qhermite
    if cumulative:
        out["qhermite.tail_factors"] = statistics.median(
            tail_factor_count(s.attrs["q"], qh.PRODUCT_FLOOR) for s in cumulative
        )
        out["qhermite.mesh_panels"] = statistics.median(
            mesh_panel_count(s.attrs["points"], s.attrs["q"], qh) for s in cumulative
        )
    else:
        out["qhermite.tail_factors"] = out["qhermite.mesh_panels"] = 0

    trig = sum(
        4 * s.attrs["samples"] * s.attrs["frequencies"]
        for s in by_name.get("periodogram.lomb_scargle", [])
    )
    out["periodogram.trig_evals"] = trig
    ls_s = out["periodogram.lomb_scargle_s"]
    out["periodogram.trig_evals_per_s"] = trig / ls_s if ls_s else 0.0

    # Member work is the inclusive time of the spans directly under a
    # generate/decompose pipeline span, wherever the pool ran them.
    busy, capacity = 0.0, 0.0
    by_id = {s.sid: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.name in _MEMBER_PARENTS:
            busy += s.duration
    for name in _MEMBER_PARENTS:
        capacity += sum(s.attrs["threads"] * s.duration for s in by_name.get(name, []))
    out["pipeline.parallel_efficiency"] = busy / capacity if capacity else 0.0

    out["cli.output_s"] = sum(own[s.sid] for s in spans if s.name.startswith("cli."))
    out["trace.spans"] = len(spans)
    return out
