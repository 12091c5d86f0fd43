"""Spans recorded from outside the program, by wrapping layer functions.

Each function in `SITES` is replaced, in the module that looks it up, by a
wrapper that records one span: name, start, end and the span that was open
when it was called (its parent). Spans stay in memory until `write`.
Exceptions pass through unchanged; the span keeps the exception's class.

The program is single-threaded per process, so one stack gives the parent.
Pool workers are not traced: the traced run uses one worker.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path


def _text_bytes(text: str) -> int:
    return len(text.encode("utf-8"))


def _scene_bytes(args) -> int | None:
    """Bytes of a scene file written by `write_text_atomic(path, text)`;
    None for the other files (the manifest)."""
    return _text_bytes(args[1]) if Path(args[0]).name.startswith("scene_") else None


# (module looked up in, attribute, span name, value recorded from (args, result))
SITES = [
    ("synthesis", "generate_scene", "synthesis.generate_scene", None),
    ("synthesis", "astar_plan", "planner.astar_plan", None),
    ("synthesis", "refine_trajectory", "refine.refine_trajectory", None),
    ("synthesis", "apply_transform", "augment.apply_transform", None),
    ("synthesis", "sample_transform_params", "augment.sample_transform_params", None),
    ("synthesis", "crop_map", "maps.crop_map", lambda a, r: len(r.lanes)),
    ("synthesis", "validate_scene", "synthesis.validate_scene", None),
    ("synthesis", "scene_to_text", "synthesis.scene_to_text", lambda a, r: _text_bytes(r)),
    ("synthesis", "write_text_atomic", "maps.write_text_atomic", lambda a, r: _scene_bytes(a)),
    ("synthesis", "parse_map_lines", "maps.parse_map_lines", None),
    ("maps", "build_reference_path", "maps.build_reference_path", None),
    ("maps", "resample_polyline", "geometry.resample_polyline", None),
    ("maps", "curvature_profile", "geometry.curvature_profile", None),
    ("cli", "read_scene", "synthesis.read_scene", None),
    ("cli", "scene_to_text", "synthesis.scene_to_text", lambda a, r: _text_bytes(r)),
    ("cli", "parse_run_config", "cli.parse_run_config", None),
    ("pretrain", "vectorize_scene", "pretrain.vectorize_scene", lambda a, r: len(r)),
    ("pretrain", "mask_map", "pretrain.mask_map", None),
    ("pretrain", "mask_trajectory", "pretrain.mask_trajectory", None),
    ("pretrain", "sample_to_text", "pretrain.sample_to_text", lambda a, r: _text_bytes(r)),
    ("pretrain", "write_sample", "pretrain.write_sample", None),
    ("analysis", "speed_distribution", "analysis.speed_distribution", None),
    ("analysis", "heading_distribution", "analysis.heading_distribution", None),
    ("analysis", "compare_distributions", "analysis.compare_distributions", None),
    ("analysis", "write_histogram_table", "analysis.write_histogram_table", None),
    ("analysis", "render_histogram_svg", "analysis.render_histogram_svg", None),
]


@dataclass
class Span:
    sid: int
    parent: int  # 0 for a root span
    name: str
    start_ns: int
    end_ns: int
    value: float | None = None
    error: str | None = None

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack = [0]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, value=None, error=None) -> None:
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append(Span(sid, parent, name, t0, t1, value, error))

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` inside a span called `name`; used for whole commands."""
        sid, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, name, t0)

    def _wrap(self, fn, name, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, parent, name, t0, error=type(exc).__name__)
                raise
            self._close(sid, parent, name, t0)
            if measure is not None:
                self.spans[-1].value = measure(args, result)
            return result

        return traced

    def install(self, modules: dict[str, object]) -> None:
        for mod_name, attr, name, measure in SITES:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, measure))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time (ns) of each span: its duration minus the part of its
    interval covered by its children, each child clipped to the parent."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, cursor), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = (s.end_ns - s.start_ns) - covered
    return out

