"""In-memory spans around the benchmark's calls into kgsampler modules.

A span is named ``<layer>.<call>``, where the layer is the kgsampler module
that does the work. Spans record start, end, the enclosing span and the
batch or query id (``unit``) they belong to; set-up spans have no unit.
Probe spans time extra calls made off the blocking path, so they never
count towards a layer's self time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, unit=None, probe: bool = False):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "unit": unit,
            "probe": probe,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict:
        """Seconds per layer: each span's duration minus what its children cover.

        Only spans of the measured loop count: set-up spans (no unit) and
        probe spans are left out.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        layers: dict = {}
        for s in self.spans:
            if s["probe"] or s["unit"] is None:
                continue
            layer = s["name"].split(".", 1)[0]
            own = s["end"] - s["start"] - covered[s["id"]]
            layers[layer] = layers.get(layer, 0.0) + own
        return layers

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
