"""Per-layer tracing of one triline CLI process, from outside the package.

Run as a script, it wraps the module attributes that triline's own code
looks up (``series`` calls ``triline.series.pairing_census``, ``knots``
calls ``triline.knots.canonical_code``, ...), so calls made inside the
package are seen.  It then runs one argv through ``triline.cli.main``, keeps
every span in memory (name, start, end, parent) and writes them to a JSON
file when the process ends::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json knots --kmax 3

Imported, ``layer_metrics`` turns span files into the per-layer metrics.
Census pool workers are not traced: the census span covers the whole
parallel fold.
"""
from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  Each name that a caller looks up is
# wrapped on its own, so a function reached through two modules is seen
# once per call.
HOOKS = (
    ("triline.cli", "main", "cli.main"),
    ("triline.cli", "_emit", "cli.emit"),
    ("triline.series", "pairing_census", "census"),
    ("triline.cli", "assemble_Z", "series.assemble"),
    ("triline.cli", "connected_assemble", "series.assemble"),
    ("triline.series", "connected_assemble", "series.assemble"),
    ("triline.cli", "formal_log", "series.formal_log"),
    ("triline.cli", "extract_Flp", "series.extract_Flp"),
    ("triline.series", "extract_Flp", "series.extract_Flp"),
    ("triline.cli", "double_limit_check", "series.double_limit"),
    ("triline.cli", "planar_loop_counts", "series.planar_counts"),
    ("triline.cli", "enumerate_matchings", "diagrams.enumerate"),
    ("triline.knots", "enumerate_matchings", "diagrams.enumerate"),
    ("triline.series", "enumerate_matchings", "diagrams.enumerate"),
    ("triline.cli", "components_and_genus", "diagrams.genus"),
    ("triline.knots", "components_and_genus", "diagrams.genus"),
    ("triline.series", "components_and_genus", "diagrams.genus"),
    ("triline.cli", "enumerate_knot_diagrams", "knots.enumerate"),
    ("triline.cli", "knot_record", "knots.record"),
    ("triline.knots", "to_gauss_code", "knots.gauss_code"),
    ("triline.knots", "canonical_code", "knots.canonical"),
    ("triline.knots", "reduce_R1", "knots.reduce_R1"),
    ("triline.oracle", "OracleCovariance", "oracle.covariance"),
    ("triline.cli", "gaussian_oracle_moment", "oracle.moment"),
    ("triline.cli", "richardson_limit", "oracle.richardson"),
    ("triline.cli", "wick_moment", "gaussian.wick_moment"),
    ("triline.cli", "wick_order_quartic", "gaussian.wick_order_quartic"),
    ("triline.cli", "propagator", "gaussian.propagator"),
)
# Generators: the span runs from the call to exhaustion and interleaves
# with its consumer, so it counts rows and is nobody's child for self time.
STREAMS = {"diagrams.enumerate"}
SCHEMA = 1


class Tracer:
    """Spans as lists [name id, start, end, parent index, info or None]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _call(self, fn, name: str):
        nid, spans, stack = self._name_id(name), self.spans, self._stack
        census = name == "census"

        def wrapper(*args, **kwargs):
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if census:
                k = args[0] if args else kwargs["k"]
                span[4] = {"k": k, "rows": sum(result.values())}
            return result
        return wrapper

    def _stream(self, fn, name: str):
        nid, spans, stack = self._name_id(name), self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [nid, perf_counter(), 0.0, stack[-1] if stack else -1,
                    {"rows": 0}]
            spans.append(span)
            rows = 0
            try:
                for item in fn(*args, **kwargs):
                    rows += 1
                    yield item
            finally:
                span[2] = perf_counter()
                span[4] = {"rows": rows}
        return wrapper

    def install(self) -> None:
        for module, attr, name in HOOKS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrap = self._stream if name in STREAMS else self._call
            setattr(mod, attr, wrap(fn, name))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": SCHEMA, "names": self.names,
                       "missing_hooks": self.missing, "spans": self.spans},
                      fh, separators=(",", ":"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(paths) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced job, and the hooks that were missing.

    A span's self time is its duration minus that of its direct children
    (they nest and do not overlap: one thread per process).
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    rows: dict[str, int] = defaultdict(int)
    census_k: dict[int, list] = defaultdict(lambda: [0.0, 0])   # k -> [s, rows]
    missing: set[str] = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"{path}: unknown span schema {doc.get('schema')}")
        names, spans = doc["names"], doc["spans"]
        missing.update(doc["missing_hooks"])
        child_s = [0.0] * len(spans)
        for nid, start, end, parent, _ in spans:
            if parent >= 0 and names[nid] not in STREAMS:
                child_s[parent] += end - start
        for i, (nid, start, end, _, info) in enumerate(spans):
            name = names[nid]
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child_s[i]
            if info:
                rows[name] += info["rows"]
            if name == "census":
                entry = census_k[info["k"]]
                entry[0] += end - start
                entry[1] = info["rows"]
    distinct_rows = sum(entry[1] for entry in census_k.values())
    m = {
        "census.calls": calls["census"],
        "census.s": total["census"],
        "census.rows": rows["census"],
        "census.rows_per_s": _ratio(rows["census"], total["census"]),
        "census.k5.s": census_k[5][0] if 5 in census_k else 0.0,
        "census.dup_ratio": _ratio(rows["census"], distinct_rows),
        "series.assemble.self_s": self_s["series.assemble"],
        "series.formal_log.s": total["series.formal_log"],
        "series.extract_Flp.s": total["series.extract_Flp"],
        "series.double_limit.s": total["series.double_limit"],
        "series.planar_counts.self_s": self_s["series.planar_counts"],
        "diagrams.enumerate.rows": rows["diagrams.enumerate"],
        "diagrams.genus.calls": calls["diagrams.genus"],
        "diagrams.genus.s": total["diagrams.genus"],
        "diagrams.genus_per_pairing": _ratio(calls["diagrams.genus"],
                                             rows["diagrams.enumerate"]),
        "knots.enumerate.self_s": self_s["knots.enumerate"],
        "knots.gauss_code.s": total["knots.gauss_code"],
        "knots.canonical.calls": calls["knots.canonical"],
        "knots.canonical.s": total["knots.canonical"],
        "knots.reduce_R1.s": total["knots.reduce_R1"],
        "knots.canonical_per_code": _ratio(calls["knots.canonical"],
                                           calls["knots.record"]),
        "oracle.covariance.builds": calls["oracle.covariance"],
        "oracle.covariance.s": total["oracle.covariance"],
        "oracle.moment.calls": calls["oracle.moment"],
        "oracle.moment.s": total["oracle.moment"],
        "oracle.richardson.calls": calls["oracle.richardson"],
        "oracle.richardson.s": total["oracle.richardson"],
        "gaussian.wick_moment.calls": calls["gaussian.wick_moment"],
        "gaussian.wick_moment.s": total["gaussian.wick_moment"],
        "gaussian.wick_order_quartic.s": total["gaussian.wick_order_quartic"],
        "gaussian.propagator.calls": calls["gaussian.propagator"],
        "cli.self_s": self_s["cli.main"],
        "cli.emit.s": total["cli.emit"],
    }
    return m, sorted(missing)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    import triline.cli
    try:
        return triline.cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
