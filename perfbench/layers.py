"""Fold a cProfile run of the ``repro`` package into a fixed layer taxonomy.

Every profiled function is charged to exactly one layer:

* functions of the ``repro`` package go to the layer of their module
  (:data:`MODULE_LAYERS`, longest prefix wins), except that state-digest
  functions go to ``fingerprint`` and snapshot/restore/serialise functions
  go to ``snapshot`` (:data:`FINGERPRINT_FUNCS`, :data:`SNAPSHOT_FUNCS`);
* ``pickle``/``copy`` (Python modules and the ``_pickle`` builtins) go to
  ``ipc``, unless a fingerprint or snapshot function called them, in which
  case the serialisation is part of that digest or snapshot;
* every other builtin, standard-library or third-party function (``max``,
  ``getattr``, ``dict.get``, ``enum``, numpy wrappers, ...) is charged to
  the layer that called it, split by the self time cProfile recorded on
  each caller edge;
* whatever is left -- ``repro`` modules outside the taxonomy (``obs``,
  ``workloads``, ...) and the benchmark's own frames -- is ``other``.

The profile is taken from the benchmark's own files around calls into the
public API; nothing in ``src/`` is instrumented.  cProfile charges a fixed
cost to every Python call, so tiny, frequently called functions (latch
``get``/``set``) read larger under tracing than they cost untraced; the
traced/untraced wall-time ratio is reported next to the shares for that
reason.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
from pathlib import Path

LAYERS = (
    "isa",
    "microarch.inorder", "microarch.ooo", "microarch.state",
    "microarch.memory", "microarch.execute", "microarch.flipflop",
    "microarch.core",
    "fingerprint", "snapshot",
    "engine.batch", "engine.replay", "engine.golden", "ipc",
    "faultinjection", "faultinjection.vulnerability",
    "core.heuristics", "core.schedule", "core.exploration",
    "physical", "resilience", "analysis.pareto",
    "other",
)

#: ``repro`` module path prefix -> layer; the longest matching prefix wins.
MODULE_LAYERS = {
    ("isa",): "isa",
    ("microarch",): "microarch.core",
    ("microarch", "inorder"): "microarch.inorder",
    ("microarch", "ooo"): "microarch.ooo",
    ("microarch", "state"): "microarch.state",
    ("microarch", "memory"): "microarch.memory",
    ("microarch", "execute"): "microarch.execute",
    ("microarch", "flipflop"): "microarch.flipflop",
    ("engine",): "engine.replay",
    ("engine", "batch"): "engine.batch",
    ("engine", "checkpoint"): "engine.golden",
    ("engine", "artifacts"): "engine.golden",
    ("faultinjection",): "faultinjection",
    ("faultinjection", "vulnerability"): "faultinjection.vulnerability",
    ("core",): "core.exploration",
    ("core", "heuristics"): "core.heuristics",
    ("core", "schedule"): "core.schedule",
    ("physical",): "physical",
    ("resilience",): "resilience",
    ("analysis", "pareto"): "analysis.pareto",
}

#: State-digest functions (any module of ``microarch``/``engine``).
FINGERPRINT_FUNCS = frozenset({
    "state_fingerprint", "rolling_fingerprint", "_fingerprint_header",
    "_fingerprint_microarchitecture", "_rolling_microarchitecture",
    "fingerprint_key", "fingerprint_digest", "fingerprint_digest_full",
    "_bank_payload", "_combined_page_digest", "_drop_fingerprint_caches",
    "fingerprint_rehash_count",
})

#: Snapshot, restore, resume and (de)serialise functions.
SNAPSHOT_FUNCS = frozenset({
    "snapshot", "restore", "resume", "serialize", "deserialize",
    "_snapshot_microarchitecture", "_restore_microarchitecture",
    "snapshot_words", "restore_words", "from_serialized", "lane_serialized",
    "_lane_snapshot",
})

_NAME_OVERRIDE_PACKAGES = ("microarch", "engine")
_IPC_MODULES = frozenset({"pickle.py", "copy.py", "copyreg.py"})
_IPC = "ipc"
_CALLER = None  # classification result: charge to the calling layer

_BENCH_DIR = Path(__file__).resolve().parent


@functools.lru_cache(maxsize=None)
def _repro_root() -> Path:
    import repro

    return Path(next(iter(repro.__path__))).resolve()


def _module_parts(filename: str) -> tuple[str, ...] | None:
    """Module path of ``filename`` inside the repro package, or None."""
    try:
        relative = Path(filename).resolve().relative_to(_repro_root())
    except ValueError:
        return None
    return relative.with_suffix("").parts


@functools.lru_cache(maxsize=None)
def classify(func: tuple) -> str | None:
    """The layer of one cProfile function key ``(file, line, name)``.

    Returns None for functions whose self time is charged to their caller.
    """
    filename, _, name = func
    if filename == "~":
        return _IPC if "_pickle" in name else _CALLER
    parts = _module_parts(filename)
    if parts is None:
        if os.path.basename(filename) in _IPC_MODULES \
                and "site-packages" not in filename:
            return _IPC
        if Path(filename).resolve().parent == _BENCH_DIR:
            return "other"
        return _CALLER
    if parts and parts[0] in _NAME_OVERRIDE_PACKAGES \
            and parts[-1] != "artifacts":
        if name in FINGERPRINT_FUNCS:
            return "fingerprint"
        if name in SNAPSHOT_FUNCS:
            return "snapshot"
    best = None
    for prefix, layer in MODULE_LAYERS.items():
        if parts[:len(prefix)] == prefix and (
                best is None or len(prefix) > len(best[0])):
            best = (prefix, layer)
    return best[1] if best else "other"


class LayerProfile:
    """Per-layer self time of one profiled region plus call statistics."""

    def __init__(self, stats: dict):
        self._stats = stats
        self._weights: dict[tuple, dict[str, float]] = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        for func, (_, _, self_time, _, _) in stats.items():
            weights = self._layer_weights(func, first_hop=True)
            for layer, share in weights.items():
                self.self_s[layer] += self_time * share

    @classmethod
    def capture(cls, fn, *args, **kwargs):
        """Run ``fn`` under cProfile; returns (result, LayerProfile)."""
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            result = fn(*args, **kwargs)
        finally:
            profiler.disable()
        return result, cls(pstats.Stats(profiler).stats)

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def share(self, layer: str) -> float:
        total = self.total_s
        return self.self_s[layer] / total if total else 0.0

    def _layer_weights(self, func: tuple, first_hop: bool = False,
                       _active: frozenset = frozenset()) -> dict[str, float]:
        """How ``func``'s self time splits over layers (weights sum to 1).

        On the first hop a caller-charged function splits by the self time
        recorded on each caller edge; further up the chain, by the
        cumulative time of each edge.
        """
        layer = classify(func)
        if layer not in (_CALLER, _IPC):
            return {layer: 1.0}
        key = (func, first_hop)
        cached = self._weights.get(key)
        if cached is not None:
            return cached
        callers = self._stats[func][4] if func in self._stats else {}
        active = _active | {func}
        mix: dict[str, float] = {}
        total = 0.0
        for caller, (_, _, edge_self, edge_cum) in callers.items():
            if caller in active:
                continue
            weight = edge_self if first_hop else edge_cum
            if weight <= 0:
                continue
            for caller_layer, share in self._layer_weights(
                    caller, _active=active).items():
                mix[caller_layer] = mix.get(caller_layer, 0.0) + weight * share
            total += weight
        if total <= 0:
            mix, total = {"other": 1.0}, 1.0
        weights = {name: value / total for name, value in mix.items()}
        if layer == _IPC:
            folded: dict[str, float] = {}
            for name, value in weights.items():
                target = name if name in ("fingerprint", "snapshot") else _IPC
                folded[target] = folded.get(target, 0.0) + value
            weights = folded
        self._weights[key] = weights
        return weights

    def calls(self, module: str, *names: str) -> int:
        """Primitive-inclusive call count of named functions of a ``repro``
        module (``module`` as a dotted path, e.g. ``"microarch.state"``)."""
        return sum(stat[1] for func, stat in self._matching(module, names))

    def cumulative_s(self, module: str, *names: str) -> float:
        """Cumulative (inclusive) traced time of named functions."""
        return sum(stat[3] for func, stat in self._matching(module, names))

    def _matching(self, module: str, names: tuple[str, ...]):
        wanted = tuple(module.split("."))
        for func, stat in self._stats.items():
            if func[2] in names and _module_parts(func[0]) == wanted:
                yield func, stat
