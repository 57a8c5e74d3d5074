"""Experiment runner: overrides, two-tier caching and result envelopes.

:class:`Runner` executes :class:`~repro.experiments.registry.ExperimentSpec`\\ s
with validated parameter overrides and a **two-tier** content-keyed
cache: a per-instance in-memory dict in front of an optional persistent
:class:`~repro.experiments.store.ResultStore` on disk (one entry per
distinct ``(experiment, resolved-parameters, code fingerprint)``), so
``run_many``/``run_all`` never recompute a result two entry points
share — across processes and across sessions when a store is attached
— and module-level :func:`run_experiment` calls share one default
runner's cache.  ``run_all(workers=N)`` delegates to the
sharded multiprocess executor in :mod:`repro.experiments.parallel`;
``workers`` absent/0/1 is the exact serial identity path.

Every run returns an :class:`ExperimentResult` envelope: the spec, the
fully-resolved parameters and the payload, with a ``to_dict`` /
``to_json`` / ``from_json`` round-trip (via
:mod:`repro.experiments.artifacts`) and a ``summary()`` rendered with
:mod:`repro.experiments.reporting`.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.experiments import artifacts
from repro.experiments.registry import (
    REGISTRY,
    ExperimentRegistry,
    ExperimentSpec,
)
from repro.experiments.reporting import format_table
from repro.experiments.store import ResultStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import ProgressReporter


def _content_key(name: str, params: Mapping[str, Any]) -> str:
    return json.dumps(
        [name, artifacts.canonical_json(dict(sorted(params.items())))])


def _isolated(result: "ExperimentResult") -> "ExperimentResult":
    """A deep-copied view of a cached result (the spec is shared — it is
    frozen and carries only schema/functions)."""
    return ExperimentResult(spec=result.spec,
                            params=copy.deepcopy(result.params),
                            payload=copy.deepcopy(result.payload))


def _describe_value(value: Any) -> str:
    if isinstance(value, tuple) and len(value) > 6:
        head = ", ".join(f"{v:g}" for v in value[:4])
        return f"({head}, ... {len(value)} values)"
    return repr(value)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """One experiment run: spec, resolved parameters and payload.

    Equality is :meth:`equal` (numeric tolerance, NaN-aware) rather
    than ``==`` because payloads may hold NumPy arrays.
    """

    spec: ExperimentSpec
    params: Dict[str, Any] = field(default_factory=dict)
    payload: Any = None

    @property
    def name(self) -> str:
        """The experiment's registry name."""
        return self.spec.name

    def summary(self) -> str:
        """The paper's rows/series for this payload (plain text)."""
        if self.spec.summarize is not None:
            return self.spec.summarize(self.payload, self.params)
        rows = [[name, _describe_value(value)]
                for name, value in self.params.items()]
        rows.append(["payload", type(self.payload).__name__])
        return format_table(["parameter", "value"], rows,
                            title=f"{self.name} — {self.spec.title}")

    def check(self) -> None:
        """Run the spec's shape assertions against this payload."""
        if self.spec.check is not None:
            self.spec.check(self.payload, self.params)

    def equal(self, other: "ExperimentResult",
              tolerance: float = 1e-9) -> bool:
        """Same experiment, same parameters, equal payload."""
        return (self.name == other.name and
                artifacts.payload_equal(self.params, other.params, tolerance)
                and artifacts.payload_equal(self.payload, other.payload,
                                            tolerance))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (see :mod:`repro.experiments.artifacts`)."""
        return {
            "experiment": self.name,
            "title": self.spec.title,
            "tags": list(self.spec.tags),
            "params": {name: artifacts.encode(value)
                       for name, value in self.params.items()},
            "payload": artifacts.encode(self.payload),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialized :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  registry: Optional[ExperimentRegistry] = None
                  ) -> "ExperimentResult":
        """Rebuild a result; the spec is looked up in ``registry``."""
        registry = registry if registry is not None else REGISTRY
        spec = registry.get(data["experiment"])
        params = {name: artifacts.decode(value)
                  for name, value in data.get("params", {}).items()}
        # Re-validate: a hand-edited file with unknown/ill-typed
        # parameters fails here, not at the next run.
        params = spec.resolve(params)
        return cls(spec=spec, params=params,
                   payload=artifacts.decode(data["payload"]))

    @classmethod
    def from_json(cls, text: str,
                  registry: Optional[ExperimentRegistry] = None
                  ) -> "ExperimentResult":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text), registry=registry)


class Runner:
    """Executes registered experiments with overrides and caching.

    ``store`` attaches the persistent disk tier: a
    :class:`~repro.experiments.store.ResultStore` instance or a
    directory path for one.  Lookups go memory → store → compute, and
    every computed (or externally :meth:`absorb`\\ ed) result is written
    back through both tiers.
    """

    def __init__(self, registry: Optional[ExperimentRegistry] = None,
                 cache: bool = True,
                 store: Optional[Union[ResultStore, str, Any]] = None) -> None:
        self.registry = registry if registry is not None else REGISTRY
        self._cache_enabled = bool(cache)
        self._cache: Dict[str, ExperimentResult] = {}
        self._hits = 0
        self._misses = 0
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store, registry=self.registry)
        self.store: Optional[ResultStore] = store

    def _remember(self, key: str, result: ExperimentResult,
                  write_store: bool = True) -> None:
        if self._cache_enabled:
            self._cache[key] = result
        if write_store and self.store is not None:
            self.store.put(result)

    def absorb(self, result: ExperimentResult) -> None:
        """Adopt an externally computed result into both cache tiers.

        The parallel executor calls this with results its worker
        processes computed, so the parent runner's memory cache and
        store end up exactly as if :meth:`run` had computed them here.
        """
        key = _content_key(result.name, result.params)
        self._remember(key, _isolated(result))

    def resolved_params(self, name: str, smoke: bool = False,
                        **overrides: Any) -> Dict[str, Any]:
        """The fully-resolved parameter dict :meth:`run` would use."""
        return self.registry.get(name).resolve(overrides, smoke=smoke)

    def cached(self, name: str, smoke: bool = False,
               **overrides: Any) -> bool:
        """Would :meth:`run` be served from a cache tier right now?"""
        params = self.resolved_params(name, smoke=smoke, **overrides)
        key = _content_key(name, params)
        if self._cache_enabled and key in self._cache:
            return True
        return self.store is not None and (name, params) in self.store

    def run(self, name: str, smoke: bool = False,
            **overrides: Any) -> ExperimentResult:
        """Run one experiment.

        ``overrides`` are validated against the spec's parameter schema
        (unknown names and ill-typed values raise
        :class:`~repro.experiments.registry.ParameterError`).  With
        ``smoke=True`` the spec's smoke profile is applied first, then
        the overrides.  Identical ``(name, resolved params)`` runs are
        served from the memory cache, then from the store (when one is
        attached), and only computed on a full miss.
        """
        spec = self.registry.get(name)
        params = spec.resolve(overrides, smoke=smoke)
        key = _content_key(name, params)
        if self._cache_enabled and key in self._cache:
            self._hits += 1
            return _isolated(self._cache[key])
        if self.store is not None:
            stored = self.store.get(name, params)
            if stored is not None:
                # Promote to the memory tier; no write-back needed.
                self._remember(key, stored, write_store=False)
                return _isolated(stored)
        result = ExperimentResult(spec=spec, params=params,
                                  payload=spec.run(params))
        if self._cache_enabled or self.store is not None:
            self._misses += 1
            self._remember(key, result)
            # Hand out a copy so a caller mutating a payload (dicts
            # inside the frozen dataclasses are mutable) cannot poison
            # the cached pristine result.
            return _isolated(result)
        return result

    def run_many(self, names: Iterable[str], smoke: bool = False,
                 **overrides: Any) -> List[ExperimentResult]:
        """Run several experiments, sharing the cache (and, underneath,
        the memoized scenario/surface construction) across them."""
        return [self.run(name, smoke=smoke, **overrides) for name in names]

    def run_all(self, tag: Optional[str] = None,
                smoke: bool = False,
                workers: Optional[int] = None,
                overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
                progress: Optional["ProgressReporter"] = None,
                mp_context: Optional[str] = None) -> List[ExperimentResult]:
        """Run every registered experiment, optionally one tag's worth.

        ``workers > 1`` shards the suite across a multiprocess worker
        pool (see :mod:`repro.experiments.parallel`); results come back
        in registry order and are bit-identical to the serial path.
        ``workers`` absent, 0 or 1 *is* the serial path — no pool is
        created.  ``overrides`` maps experiment names to per-experiment
        parameter overrides; ``progress`` receives claim/finish events
        (the CLI's live progress line).
        """
        specs = self.registry.all(tag)
        by_name = dict(overrides or {})
        for name in by_name:
            self.registry.get(name)  # unknown names fail loudly
        if workers is not None and workers > 1 and len(specs) > 1:
            from repro.experiments.parallel import run_all_parallel
            return run_all_parallel(self, specs, smoke=smoke,
                                    workers=workers, overrides=by_name,
                                    progress=progress,
                                    mp_context=mp_context)
        results = []
        for spec in specs:
            spec_overrides = dict(by_name.get(spec.name, {}))
            if progress is not None:
                progress.claim(spec.name)
                cached = self.cached(spec.name, smoke=smoke,
                                     **spec_overrides)
                with progress.timed(spec.name,
                                    "cached" if cached else "ok"):
                    results.append(self.run(spec.name, smoke=smoke,
                                            **spec_overrides))
            else:
                results.append(self.run(spec.name, smoke=smoke,
                                        **spec_overrides))
        return results

    @property
    def cache_info(self) -> Tuple[int, int, int]:
        """``(hits, misses, entries)`` of the in-memory cache tier."""
        return (self._hits, self._misses, len(self._cache))

    def clear_cache(self, store: bool = False) -> None:
        """Drop every cached result (``store=True`` clears disk too)."""
        self._cache.clear()
        self._hits = 0
        self._misses = 0
        if store and self.store is not None:
            self.store.clear()


_DEFAULT_RUNNER: Optional[Runner] = None


def default_runner() -> Runner:
    """The process-wide :class:`Runner` behind :func:`run_experiment`."""
    global _DEFAULT_RUNNER
    if _DEFAULT_RUNNER is None:
        _DEFAULT_RUNNER = Runner()
    return _DEFAULT_RUNNER


def run_experiment(name: str, smoke: bool = False,
                   **overrides: Any) -> ExperimentResult:
    """Run ``name`` on the default runner (cache shared process-wide)."""
    return default_runner().run(name, smoke=smoke, **overrides)


__all__ = [
    "ExperimentResult",
    "Runner",
    "default_runner",
    "run_experiment",
]
