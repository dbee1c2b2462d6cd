"""Process-wide operator/factorization cache for preconditioner setups.

The Schwarz-family preconditioners front-load real work: the 1-D
generalized eigendecompositions of the FDM, the per-element eigenvalue
tensors, the overlap counting weights and the coarse-grid factorization
are all pure functions of the discretization -- ``(mesh geometry, p)`` --
yet the seed implementation rebuilt them for every
:class:`~repro.precond.hsmg.HybridSchwarzMultigrid` instance.  One
simulation hides that behind the time loop; a sweep service running many
solves on the same mesh (ROADMAP item 3) pays it per job.

This module provides the factorization-cache pattern of Firedrake's
``FDMPC`` (see SNIPPETS.md): a process-wide LRU cache keyed on

    (mesh_hash, p, operator)

where ``mesh_hash`` fingerprints the *actual nodal geometry* (SHA-256 of
the GLL coordinate bytes), so any mesh perturbation -- a single corner
moved by one ulp -- produces a different key and can never alias a cached
factorization (collide-proofness is part of the cache-correctness test
suite).  Builders are deterministic, so a cache hit returns operators
bitwise identical to a cold build; entries are immutable (ndarray
buffers are marked read-only) and eviction only drops the cache's own
reference -- objects holding evicted entries keep working, which is what
makes a capacity cap safe under solves still in progress.

Observability: hits/misses/evictions/build seconds are counters on each
cache, read directly or as the JSON-ready :meth:`OperatorCache.report`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Literal

import numpy as np

__all__ = [
    "CacheKey",
    "OperatorCache",
    "array_signature",
    "space_signature",
    "mask_fingerprint",
    "global_cache",
    "resolve_cache",
    "reset_global_cache",
]


def array_signature(*arrays: np.ndarray) -> str:
    """SHA-256 fingerprint of the raw bytes of one or more arrays.

    Shapes and dtypes are folded in so ``(2, 3)`` and ``(3, 2)`` views of
    the same buffer cannot collide.
    """
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def space_signature(space: Any) -> str:
    """Geometry fingerprint of a :class:`~repro.sem.space.FunctionSpace`.

    Hashes the GLL nodal coordinates (which capture the mesh, any curved
    element maps and the polynomial grid), the element count and the
    global dof count (which captures periodic identification: a periodic
    and a non-periodic box share coordinates but not connectivity).  The
    result is memoized on the space instance -- the hash walks a few
    hundred kilobytes and must not run once per preconditioner build.
    """
    cached = getattr(space, "_cache_signature", None)
    if cached is not None:
        return str(cached)
    h = hashlib.sha256()
    h.update(array_signature(space.x, space.y, space.z).encode())
    h.update(f"lx={space.lx};nelv={space.nelv};ndofs={space.n_dofs}".encode())
    sig = h.hexdigest()
    space._cache_signature = sig
    return sig


def mask_fingerprint(mask: np.ndarray | None) -> str:
    """Short fingerprint of an optional Dirichlet mask (``none`` when absent)."""
    if mask is None:
        return "none"
    return array_signature(np.asarray(mask))[:16]


@dataclass(frozen=True)
class CacheKey:
    """The cache key: discretization signature x operator.

    ``operator`` names the builder and folds in any further input, e.g.
    the coarse solver's Dirichlet-mask fingerprint.
    """

    mesh_hash: str
    p: int
    operator: str

    @classmethod
    def for_space(cls, space: Any, operator: str) -> "CacheKey":
        return cls(
            mesh_hash=space_signature(space),
            p=int(space.lx) - 1,
            operator=operator,
        )


def _freeze(value: Any) -> Any:
    """Mark every ndarray reachable in ``value`` read-only (shallow walk).

    Cached entries are shared across preconditioner instances; an
    accidental in-place update in one solve would silently corrupt every
    other holder.  Read-only buffers turn that bug into an immediate
    ``ValueError``.
    """
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)
    elif isinstance(value, dict):
        for item in value.values():
            _freeze(item)
    return value


class OperatorCache:
    """Bounded, thread-safe LRU cache of operator/factorization setups.

    Parameters
    ----------
    capacity:
        Maximum number of entries; the least recently used entry is
        evicted beyond it.  Eviction drops only the cache's reference --
        live preconditioners holding the entry are unaffected.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[CacheKey, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.build_seconds = 0.0

    # -- core ----------------------------------------------------------------

    def get_or_build(self, key: CacheKey, builder: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building (and storing) on miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
        t0 = perf_counter()
        value = _freeze(builder())
        self.build_seconds += perf_counter() - t0
        with self._lock:
            self.misses += 1
            # A concurrent builder may have won the race; keep the
            # stored entry so every holder shares one buffer set.
            if key not in self._entries:
                self._entries[key] = value
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
            value = self._entries[key]
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop all entries (counters are kept; use :meth:`reset_stats`)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.build_seconds = 0.0

    # -- reporting -------------------------------------------------------------

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def report(self) -> dict[str, Any]:
        """JSON-ready snapshot (the CI artifact format)."""
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate(),
            "build_seconds": self.build_seconds,
            "keys": [
                {
                    "mesh_hash": k.mesh_hash[:12],
                    "p": k.p,
                    "operator": k.operator,
                }
                for k in self._entries
            ],
        }


_GLOBAL_CACHE = OperatorCache()


def global_cache() -> OperatorCache:
    """The process-wide cache shared by all preconditioner setups."""
    return _GLOBAL_CACHE


def reset_global_cache(capacity: int | None = None) -> OperatorCache:
    """Replace the process-wide cache (tests; capacity reconfiguration)."""
    global _GLOBAL_CACHE
    _GLOBAL_CACHE = OperatorCache(capacity=capacity or 64)
    return _GLOBAL_CACHE


def resolve_cache(cache: OperatorCache | Literal[False] | None) -> OperatorCache:
    """Normalize the ``cache=`` convention used across ``repro.precond``.

    ``None`` -> the process-wide cache; ``False`` -> a fresh private cache
    (a cold build shared with nobody: the oracle the cache-correctness
    tests compare hits against); an :class:`OperatorCache` -> itself.
    """
    if cache is None:
        return _GLOBAL_CACHE
    if cache is False:
        return OperatorCache()
    return cache
