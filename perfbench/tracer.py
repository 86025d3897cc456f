"""Per-layer tracing of chi_dlog from outside the package.

Every public function of the measured modules is wrapped, and the wrapper is
bound under each name a caller uses to look it up: `qft_apply`, for example,
is reached through both `chi_dlog.dlog` and `chi_dlog.chi`, so both bindings
are replaced. Spans live in memory as [name, start_ns, end_ns, parent, run,
cache] and are written out as JSONL only when the repetition ends. Nothing is
imported or patched unless a tracer is installed, so untraced repetitions run
the package exactly as shipped.
"""
from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = ("group", "qstate", "transforms", "chi", "dlog")

# the lru_cache'd builders; a call that raises the miss count is a build
CACHED = ("fourier_matrix", "div_alpha_permutation", "div_x_permutation",
          "power_oracle_permutation")
TABLES = CACHED[1:]


class Tracer:
    """Collects spans for one repetition; install() before, uninstall() after."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._runs = 0
        self._restore: list[tuple[object, str, object]] = []
        self._mul_calls = [0]
        self.originals: dict[str, object] = {}

    def _wrap(self, name: str, fn, cache=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self._runs += 1
            idx = len(spans)
            span = [name, 0, 0, parent, self._runs, None]
            spans.append(span)
            stack.append(idx)
            misses = cache.cache_info().misses if cache is not None else 0
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if cache is not None:
                    span[5] = "miss" if cache.cache_info().misses > misses else "hit"
        return wrapper

    def _rebind(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        from chi_dlog.chi import ChiHandle
        from chi_dlog.group import GroupSpec

        bindings = [m for name, m in sys.modules.items()
                    if name == "chi_dlog" or name.startswith("chi_dlog.")]
        for layer in LAYERS:
            module = sys.modules[f"chi_dlog.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not callable(fn) or isinstance(fn, type) \
                        or getattr(fn, "__module__", None) != module.__name__:
                    continue
                self.originals[attr] = fn
                wrapped = self._wrap(f"{layer}.{attr}", fn,
                                     fn if attr in CACHED else None)
                for owner in bindings:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._rebind(owner, key, wrapped)
        self._rebind(ChiHandle, "verify",
                     self._wrap("chi.ChiHandle.verify", ChiHandle.__dict__["verify"]))

        real_mul = GroupSpec.__dict__["mul"]
        calls = self._mul_calls

        def counted_mul(spec, a, b):
            calls[0] += 1
            return real_mul(spec, a, b)
        self._rebind(GroupSpec, "mul", counted_mul)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @property
    def mul_calls(self) -> int:
        return self._mul_calls[0]

    def cache_stats(self) -> dict[str, tuple[int, int, int]]:
        """(hits, misses, currsize) of each lru_cache'd builder."""
        out = {}
        for name in CACHED:
            info = self.originals[name].cache_info()
            out[name] = (info.hits, info.misses, info.currsize)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run, cache in self.spans:
                rec = {"name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "run": run}
                if cache is not None:
                    rec["cache"] = cache
                fh.write(json.dumps(rec) + "\n")

    # -- per-layer sums ----------------------------------------------------

    def outer_s(self, *names: str) -> float:
        """Seconds inside the named spans, not counting them twice when nested."""
        wanted = set(names)
        spans = self.spans
        total = 0
        for name, start, end, parent, _run, _cache in spans:
            if name not in wanted:
                continue
            while parent != -1 and spans[parent][0] not in wanted:
                parent = spans[parent][3]
            if parent == -1:
                total += end - start
        return total / 1e9

    def build_s(self, *names: str) -> float:
        """Seconds inside cached-builder calls that missed."""
        wanted = set(names)
        return sum(s[2] - s[1] for s in self.spans
                   if s[0] in wanted and s[5] == "miss") / 1e9

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_s(self, name: str) -> float:
        """Seconds inside the named spans minus the time their children cover."""
        spans = self.spans
        own = {i: s[2] - s[1] for i, s in enumerate(spans) if s[0] == name}
        for s in spans:
            if s[3] in own:
                own[s[3]] -= s[2] - s[1]
        return sum(own.values()) / 1e9
