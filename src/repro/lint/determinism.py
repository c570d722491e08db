"""DET rules: the codebase's outputs must be a function of its seeds.

Every guarantee the repo makes — byte-identical coalesced replies,
deterministic chaos replay, stable fingerprints, reproducible plans —
reduces to three source-level disciplines:

- randomness flows only through explicitly seeded generators
  (``np.random.default_rng(seed)`` or ``random.Random(seed)``), never
  the process-global ones (``DET001``);
- deterministic paths never read the wall clock; time is either a
  monotonic duration (``time.perf_counter``) or an injectable clock
  listed in the allowlist (``DET002``);
- nothing iterates an unordered set where the order can leak into
  output — set iteration order varies across processes under hash
  randomization, which is exactly the cross-shard situation the cluster
  runs in (``DET003``);
- deterministic modules construct no RNG state at import time — not
  even *seeded* state (``DET004``).  A module-level generator is shared
  mutable state: whichever import-order-dependent caller draws first
  shifts every later draw.  Seeded replay is the motivating case: a
  chaos run or a learned-stream replay must be byte-identical in every
  process, so ``repro.execution`` and ``repro.faults`` must hold no
  generator that an earlier import could already have advanced.
"""

from __future__ import annotations

import ast

from repro.lint.base import ModuleContext, iter_with_qualname
from repro.verify.diagnostics import Diagnostic

__all__ = ["check_determinism"]

# Process-global RNG entry points.  numpy's legacy global namespace is
# listed explicitly: `numpy.random.default_rng`, `Generator` methods and
# `SeedSequence` are the blessed seeded API.
_GLOBAL_RANDOM_CALLS = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.sample",
        "random.shuffle",
        "random.uniform",
        "random.gauss",
        "random.normalvariate",
        "random.expovariate",
        "random.betavariate",
        "random.gammavariate",
        "random.triangular",
        "random.vonmisesvariate",
        "random.getrandbits",
        "random.randbytes",
        "random.seed",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.randint",
        "numpy.random.random",
        "numpy.random.random_sample",
        "numpy.random.choice",
        "numpy.random.shuffle",
        "numpy.random.permutation",
        "numpy.random.uniform",
        "numpy.random.normal",
        "numpy.random.seed",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
    }
)

_WALLCLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "iter", "enumerate"})

# DET004: constructors/entry points that create or consume RNG state.
# At module level in a deterministic module, *any* of these — seeded or
# not — is import-time generator state.
_RNG_STATE_PREFIXES = ("numpy.random.",)
_RNG_STATE_CALLS = frozenset({"random.Random", "random.SystemRandom"})


def _is_set_expression(node: ast.AST, context: ModuleContext) -> bool:
    """Does ``node`` evaluate to a ``set``/``frozenset`` syntactically?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        callee = context.resolve(node.func)
        return callee in ("set", "frozenset")
    return False


def check_determinism(context: ModuleContext) -> list[Diagnostic]:
    findings: list[Diagnostic] = []
    config = context.config
    deterministic = config.is_deterministic_module(context.module)

    for node, qualname, _in_async in iter_with_qualname(context.tree):
        # DET001 — unseeded global RNG, anywhere in the codebase.
        if config.wants("DET001") and isinstance(node, ast.Call):
            callee = context.resolve(node.func)
            if callee in _GLOBAL_RANDOM_CALLS:
                findings.append(
                    context.finding(
                        "DET001",
                        node,
                        f"call to process-global RNG {callee}()",
                        hint="thread a seeded np.random.default_rng(seed) "
                        "or random.Random(seed) through instead",
                    )
                )
            elif (
                callee == "numpy.random.default_rng"
                and not node.args
                and not node.keywords
            ):
                findings.append(
                    context.finding(
                        "DET001",
                        node,
                        "np.random.default_rng() without a seed draws OS "
                        "entropy",
                        hint="pass an explicit seed (or a SeedSequence "
                        "derived from one)",
                    )
                )

        # DET004 — module-level RNG construction in deterministic
        # modules.  Fires on the import-time execution scope only
        # (qualname ""): a generator bound at module scope is shared
        # mutable state even when seeded, so no deterministic module may
        # create or consume any RNG at import.
        if (
            config.wants("DET004")
            and deterministic
            and qualname == ""
            and isinstance(node, ast.Call)
        ):
            callee = context.resolve(node.func)
            if callee is not None and (
                callee.startswith(_RNG_STATE_PREFIXES)
                or callee in _RNG_STATE_CALLS
            ):
                findings.append(
                    context.finding(
                        "DET004",
                        node,
                        f"module-level call to {callee}() creates RNG "
                        f"state at import time",
                        hint="construct generators inside the function "
                        "that needs them, seeded from an explicit "
                        "argument",
                    )
                )

        # DET002 — wall-clock reads inside deterministic paths.  Both
        # calls and bare references count: handing time.time somewhere
        # as a callback is a clock dependency too.  The allowlist names
        # the blessed injectable-clock seams by module:qualname.
        if (
            config.wants("DET002")
            and deterministic
            and isinstance(node, (ast.Attribute, ast.Name))
            and isinstance(getattr(node, "ctx", None), ast.Load)
        ):
            resolved = context.resolve(node)
            # Only report the outermost spelling of a chain: for
            # `time.time()` the Attribute node matches and its inner
            # Name node (`time`) does not resolve to a clock.
            if resolved in _WALLCLOCK and not config.allows_wallclock(
                context.module, qualname
            ):
                findings.append(
                    context.finding(
                        "DET002",
                        node,
                        f"wall-clock read {resolved} in deterministic "
                        f"path {context.module}",
                        hint="inject a clock callable (see Tracer's clock "
                        "parameter) or use time.perf_counter for durations",
                    )
                )

        # DET003 — iterating an unordered set where order is observable.
        if config.wants("DET003"):
            iterables: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                iterables.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                callee = context.resolve(node.func)
                if callee in _ORDER_SENSITIVE_CONSUMERS and node.args:
                    iterables.append(node.args[0])
            for iterable in iterables:
                if _is_set_expression(iterable, context):
                    findings.append(
                        context.finding(
                            "DET003",
                            iterable,
                            "iteration over an unordered set: order varies "
                            "under hash randomization",
                            hint="wrap the set in sorted(...) before "
                            "iterating",
                        )
                    )
    return findings
