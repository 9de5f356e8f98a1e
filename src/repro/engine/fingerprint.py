"""Structural identity of plans and expressions.

Every Expr / PlanNode has one structural key: its type name and its
sorted fields, each field value reduced to plain Python values with
every expression or plan node inside it replaced by *that* node's key.
The key is independent of object identity — two plans built separately
for the same query key equal — and it is the one identity behind every
cache key in the engine: :func:`plan_fingerprint` (the result cache)
and the rollup layer's ``expr_key`` / ``source_key`` (the semantic cache)
all derive from it.

:func:`structural_key` is the hashed form: a node's children enter as
their own digests, so each node hashes a few fields, whatever the depth
below it. Plan nodes and expressions are immutable, so each keeps its
digest once computed, in a slot that attribute walkers do not see and
that a rebuilt node (``dataclasses.replace``, a re-bound literal) does
not inherit: re-keying a plan that shares all but one spine with a keyed
plan costs that spine only. :func:`nested_key` is the spelled-out form,
children nested as tuples, for callers that sort keys. Both walks are
iterative, so a flat chain of thousands of conjuncts keys without
touching the recursion limit.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .expr import Expr, Literal
from .operators.aggregate import AggSpec
from .plan import PlanNode, Q

__all__ = ["nested_key", "plan_fingerprint", "structural_key"]

_KEYED = (Expr, PlanNode)


def _fields(obj) -> list:
    # Underscored attributes are caches (``Like._regex``), not structure.
    return sorted(item for item in vars(obj).items() if item[0][0] != "_")


def _parts(value, out: list) -> list:
    """The expressions and plan nodes directly inside one field value."""
    if isinstance(value, _KEYED):
        out.append(value)
    elif isinstance(value, Q):
        _parts(value.node, out)
    elif isinstance(value, AggSpec):
        _parts(value.expr, out)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _parts(item, out)
    elif isinstance(value, dict):
        for item in value.items():
            _parts(item, out)
    return out


def _leaf(value, child):
    """One field value as plain values, each node in it as ``child(node)``."""
    if isinstance(value, _KEYED):
        return child(value)
    if isinstance(value, Q):
        return _leaf(value.node, child)
    if isinstance(value, AggSpec):
        return ("AggSpec", value.func, _leaf(value.expr, child))
    if isinstance(value, (tuple, list)):
        return tuple([_leaf(item, child) for item in value])
    if isinstance(value, dict):
        return tuple([(_leaf(k, child), _leaf(v, child)) for k, v in value.items()])
    # Numpy scalars key like the Python values they equal: lit(np.int64(5))
    # and lit(5) are the same query.
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return _leaf(value.tolist(), child)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _key_all(obj, known, child, store) -> None:
    """Key every node under ``obj`` that is not ``known``, children first."""
    stack = _parts(obj, [])
    while stack:
        node = stack[-1]
        if known(node):
            stack.pop()
            continue
        fields = _fields(node)
        pending = [
            part for _, value in fields for part in _parts(value, [])
            if not known(part)
        ]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        store(node, (type(node).__name__,
                     *[(name, _leaf(value, child)) for name, value in fields]))


def _digest(node) -> str:
    return node._skey


def _keep_digest(node, key) -> None:
    object.__setattr__(
        node, "_skey", hashlib.sha256(repr(key).encode()).hexdigest()
    )


def _has_digest(node) -> bool:
    return hasattr(node, "_skey")


def structural_key(obj) -> object:
    """The hashed structural key of a plan or expression (a hex digest),
    or of a value holding some (a tuple)."""
    _key_all(obj, _has_digest, _digest, _keep_digest)
    return _leaf(obj, _digest)


def nested_key(obj, fold_ints: bool = False) -> object:
    """The structural key with every child spelled out as a nested tuple,
    so keys sort by structure. ``fold_ints`` keys integral numeric
    literals as floats (the rollup layer's measure identity)."""
    memo: dict[int, tuple] = {}

    def store(node, key):
        if fold_ints and isinstance(node, Literal):
            value = key[1][1]
            if isinstance(value, int) and not isinstance(value, bool):
                key = (key[0], ("value", float(value)))
        memo[id(node)] = key

    def child(node):
        return memo[id(node)]

    _key_all(obj, lambda node: id(node) in memo, child, store)
    return _leaf(obj, child)


def plan_fingerprint(plan: "Q | PlanNode") -> str:
    """Hex digest uniquely identifying the plan's structure: the result
    cache's key. Settings are not part of it — each executor owns its
    cache and runs under one set of gates, so results computed under
    different configurations live in different caches."""
    return hashlib.sha256(repr(structural_key(plan)).encode()).hexdigest()
