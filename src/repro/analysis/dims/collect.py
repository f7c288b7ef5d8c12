"""Pass 1: assign dimensions to names, annotations, and signatures.

Dimensions come from two sources, in priority order:

1. **Explicit alias annotations** — the :mod:`repro.units` aliases
   (``Watts``, ``Joules``, ``WallSeconds``, ...) read off parameter,
   return, and field annotations (including ``X | None`` and
   ``Optional[X]`` shapes and string annotations).
2. **Naming conventions** — the repo-wide suffix vocabulary: ``*_w``
   watts, ``*_j`` joules, ``*_s`` seconds (``wall``/``native`` tokens
   select the flavor), ``*_hz``/``*_ghz`` frequency, ``*_scale`` scale
   factors with ``speed_scale``/``power_scale`` special-cased, and the
   exact names in :data:`EXACT_NAMES`.

:class:`SignatureIndex` collects a module's function signatures so the
checking pass can verify call sites interprocedurally; the curated
:data:`BUILTIN_SIGS` table seeds it with the :mod:`repro.units`
conversion helpers and the calibrated model's hot query surface, so
cross-module calls to those check even when only one file is linted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.dims.model import (
    HZ,
    J,
    NS,
    PSCALE_D,
    S,
    SCALE_D,
    SPEED_D,
    SPJ_D,
    W,
    WATTS,
    WS,
    Dim,
)

#: repro.units alias name -> dimension.
ALIAS_DIMS: dict[str, Dim] = {
    "Watts": W,
    "Joules": J,
    "Seconds": S,
    "WallSeconds": WS,
    "NativeSeconds": NS,
    "Hertz": HZ,
    "Scale": SCALE_D,
    "SpeedScale": SPEED_D,
    "PowerScale": PSCALE_D,
    "SecondsPerJoule": SPJ_D,
}

#: Whole names whose dimension the suffix rules cannot express.
EXACT_NAMES: dict[str, Dim] = {
    "speed_scale": SPEED_D,
    "power_scale": PSCALE_D,
    "MAKESPAN_ENERGY_RHO": SPJ_D,
    # PowerSegment's field name (a segment's constant chip draw).
    "watts": W,
}

#: Suffix token (the part after the last ``_``) -> dimension.
_SUFFIX_DIMS: dict[str, Dim] = {
    "w": W,
    "j": J,
    "hz": HZ,
    "ghz": HZ,
    "scale": SCALE_D,
}

#: Name tokens that pick a time flavor for a ``*_s`` name.
_WALL_TOKENS = {"wall"}
_NATIVE_TOKENS = {"native"}


def dim_of_name(name: str) -> Dim | None:
    """The dimension a bare identifier advertises, or ``None``."""
    exact = EXACT_NAMES.get(name)
    if exact is not None:
        return exact
    tokens = name.lower().split("_")
    # Leading-underscore names ('_w') and bare letters ('s', often a
    # FrequencySetting) carry no suffix convention.
    tokens = [t for t in tokens if t]
    if len(tokens) < 2:
        return None
    last = tokens[-1]
    if last == "s":
        if _WALL_TOKENS & set(tokens[:-1]):
            return WS
        if _NATIVE_TOKENS & set(tokens[:-1]):
            return NS
        return S
    return _SUFFIX_DIMS.get(last)


def dim_of_annotation(ann: ast.expr | None) -> Dim | None:
    """The dimension an annotation expression declares, or ``None``."""
    if ann is None:
        return None
    if isinstance(ann, ast.Name):
        return ALIAS_DIMS.get(ann.id)
    if isinstance(ann, ast.Attribute):
        return ALIAS_DIMS.get(ann.attr)
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ALIAS_DIMS.get(ann.value.strip())
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        return dim_of_annotation(ann.left) or dim_of_annotation(ann.right)
    if isinstance(ann, ast.Subscript):
        # Optional[Watts] and friends; tuple[...] element dims are the
        # checker's TupleVal business, not an annotation's.
        head = ann.value
        head_name = head.id if isinstance(head, ast.Name) else getattr(head, "attr", "")
        if head_name == "Optional":
            return dim_of_annotation(ann.slice)
    return None


@dataclass(frozen=True)
class FuncSig:
    """What the checker knows about one callable.

    ``params`` are the positional parameters (``self``/``cls`` already
    stripped when ``has_self``); ``kwonly`` the keyword-only ones.
    """

    name: str
    params: tuple[tuple[str, Dim | None], ...]
    ret: Dim | None
    ret_elems: tuple[Dim | None, ...] | None = None
    has_self: bool = False
    kwonly: tuple[tuple[str, Dim | None], ...] = ()

    def param_dim(self, keyword: str) -> Dim | None:
        for pname, pdim in (*self.params, *self.kwonly):
            if pname == keyword:
                return pdim
        return None


#: Marks a name collected twice with conflicting signatures; call sites
#: resolving to it are not checked.
AMBIGUOUS = FuncSig(name="<ambiguous>", params=(), ret=None)


def _sig(
    name: str,
    params: tuple[tuple[str, Dim | None], ...],
    ret: Dim | None,
    ret_elems: tuple[Dim | None, ...] | None = None,
    has_self: bool = False,
) -> FuncSig:
    return FuncSig(name, params, ret, ret_elems, has_self)


#: Cross-module ground truth: the repro.units conversion helpers (their
#: home module is authoritative) and the calibrated model's hot query
#: surface, keyed by bare callable name.
BUILTIN_SIGS: dict[str, FuncSig] = {
    # -- repro.units ---------------------------------------------------
    "wall_from_native": _sig(
        "wall_from_native", (("native_s", NS), ("speed_scale", SPEED_D)), WS
    ),
    "native_from_wall": _sig(
        "native_from_wall", (("wall_s", WS), ("speed_scale", SPEED_D)), NS
    ),
    "energy_j": _sig("energy_j", (("power_w", W), ("dt_s", S)), J),
    "mean_power_w": _sig("mean_power_w", (("total_j", J), ("dt_s", S)), W),
    "duration_s": _sig("duration_s", (("total_j", J), ("power_w", W)), S),
    "scaled_power_w": _sig(
        "scaled_power_w",
        (("power_w", W), ("power_scale", PSCALE_D)),
        Dim(WATTS, pscaled=True),
    ),
    "unscaled_power_w": _sig(
        "unscaled_power_w", (("scaled_w", W), ("power_scale", PSCALE_D)), W
    ),
    # -- model/predictor query surface ---------------------------------
    "solo_time": _sig(
        "solo_time",
        (("uid", None), ("kind", None), ("f_ghz", HZ)),
        S,
        has_self=True,
    ),
    "corun_times": _sig(
        "corun_times",
        (("cpu_uid", None), ("gpu_uid", None), ("setting", None)),
        None,
        ret_elems=(S, S),
        has_self=True,
    ),
    "best_solo": _sig(
        "best_solo",
        (("uid", None), ("kind", None), ("cap_w", W)),
        None,
        ret_elems=(HZ, S),
        has_self=True,
    ),
    "predicted_power": _sig(
        "predicted_power",
        (
            ("predictor", None),
            ("cpu_uid", None),
            ("gpu_uid", None),
            ("setting", None),
        ),
        W,
    ),
    "cap_of": _sig("cap_of", (("name", None),), W, has_self=True),
}


def _tuple_ret_elems(
    ann: ast.expr | None,
) -> tuple[Dim | None, ...] | None:
    """Element dims of a ``tuple[A, B, ...]`` return annotation, when at
    least one element names a dimension alias."""
    if not isinstance(ann, ast.Subscript):
        return None
    head = ann.value
    head_name = head.id if isinstance(head, ast.Name) else getattr(head, "attr", "")
    if head_name not in ("tuple", "Tuple"):
        return None
    if not isinstance(ann.slice, ast.Tuple):
        return None
    elems = tuple(dim_of_annotation(e) for e in ann.slice.elts)
    return elems if any(e is not None for e in elems) else None


def signature_of(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> FuncSig:
    """Build a :class:`FuncSig` from a function definition."""
    a = fn.args
    raw = [*a.posonlyargs, *a.args]
    has_self = bool(raw) and raw[0].arg in ("self", "cls")
    if has_self:
        raw = raw[1:]
    params = tuple(
        (
            p.arg,
            dim_of_annotation(p.annotation) or dim_of_name(p.arg),
        )
        for p in raw
    )
    kwonly = tuple(
        (
            p.arg,
            dim_of_annotation(p.annotation) or dim_of_name(p.arg),
        )
        for p in a.kwonlyargs
    )
    ret = dim_of_annotation(fn.returns) or dim_of_name(fn.name)
    ret_elems = _tuple_ret_elems(fn.returns)
    if fn.returns is not None and dim_of_annotation(fn.returns) is None:
        # An explicit non-dimension return annotation (-> None, -> dict,
        # -> bool) overrides the name convention: `def to_wall_s(...) ->
        # list[...]` is a collection, not a duration.
        if not (
            isinstance(fn.returns, ast.Name)
            and fn.returns.id in ("float", "int")
        ):
            ret = None
    return FuncSig(fn.name, params, ret, ret_elems, has_self, kwonly)


class SignatureIndex:
    """Bare-name -> signature map for one module, over the builtins."""

    def __init__(self) -> None:
        self._local: dict[str, FuncSig] = {}

    def collect(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sig = signature_of(node)
                seen = self._local.get(node.name)
                if seen is None:
                    self._local[node.name] = sig
                elif seen is not AMBIGUOUS and (
                    seen.params != sig.params
                    or seen.ret != sig.ret
                    or seen.ret_elems != sig.ret_elems
                ):
                    self._local[node.name] = AMBIGUOUS

    def resolve(self, name: str) -> FuncSig | None:
        """Signature for a call to ``name`` (``None`` when unknown or
        ambiguous — ambiguity means *no* checking, never wrong checking).
        """
        sig = self._local.get(name)
        if sig is AMBIGUOUS:
            return None
        if sig is not None:
            return sig
        return BUILTIN_SIGS.get(name)
