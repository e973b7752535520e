"""Per-layer tracing from outside the engine.

While a Tracer is installed it replaces the public functions and methods of
each denslift module with timing wrappers; uninstalling restores the
originals, so an untraced run executes the engine's own code objects.

Every call of a wrapped function is counted.  Time is accounted at layer
boundaries only: a call that enters a layer from another layer (or from the
benchmark) opens a frame, calls made inside the same layer do not.  A frame's
self time is its duration minus the time of the frames it opened.  Frames of
``operators`` and the layers above it are also kept as spans (name, start,
end, parent span, job id); ``scalars`` and ``jets`` see 10^5..10^6 calls per
job, so they are kept only as counts and self time.
"""

from __future__ import annotations

import argparse
import gc
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter

# Layers that keep one span per boundary crossing.
SPAN_LAYERS = frozenset({"operators", "lifting", "equivariance", "projective",
                         "linalg", "cli", "cli.parse", "cli.render"})


class GcClock:
    """Counts collections and their wall time through gc.callbacks."""

    def __init__(self):
        self.collections = 0
        self.seconds = 0.0
        self._start = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._start = perf_counter()
        else:
            self.seconds += perf_counter() - self._start
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False

    def reading(self):
        return self.collections, self.seconds


def _is_const_den(den) -> bool:
    return len(den) == 1 and () in den


class Tracer:
    """Installs counting and timing wrappers on the engine while active."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.spans: List[list] = []
        self.job: Optional[str] = None
        self.scalar_results = 0
        self.ratfunc_results = 0
        self.term_pairs = 0
        self.result_monomials = 0
        # frame: [layer, start, child_seconds, span_index]
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # -- wrapper --------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        incl_s = self.incl_s
        spans = self.spans
        keep_span = layer in SPAN_LAYERS
        tracer = self

        def traced(*args, **kwargs):
            calls[name] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            span = -1
            if keep_span:
                parent = -1
                for frame in reversed(stack):
                    if frame[3] >= 0:
                        parent = frame[3]
                        break
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent, tracer.job])
            frame = [layer, 0.0, 0.0, span]
            stack.append(frame)
            start = perf_counter()
            frame[1] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self_s[layer] += dur - frame[2]
                incl_s[layer] += dur
                if stack:
                    stack[-1][2] += dur
                if span >= 0:
                    spans[span][1] = start
                    spans[span][2] = end
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters attached to single functions ----------------------------------

    def _after_scalar(self, args, result):
        den = getattr(result, "den", None)
        if den is None:
            return
        self.scalar_results += 1
        if not _is_const_den(den):
            self.ratfunc_results += 1

    def _after_compose(self, args, result):
        left, right = args[0], args[1]
        self.term_pairs += len(left.terms) * len(right.terms)
        self.result_monomials += sum(len(c.terms) for c in result.terms.values())

    # -- install / uninstall ----------------------------------------------------

    def _patch_method(self, cls, attr: str, layer: str, after=None):
        original = cls.__dict__[attr]
        name = f"{layer}.{cls.__name__}.{attr}"
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(layer, name, original, after))

    def _patch_function(self, modules, owner, attr: str, layer: str, name=None):
        original = getattr(owner, attr)
        wrapped = self._wrap(layer, name or f"{layer}.{attr}", original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self):
        import denslift
        from denslift import (cli, equivariance, jets, lifting, linalg,
                              operators, projective, scalars)

        modules = [denslift, scalars, jets, operators, lifting, equivariance,
                   projective, linalg, cli]
        scalar_after = self._after_scalar
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                     "__pow__", "substitute"):
            self._patch_method(scalars.Scalar, attr, "scalars", scalar_after)
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                     "__mul__", "__rmul__", "__pow__", "derive",
                     "substitute_params", "substitute_jets", "cancel_pairs"):
            self._patch_method(jets.DiffPolynomial, attr, "jets")
        for attr in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                     "adjoint", "commutator", "restrict", "apply", "app1",
                     "vertical_part", "map_coefficients", "substitute_params",
                     "substitute_partials", "render", "to_json"):
            self._patch_method(operators.DensityOperator, attr, "operators")
        self._patch_method(operators.DensityOperator, "compose", "operators",
                           self._after_compose)
        for attr in ("compose", "adjoint", "restrict", "apply_operator",
                     "lie_operator", "ad_vf"):
            self._patch_function(modules, operators, attr, "operators")
        for attr in ("covariant_partials", "canonical_lift", "vol_lift",
                     "distinguished_coefficients", "distinguished_lift",
                     "sa_vertical_polynomials", "first_order_lift",
                     "decompose_first_order", "extract_geometric_data",
                     "assemble_self_adjoint_second_order",
                     "second_order_canonical_lift", "cocycle_rho",
                     "taylor_expand", "taylor_assemble", "selfadjoint_family",
                     "limit_lift", "is_regular_pair", "is_strict_pair"):
            self._patch_function(modules, lifting, attr, "lifting")
        for attr in ("divergence", "ad_weight", "ad_on_lifting",
                     "volume_variation", "check_adX_variation_identity",
                     "generic_divfree_field", "sdiff_basis_map",
                     "classify_sdiff_map", "divfree_tensor_lift_check"):
            self._patch_function(modules, equivariance, attr, "equivariance")
        self._patch_method(equivariance.LiftingHandle, "__call__", "equivariance")
        self._patch_method(equivariance.DivFreeField, "reduce", "equivariance")
        self._patch_method(equivariance.DivFreeTensor, "reduce", "equivariance")
        for attr in ("symbol_coeff", "full_symbol", "principal_symbol",
                     "quantize", "proj_generators", "proj_lift",
                     "proj_decompose", "proj_regular_lift",
                     "proj_sa_polynomials", "schwarzian_data",
                     "coordinate_change_1d", "transformed_schwarzian_data",
                     "schwarzian_combination", "schwarzian_cocycle_check"):
            self._patch_function(modules, projective, attr, "projective")
        for attr in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
                     "lie_derive", "render"):
            self._patch_method(projective.SymbolPoly, attr, "projective")
        for attr in ("operator_coordinates", "rank", "nullspace"):
            self._patch_function(modules, linalg, attr, "linalg")
        self._patch_function(modules, cli, "main", "cli")
        for attr in ("build_parser", "parse_operator", "parse_symbol",
                     "operator_from_json"):
            self._patch_function(modules, cli, attr, "cli.parse", f"cli.{attr}")
        self._patch_method(argparse.ArgumentParser, "parse_args", "cli.parse")
        self._patch_function(modules, cli, "_emit", "cli.render", "cli._emit")
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(n for name, n in self.calls.items() if name.startswith(prefix))

    def counts(self) -> Dict[str, float]:
        """Exact counts: these repeat on every run of the same inputs."""
        share = (self.ratfunc_results / self.scalar_results
                 if self.scalar_results else 0.0)
        calls = self.calls
        return {
            "scalars.calls": self.layer_calls("scalars"),
            "scalars.ratfunc_share": share,
            "jets.mul_calls": (calls["jets.DiffPolynomial.__mul__"]
                               + calls["jets.DiffPolynomial.__rmul__"]),
            "jets.derive_calls": calls["jets.DiffPolynomial.derive"],
            "operators.compose_calls": calls["operators.DensityOperator.compose"],
            "operators.term_pairs": self.term_pairs,
            "operators.result_monomials": self.result_monomials,
            "projective.quantize_calls": calls["projective.quantize"],
            "lifting.calls": self.layer_calls("lifting"),
            "equivariance.calls": self.layer_calls("equivariance"),
            "linalg.calls": self.layer_calls("linalg"),
        }

    def times(self) -> Dict[str, float]:
        """Self time per layer and the CLI phases (inclusive), in seconds."""
        s = self.self_s
        parse = self.incl_s["cli.parse"]
        render = self.incl_s["cli.render"]
        return {
            "scalars.self_s": s["scalars"],
            "jets.self_s": s["jets"],
            "operators.self_s": s["operators"],
            "projective.self_s": s["projective"],
            "lifting.self_s": s["lifting"],
            "equivariance.self_s": s["equivariance"],
            "linalg.self_s": s["linalg"],
            "cli.parse_s": parse,
            "cli.render_s": render,
            "cli.compute_s": max(self.incl_s["cli"] - parse - render, 0.0),
        }
