"""precision-flow: dtype provenance through the mixed-precision stack.

PR 7 made float32 a first-class citizen of the pressure solve (float32
Schwarz/FDM smoothing inside a float64 Krylov solve, guarded by ``IterationGuard``).
That split is safe exactly as long as two invariants hold:

* float64 data is narrowed to float32 only inside a *guard-managed
  region* -- code that constructs or consults an ``IterationGuard`` so a
  quality regression trips recovery -- or under an explicit suppression
  stating why the narrowing is safe;
* float32 values never flow into the accumulations that decide
  convergence or publish physics (residual norms, inner products, sums):
  NekRS accumulates those in float64 even when the smoother runs float32,
  and so do we.

The analyzer assigns every expression a value from the flat lattice
``unknown < {f32, f64} < mixed`` and propagates it flow-sensitively
through assignments, branches (joined), loops (to fixpoint) and -- via
the call graph's context-insensitive function summaries -- across
function boundaries inside ``sem``/``precond``/``solvers``.  Python
scalars are dtype-neutral (NEP 50 weak promotion): constants sit at
lattice bottom so ``0.1 * f32_field`` stays ``f32``.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.statcheck.analyzers.base import Analyzer
from repro.statcheck.dataflow import AbstractInterpreter, FlatLattice, SummarySolver
from repro.statcheck.finding import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover
    from repro.statcheck.callgraph import FunctionInfo, Project

__all__ = ["PrecisionFlowAnalyzer"]

#: Packages whose functions participate in the dtype dataflow.
SCOPE_PACKAGES = ("sem", "precond", "solvers")

_F32_NAMES = {"float32", "f4", "single", "<f4", ">f4"}
_F64_NAMES = {"float64", "f8", "double", "<f8", ">f8"}

#: np.* constructors that default to float64 when no dtype is given.
_F64_CONSTRUCTORS = {
    "zeros", "empty", "ones", "full", "arange", "linspace", "eye", "identity",
}
#: np.* constructors that inherit their model argument's dtype.
_LIKE_CONSTRUCTORS = {"zeros_like", "empty_like", "ones_like", "full_like"}
#: np.* wrappers whose result dtype follows the input's.
_WRAP_CONSTRUCTORS = {"array", "asarray", "ascontiguousarray", "asfortranarray"}
#: Reduction/accumulation entry points that must not receive float32.
_ACCUMULATIONS = {"dot", "vdot", "inner", "sum", "nansum", "norm", "einsum"}
#: Methods whose result keeps the receiver's dtype.
_PROPAGATING_METHODS = {
    "copy", "reshape", "ravel", "flatten", "transpose", "squeeze", "clip",
    "conj", "conjugate", "real", "imag", "min", "max",
}


def make_dtype_lattice() -> FlatLattice:
    return FlatLattice(atoms=("f32", "f64"), bottom="unknown", top="mixed")


def _dtype_of_expr(node: ast.expr | None) -> str | None:
    """Lattice atom named by a dtype expression, or None when symbolic."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.lower()
        if name in _F32_NAMES:
            return "f32"
        if name in _F64_NAMES:
            return "f64"
        return None
    from repro.statcheck.rules.base import attr_chain

    chain = attr_chain(node)
    if chain is None:
        return None
    final = chain.rsplit(".", 1)[-1]
    base = chain.split(".", 1)[0]
    if base in ("np", "numpy"):
        if final in _F32_NAMES:
            return "f32"
        if final in _F64_NAMES:
            return "f64"
    if chain == "float":  # builtin float is a float64 scalar
        return "f64"
    return None


def _dtype_keyword(node: ast.Call) -> str | None:
    for kw in node.keywords:
        if kw.arg == "dtype":
            return _dtype_of_expr(kw.value)
    return None


def guard_managed(info: "FunctionInfo") -> bool:
    """True when ``info`` constructs or consults an IterationGuard.

    A narrowing inside such a function is by definition monitored: the
    guard observes solver quality and trips back to float64, so the
    narrowing is the *mechanism* of the managed mixed-precision path, not
    an accident.  The test is lexical -- any reference to the
    ``IterationGuard`` type or a ``guard``/``iteration_guard`` attribute
    in the function body.
    """
    for node in ast.walk(info.node):
        if isinstance(node, ast.Name) and node.id == "IterationGuard":
            return True
        if isinstance(node, ast.Attribute) and node.attr in ("guard", "iteration_guard"):
            return True
    return False


class DtypeInterpreter(AbstractInterpreter):
    """The dtype transfer functions over the flat f32/f64 lattice."""

    def __init__(
        self,
        lattice: FlatLattice,
        summaries=None,  # qname -> FunctionSummary (read-only view)
        emit=None,  # callable(node, message) | None: finding sink
        guarded: bool = False,
    ) -> None:
        super().__init__(lattice)
        self.summaries = summaries or {}
        self.emit = emit
        self.guarded = guarded

    def transfer_call(
        self,
        node: ast.Call,
        chain: str | None,
        args: list[str],
        env: dict[str, str],
        recv: str,
    ) -> str:
        lat = self.lattice
        bot = lat.bottom
        if chain is None:
            return self._summary_ret(node, bot)
        final = chain.rsplit(".", 1)[-1]
        base = chain.split(".", 1)[0]

        # x.astype(t): the one explicit conversion point.
        if final == "astype" and isinstance(node.func, ast.Attribute):
            target = _dtype_of_expr(node.args[0] if node.args else None)
            if target is None:
                target = _dtype_keyword(node)
            if target == "f32" and recv in ("f64", "mixed"):
                self._report(
                    node,
                    f"{'float64' if recv == 'f64' else 'possibly-float64'} value "
                    "narrowed to float32 outside a guard-managed region",
                )
            return target if target is not None else bot

        # Scalar/array casts through the dtype constructors themselves.
        if base in ("np", "numpy") and final in _F32_NAMES:
            if args and args[0] in ("f64", "mixed"):
                self._report(
                    node,
                    "float64 value narrowed to float32 outside a guard-managed region",
                )
            return "f32"
        if base in ("np", "numpy") and final in _F64_NAMES:
            return "f64"

        # Accumulations: np.dot(a, b), np.linalg.norm(r), r.sum(), ...
        if final in _ACCUMULATIONS:
            operands = [recv, *args]
            if "f32" in operands:
                self._report(
                    node,
                    f"float32 value flows into '{final}' accumulation; "
                    "accumulate residuals/norms/dots in float64",
                )
            return lat.join_all(operands)

        if base in ("np", "numpy"):
            if final in _F64_CONSTRUCTORS:
                kw = _dtype_keyword(node)
                return kw if kw is not None else "f64"
            if final in _LIKE_CONSTRUCTORS:
                kw = _dtype_keyword(node)
                if kw is not None:
                    return kw
                return args[0] if args else bot
            if final in _WRAP_CONSTRUCTORS:
                kw = _dtype_keyword(node)
                if kw is not None:
                    return kw
                return lat.join_all(args)
            # Elementwise fallback (sqrt, abs, maximum, where, ...): the
            # result dtype follows NumPy promotion of the array operands.
            return lat.join_all(args)

        if final in _PROPAGATING_METHODS and isinstance(node.func, ast.Attribute):
            return recv

        return self._summary_ret(node, bot)

    def _summary_ret(self, node: ast.Call, default: str) -> str:
        callee = self.callee_of(node)
        if callee is not None:
            summary = self.summaries.get(callee) if self.summaries else None
            if summary is not None:
                return summary.ret or default
        return default

    def _report(self, node: ast.AST, message: str) -> None:
        if self.emit is not None and not self.guarded:
            self.emit(node, message)


class PrecisionFlowAnalyzer(Analyzer):
    name = "precision-flow"
    severity = Severity.WARNING
    description = (
        "float64->float32 narrowing outside IterationGuard-managed regions, and "
        "float32 flowing into residual/norm/dot accumulations (sem/precond/solvers)"
    )

    def check(self, project: "Project") -> Iterator[Finding]:
        graph = project.callgraph
        lattice = make_dtype_lattice()
        scope = [
            qname
            for qname, info in graph.functions.items()
            if info.ctx.in_package(*SCOPE_PACKAGES)
        ]
        if not scope:
            return

        # Phase 1: solve the interprocedural summaries (no findings yet --
        # the worklist revisits functions, which would duplicate reports).
        solver = SummarySolver(
            graph,
            lattice,
            lambda s: DtypeInterpreter(lattice, summaries=s.summaries),
            functions=scope,
        )
        solver.solve()

        # Phase 2: one emission pass per function with the converged
        # parameter context.  Loop bodies are interpreted twice by the
        # framework, so findings are deduplicated per AST node.
        for qname in sorted(scope):
            info = graph.functions[qname]
            reported: set[tuple[int, str]] = set()
            found: list[Finding] = []

            def emit(node: ast.AST, message: str, info=info, reported=reported, found=found):
                key = (id(node), message)
                if key in reported:
                    return
                reported.add(key)
                found.append(self.finding(info, node, message))

            interp = DtypeInterpreter(
                lattice,
                summaries=solver.summaries,
                emit=emit,
                guarded=guard_managed(info),
            )
            interp.site_callees = {
                id(s.node): s.callee for s in graph.callees_of(qname)
            }
            interp.run_function(info.node, dict(solver.summaries[qname].params))
            yield from found
