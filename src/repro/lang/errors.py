"""Diagnostic exception hierarchy for the DSL compiler.

All user-facing failures derive from :class:`DslError` and carry a
:class:`~repro.lang.source.Span` where available, so the runtime can
render caret diagnostics against the original source.
"""

from __future__ import annotations

from typing import Optional

from .source import Span, SourceText


class DslError(Exception):
    """Base class for all errors raised by the DSL pipeline."""

    def __init__(self, message: str, span: Optional[Span] = None) -> None:
        super().__init__(message)
        self.message = message
        self.span = span

    def render(self, source: Optional[SourceText] = None) -> str:
        """Render the error, with a source caret when possible."""
        if source is not None and self.span is not None:
            return source.render(self.span, self.message)
        return self.message


class LexError(DslError):
    """Raised when the lexer meets a character it cannot tokenise."""


class ParseError(DslError):
    """Raised when the token stream does not match the grammar."""


class TypeCheckError(DslError):
    """Raised when a well-formed program violates the type system."""


class AnalysisError(DslError):
    """Raised when dependency analysis cannot handle a construct.

    Typical causes: non-affine descent functions, mutually recursive
    functions, or recursion through an unsupported expression form.
    """


class ScheduleError(DslError):
    """Raised when no valid schedule exists or a user schedule is invalid."""


class CodegenError(DslError):
    """Raised when polyhedral code generation fails."""


class RuntimeDslError(DslError):
    """Raised for execution-time failures (bad input data, overflow...)."""


class VerificationError(DslError):
    """The independent verifier rejected a program or schedule.

    Raised by the engine's verify hook and the service's admission
    control when a :mod:`repro.verify` pass produces error-severity
    diagnostics. Permanent: a rejected program stays rejected until
    its text changes.
    """


class SanitizerError(DslError):
    """The runtime sanitizer observed a memory-safety violation.

    Poison reads, intra-partition read/write overlap, out-of-bounds
    accesses or unwritten cells found while executing with
    sanitization enabled — deterministic codegen/schedule bugs, never
    retried.
    """


class NativeBuildError(DslError):
    """The native backend could not produce a loadable shared object.

    Raised when the system compiler rejects the emitted C99, when the
    build toolchain disappears mid-run, or when the segfault-guarded
    subprocess probe of a freshly built (or cache-restored) ``.so``
    dies before ``dlopen`` succeeds in-process. Subclassing
    :class:`DslError` makes it *permanent* to the supervision and
    serving layers: a kernel whose native build fails will fail the
    same way on every retry — it is a toolchain/codegen problem, not
    a transient device fault.
    """


class BackendDivergenceError(DslError):
    """Two independent backends disagree on the same kernel.

    Raised by the divergence oracle when a suspect partition range,
    re-executed cleanly on both the primary and the reference backend,
    still mismatches — i.e. the discrepancy is deterministic and the
    generated code is wrong, not the (simulated) hardware. Subclassing
    :class:`DslError` makes it *permanent* to the serving layer: a
    compiler bug is never retried.
    """
