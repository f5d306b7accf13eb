"""DetC: a from-scratch C-subset compiler targeting RV32IM + X_PAR.

Pipeline: :mod:`repro.compiler.cpp` (preprocessor: object- and
function-like macros, ``#include <det_omp.h>``, ``#pragma omp``) →
:mod:`repro.compiler.clexer` → :mod:`repro.compiler.cparser` (AST) →
:mod:`repro.compiler.codegen` (assembly, with the Deterministic OpenMP
lowering of ``parallel for`` / ``parallel sections`` described in the
paper's figure 2).

Entry points:

* :func:`compile_c` — C source → assembly text.
* :func:`compile_to_program` — C source → assembled
  :class:`~repro.asm.program.Program`, ready to load into a machine.
* :func:`build_program` — either kind of source (``.c`` or ``.s``, by
  file name) → Program; what the CLI and the job service both call.
"""

from repro.compiler.frontend import (
    CompileError,
    build_program,
    compile_c,
    compile_to_program,
)

__all__ = ["CompileError", "build_program", "compile_c", "compile_to_program"]
