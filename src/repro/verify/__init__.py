"""``repro.verify`` — static invariant verifier for the URSA pipeline.

In the spirit of LLVM's MachineVerifier / ``-verify-each``: rule packs
(``dag.*``, ``alloc.*``, ``sched.*``, ``lint.*``) statically check each
pipeline artifact, so soundness breaks are caught at the pass that
introduced them rather than by the end-to-end simulator (or not at
all).  See ``docs/verification.md`` for the rule catalogue.
"""

from repro.diagnostics import Diagnostic, Severity
from repro.verify.alloc_rules import verify_allocation, verify_allocation_step
from repro.verify.dag_rules import verify_dag
from repro.verify.diagnostics import (
    REPORT_SCHEMA_VERSION,
    RuleInfo,
    RULES,
    VerifyError,
    VerifyReport,
    register,
)
from repro.verify.lint_rules import lint_dag
from repro.verify.runner import (
    verify_compilation,
    verify_dag_state,
    verify_source,
)
from repro.verify.schedule_rules import verify_schedule

__all__ = [
    "REPORT_SCHEMA_VERSION",
    "Diagnostic",
    "RuleInfo",
    "RULES",
    "Severity",
    "VerifyError",
    "VerifyReport",
    "register",
    "verify_dag",
    "verify_allocation",
    "verify_allocation_step",
    "verify_schedule",
    "lint_dag",
    "verify_compilation",
    "verify_dag_state",
    "verify_source",
]
