"""Reproducibility: logically identical compiles give identical results.

Instruction uids are allocated from a global counter, so two builds of
the same kernel carry different absolute uids.  Nothing in the pipeline
may depend on absolute uid values (set iteration order, hash order,
spill-slot numbers leaking into decisions); these tests rebuild the same
logical input repeatedly within one process and demand bit-identical
outcomes.  The same must hold across processes whose string hashing
differs (``PYTHONHASHSEED``): set iteration order may never leak into
a decision.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import allocate
from repro.graph.dag import DependenceDAG
from repro.machine.model import MachineModel
from repro.pipeline import compile_trace
from repro.workloads.kernels import KERNELS, kernel
from repro.workloads.random_dags import random_layered_trace


def signature(result):
    words = []
    for word in result.program.words:
        words.append(tuple(str(op) for op in word.ops))
    return (result.stats.cycles, result.stats.spill_ops, tuple(words))


class TestCompileDeterminism:
    @pytest.mark.parametrize("name", ["figure2", "saxpy", "fft-butterfly", "stencil5"])
    @pytest.mark.parametrize("method", ["ursa", "prepass", "postpass", "goodman-hsu"])
    def test_repeated_compiles_identical(self, name, method):
        machine = MachineModel.homogeneous(2, 4)
        first = compile_trace(kernel(name), machine, method=method, seed=1)
        second = compile_trace(kernel(name), machine, method=method, seed=1)
        assert signature(first) == signature(second)

    def test_random_trace_determinism(self):
        machine = MachineModel.homogeneous(3, 5)
        signatures = set()
        for _ in range(3):
            trace = random_layered_trace(n_ops=20, width=4, seed=9)
            result = compile_trace(trace, machine, seed=9)
            signatures.add(signature(result))
        assert len(signatures) == 1

    def test_allocation_records_identical(self):
        machine = MachineModel.homogeneous(2, 4)
        runs = []
        for _ in range(2):
            dag = DependenceDAG.from_trace(kernel("saxpy"))
            result = allocate(dag, machine)
            runs.append(
                tuple(
                    (r.kind, r.excess_before, r.excess_after)
                    for r in result.records
                )
            )
        assert runs[0] == runs[1]

    def test_color_backend_determinism(self):
        machine = MachineModel.homogeneous(2, 4)
        first = compile_trace(
            kernel("matvec"), machine, assignment="color", seed=2
        )
        second = compile_trace(
            kernel("matvec"), machine, assignment="color", seed=2
        )
        assert signature(first) == signature(second)


class TestHashSeedIndependence:
    SCRIPT = (
        "from repro.machine.model import MachineModel\n"
        "from repro.pipeline import compile_trace\n"
        "from repro.serve.cache import program_signature\n"
        "from repro.workloads.kernels import kernel\n"
        "result = compile_trace(kernel('matmul'), "
        "MachineModel.homogeneous(2, 6), verify=False)\n"
        "print(result.stats.cycles, program_signature(result.program))\n"
    )

    #: Postpass on a starved machine: the coloring allocator spills, so
    #: spill-slot numbering is exercised.
    POSTPASS_SCRIPT = (
        "from repro.machine.model import MachineModel\n"
        "from repro.pipeline import compile_trace\n"
        "from repro.serve.cache import program_signature\n"
        "from repro.workloads.kernels import kernel\n"
        "for name in ('matmul', 'fir'):\n"
        "    result = compile_trace(kernel(name), "
        "MachineModel.homogeneous(2, 4), method='postpass', verify=False)\n"
        "    print(name, result.stats.cycles, "
        "program_signature(result.program))\n"
    )

    @staticmethod
    def _outputs(script):
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = set()
        for hash_seed in range(4):
            env = dict(os.environ, PYTHONPATH=str(src))
            env["PYTHONHASHSEED"] = str(hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env,
            )
            outputs.add(proc.stdout)
        return outputs

    def test_matmul_identical_across_hash_seeds(self):
        outputs = self._outputs(self.SCRIPT)
        assert len(outputs) == 1, sorted(outputs)

    def test_postpass_identical_across_hash_seeds(self):
        outputs = self._outputs(self.POSTPASS_SCRIPT)
        assert len(outputs) == 1, sorted(outputs)
