"""Shared fixtures and hypothesis strategies for the simulator tests."""

from __future__ import annotations

import importlib.util
import os
import sys

import pytest
from hypothesis import strategies as st

from mvpsim import AxisLadderMachine, BitMatrix, BitVector, Mode, WallLightMachine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BACKEND_CLASSES = (AxisLadderMachine, WallLightMachine)
# The three configurations a product runs in: backend and drive mode.
CONFIGS = [("axis", Mode.SEQ), ("axis", Mode.PAR), ("wall", Mode.SEQ)]
CONFIG_IDS = [f"{backend}-{mode.value}" for backend, mode in CONFIGS]


class PerRowAxisMachine(AxisLadderMachine):
    """Overrides the sensing primitive without changing what it does, so
    set_output senses row by row through it; records each sensed row."""

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.sensed: list[int] = []

    def move_ladder(self, i: int) -> bool:
        self.sensed.append(i)
        return super().move_ladder(i)


class PerRowWallMachine(WallLightMachine):
    """The wall counterpart of PerRowAxisMachine."""

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self.sensed: list[int] = []

    def observe_light(self, i: int) -> bool:
        self.sensed.append(i)
        return super().observe_light(i)


def load_tool(name: str):
    """The script `tools/<name>.py` as a module, registered in sys.modules
    under `name` (its dataclasses look their module up there)."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Session scope: the value is a class, safe to share, and hypothesis
# forbids function-scoped fixtures inside @given tests.
@pytest.fixture(params=BACKEND_CLASSES, ids=lambda cls: cls.backend, scope="session")
def machine_cls(request):
    """Both machine backends; contract tests must hold for each."""
    return request.param


def bit_vectors(n: int) -> st.SearchStrategy[BitVector]:
    return st.tuples(*([st.sampled_from((0, 1))] * n)).map(BitVector)


def bit_matrices(n: int) -> st.SearchStrategy[BitMatrix]:
    row = st.tuples(*([st.sampled_from((0, 1))] * n))
    return st.tuples(*([row] * n)).map(BitMatrix)


@st.composite
def matrix_vector_pairs(draw, max_n: int = 6) -> tuple[BitMatrix, BitVector]:
    n = draw(st.integers(min_value=1, max_value=max_n))
    return draw(bit_matrices(n)), draw(bit_vectors(n))


@st.composite
def matrix_pairs(draw, max_n: int = 5) -> tuple[BitMatrix, BitMatrix]:
    n = draw(st.integers(min_value=1, max_value=max_n))
    return draw(bit_matrices(n)), draw(bit_matrices(n))
