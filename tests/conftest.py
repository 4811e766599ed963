"""Shared fixtures: the worked reference program and friends.

The reference program allocates a reference, writes it through an
alias chain, and reads it back:

    (let x (ref 4@1)@2
      (let y (let z (5@3)@4 ((x@5) := (z@7))@8)@9
        (!(x@6))@10)@11)@12

Its run-time facts (bindings, order, result) and its static facts
(types, environment, order approximation, alias blocks) are derived by
hand in the test modules and asserted exactly.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import refflow
from refflow.syntax import parse

# The test modules import ``cases_source`` from tools/families.py, which
# tools/scale.py shares.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

ALIAS_CHAIN_SRC = (
    "(let x (ref 4@1)@2"
    " (let y (let z (5@3)@4 ((x@5) := (z@7))@8)@9"
    " (!(x@6))@10)@11)@12"
)

# Single-use abstraction applied twice: rejected by the linearity check.
DOUBLE_USE_SRC = r"(let x (\y. (y@1))@2 ((x@3) ((x@4) (1@5))@6)@7)@8"

# Direct flow of a free variable into a binding, and its harmless twin.
DIRECT_FLOW_SRC = "(let l (h@1)@2 (l@3)@4)"
NO_FLOW_SRC = "(let l (1@1)@2 (l@3)@4)"

# Flow through a reference cell: the secret is written, then read back.
INDIRECT_FLOW_SRC = (
    "(let r (ref 0@1)@2"
    " (let _ ((r@3) := (h@4))@5"
    " (let l (!(r@6))@7 (l@8)@9)@10)@11)@12"
)


# Untyped recursive programs: recursion revisits binding points, so some
# bindings find their point already ordered before their sources.
RECURSIVE_SRCS = (
    r"(let rec f (λx. (case x [0 -> 0, _ -> (f (- x 1))])) (f 3))",
    r"(let rec f (λx. (let y (- x 1) (case y [0 -> 0, _ -> (f y)]))) (f 3))",
    r"(let rec sum (λn. (case n [0 -> 0, m -> (+ m (sum (- m 1)))])) (sum 5))",
    r"(let rec fact (λn. (case n [0 -> 1, m -> (* m (fact (- m 1)))])) (fact 6))",
    r"(let rec fib (λn. (case n [0 -> 0, 1 -> 1, m -> (+ (fib (- m 1)) (fib (- m 2)))])) (fib 6))",
    r"(let rec f (λx. (case x [0 -> 0, m -> (let y m (f (- y 1)))])) (f 3))",
    r"(let rec f (λx. (case x [0 -> 0, _ -> (let z (f (- x 1)) (+ z x))])) (f 4))",
    r"(let r (ref 0) (let rec f (λx. (case x [0 -> (! r),"
    r" m -> (let u (r := (+ (! r) m)) (f (- m 1)))])) (f 4)))",
    r"(let r (ref 1) (let rec g (λn. (case n [0 -> (! r),"
    r" m -> (let k (r := (* (! r) m)) (g (- m 1)))])) (g 5)))",
)


@functools.cache
def corpus() -> tuple:
    """The 1000 corpus programs, ``gen_program(seed, 1 + seed % 30)`` for
    seeds 0-999, built once per run; the trees are immutable, so every
    test that reads them or a slice of them shares them."""
    from refflow.agreement import gen_program

    return tuple(gen_program(seed, 1 + seed % 30) for seed in range(1000))


@pytest.fixture
def alias_chain():
    return parse(ALIAS_CHAIN_SRC)


@pytest.fixture
def double_use():
    return parse(DOUBLE_USE_SRC)


def fresh_python(*args, **kwargs) -> subprocess.Popen:
    """Start ``python *args`` in a new process that imports the refflow
    under test, with text-mode pipes."""

    src = str(Path(refflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.Popen([sys.executable, *args], env=env, text=True, **kwargs)
