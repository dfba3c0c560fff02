"""The committed pool of small loop nests that the ``trace_oracle``
workload feeds to :func:`repro.perf.trace.trace_traffic`.

Seven kinds -- a triad stream, gemm and 2mm in ijk and ikj loop order,
a 5-point Jacobi stencil and an indirect gather -- each at three sizes.
The sizes are picked so that the footprints span the three regimes of
the shrunken two-level hierarchy (4 KiB L1, 16 KiB L2, 64 B lines, like
the test suite's ``tiny_machine(l1_kib=4, l2_kib=16)``): fits in L1,
fits in L2, exceeds L2.
On the A64FX levels (64 KiB L1, 8 MiB L2, 256 B lines) the ``L`` stream
and gather sizes exceed L2 through huge, sparsely touched arrays, the
rest fit in L1 or L2.  Every nest stays small enough that one pass
through both hierarchies takes about a second of pure-Python simulation.

A draw (:func:`draw`) traces every kind once, two at size S, two at M
and three at L, so each seed traces the same mix of access patterns and
regimes; only which kind lands in which regime changes.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.ir import KernelBuilder, read, update, write
from repro.ir.loop import LoopNest
from repro.machine.a64fx import A64FX_L1, A64FX_L2
from repro.machine.cache import CacheLevel
from repro.units import KiB

#: The two hierarchies every drawn nest is traced through.
HIERARCHIES: dict[str, tuple[CacheLevel, ...]] = {
    "a64fx": (A64FX_L1, A64FX_L2),
    "tiny": (
        CacheLevel("L1d", 4 * KiB, 64, 4, 4, 128, 1),
        CacheLevel("L2", 16 * KiB, 64, 8, 30, 64, 4),
    ),
}

SIZES = ("S", "M", "L")

#: How many kinds a draw traces at each size; a draw only chooses which
#: kinds get which size, so every seed traces the same regime mix.
DRAW_SIZES = ("S", "S", "M", "M", "L", "L", "L")


def _repeat(reps: int) -> list:
    """An outer time-step loop the body does not index: it repeats the
    address stream without growing the footprint."""
    return [("t", reps)] if reps > 1 else []


def _stream(n: int, step: int = 1, reps: int = 1) -> tuple[LoopNest, ...]:
    b = KernelBuilder(f"stream_{n}_{step}_r{reps}")
    for name in ("a", "bb", "c"):
        b.array(name, (n,))
    b.nest(loops=_repeat(reps) + [("i", 0, n, step)],
           body=[b.stmt(write("a", "i"), read("bb", "i"), read("c", "i"), fma=1)])
    return b.build().nests


def _gemm(order: str, ni: int, nj: int, nk: int, reps: int = 1) -> tuple[LoopNest, ...]:
    b = KernelBuilder(f"gemm_{order}_{ni}x{nj}x{nk}_r{reps}")
    b.array("A", (ni, nk))
    b.array("B", (nk, nj))
    b.array("C", (ni, nj))
    extent = {"i": ni, "j": nj, "k": nk}
    b.nest(loops=_repeat(reps) + [(v, extent[v]) for v in order],
           body=[b.stmt(update("C", "i", "j"), read("A", "i", "k"),
                        read("B", "k", "j"), fma=1, reduction="k")])
    return b.build().nests


def _2mm(order: str, ni: int, nj: int, nk: int, nl: int,
         reps: int = 1) -> tuple[LoopNest, ...]:
    b = KernelBuilder(f"2mm_{order}_{ni}x{nj}x{nk}x{nl}_r{reps}")
    b.array("A", (ni, nk))
    b.array("B", (nk, nj))
    b.array("tmp", (ni, nj))
    b.array("C", (nj, nl))
    b.array("D", (ni, nl))
    first = {"i": ni, "j": nj, "k": nk}
    second = {"i": ni, "j": nl, "k": nj}
    b.nest(loops=_repeat(reps) + [(v, first[v]) for v in order],
           body=[b.stmt(update("tmp", "i", "j"), read("A", "i", "k"),
                        read("B", "k", "j"), fma=1, reduction="k")])
    b.nest(loops=_repeat(reps) + [(v, second[v]) for v in order],
           body=[b.stmt(update("D", "i", "j"), read("tmp", "i", "k"),
                        read("C", "k", "j"), fma=1, reduction="k")])
    return b.build().nests


def _jacobi(n: int, reps: int = 1) -> tuple[LoopNest, ...]:
    b = KernelBuilder(f"jacobi_{n}_r{reps}")
    b.array("A", (n, n))
    b.array("B", (n, n))
    b.nest(loops=_repeat(reps) + [("i", 1, n - 1), ("j", 1, n - 1)],
           body=[b.stmt(write("B", "i", "j"), read("A", "i", "j"),
                        read("A", "i-1", "j"), read("A", "i+1", "j"),
                        read("A", "i", "j-1"), read("A", "i", "j+1"),
                        fadd=4, fmul=1)])
    return b.build().nests


def _gather(n: int, elements: int, reps: int = 1) -> tuple[LoopNest, ...]:
    b = KernelBuilder(f"gather_{n}_{elements}_r{reps}")
    b.array("y", (n,))
    b.array("x", (elements,))
    b.nest(loops=_repeat(reps) + [("i", n)],
           body=[b.stmt(update("y", "i"), read("x", "i", indirect=True), fadd=1)])
    return b.build().nests


#: kind -> size -> builder.  Every size of a kind makes about the same
#: number of accesses (12k; 18k for the two-nest 2mm); the footprint
#: sets the regime on the tiny hierarchy: S < 4 KiB (fits L1),
#: 4 KiB < M < 16 KiB (fits L2), L > 16 KiB (exceeds L2).  The L stream
#: and gather also exceed the A64FX L2 (24 MiB and 16 MiB).
POOL = {
    "stream": {"S": lambda: _stream(128, reps=32),
               "M": lambda: _stream(512, reps=8),
               "L": lambda: _stream(1 << 20, step=256)},
    "gemm_ijk": {"S": lambda: _gemm("ijk", 8, 8, 8, reps=6),
                 "M": lambda: _gemm("ijk", 4, 24, 32),
                 "L": lambda: _gemm("ijk", 1, 48, 64)},
    "gemm_ikj": {"S": lambda: _gemm("ikj", 8, 8, 8, reps=6),
                 "M": lambda: _gemm("ikj", 4, 24, 32),
                 "L": lambda: _gemm("ikj", 1, 48, 64)},
    "2mm_ijk": {"S": lambda: _2mm("ijk", 4, 4, 4, 4, reps=36),
                "M": lambda: _2mm("ijk", 2, 32, 36, 36),
                "L": lambda: _2mm("ijk", 1, 48, 48, 48)},
    "2mm_ikj": {"S": lambda: _2mm("ikj", 4, 4, 4, 4, reps=36),
                "M": lambda: _2mm("ikj", 2, 32, 36, 36),
                "L": lambda: _2mm("ikj", 1, 48, 48, 48)},
    "jacobi": {"S": lambda: _jacobi(14, reps=14),
               "M": lambda: _jacobi(28, reps=3),
               "L": lambda: _jacobi(46)},
    "gather": {"S": lambda: _gather(128, 256, reps=32),
               "M": lambda: _gather(512, 1024, reps=8),
               "L": lambda: _gather(4096, 1 << 21)},
}


def draw(seed: int) -> dict[str, str]:
    """The seeded draw: which kind is traced at which size."""
    kinds = list(POOL)
    random.Random(f"trace-pool|{seed}").shuffle(kinds)
    return dict(zip(kinds, DRAW_SIZES))


def _nests(kind: str, size: str) -> list[tuple[str, LoopNest]]:
    """The nests of one pool entry, labelled with their pool id (which the
    traced run records as the operation id of each ``trace_traffic``)."""
    out = []
    for nest in POOL[kind][size]():
        nid = f"{kind}/{size}/{nest.label}"
        out.append((nid, replace(nest, label=nid)))
    return out


def build_draw(seed: int) -> list[tuple[str, LoopNest]]:
    """``(nest id, nest)`` for every nest of the draw, in pool order."""
    chosen = draw(seed)
    return [item for kind in POOL for item in _nests(kind, chosen[kind])]


def build_pool() -> list[tuple[str, LoopNest]]:
    """``(nest id, nest)`` for the whole pool (golden generation)."""
    return [item for kind in POOL for size in SIZES for item in _nests(kind, size)]
