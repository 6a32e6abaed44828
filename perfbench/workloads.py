"""The benchmark's workloads: real ``triline`` CLI jobs, and why each one.

A job is a list of CLI invocations, each run in a fresh interpreter, one
after the other.  ``{out}`` in an argv stands for the job's output
directory.  The inputs are exhaustive enumerations, so the benchmark seed
changes nothing; it is accepted and recorded only.

Left out on purpose: ``expand --kmax 6`` (about 19 min serial) waits until
the census reaches it, and the pytest suite is a developer job whose
content changes with every change that adds tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from pathlib import Path
from typing import Callable

import checks


def ab_pairings(kmax: int) -> int:
    """Distinct ab pairings through order kmax: sum of (2k)! for k <= kmax."""
    return sum(factorial(2 * k) for k in range(1, kmax + 1))


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[tuple[str, ...], ...]
    # distinct ab pairings the job covers; pairings_per_s divides it by wall_s
    pairings: int
    # output check on the job's output directory; returns the problems found
    check: Callable[[Path], list[str]]


def build(selftest: bool = False) -> dict[str, Workload]:
    """The three workloads; ``selftest`` shrinks the orders to k <= 3."""
    k5, k4 = (3, 3) if selftest else (5, 4)

    # expand-k5: the user's headline job, serial (threads 1), the plain
    # single-threaded baseline.  At seed the census takes about 97% of the
    # wall time (two full census passes per order) and series under 0.1%.
    # Checked against F(g) through g^5 and Tutte's closed count of rooted
    # planar 4-regular maps.
    expand = Workload(
        name="expand-k5",
        steps=(("expand", "--kmax", str(k5), "--threads", "1",
                "--out", "{out}/expand.json"),),
        pairings=ab_pairings(k5),
        check=lambda out: checks.check_expand(out / "expand.json", k5),
    )

    # verify-k5: one verification pass.  It uses the census differently
    # from expand-k5: the parallel process-pool fold on 2 workers, six
    # census passes per order.  It is the only workload that reaches
    # oracle, gaussian and the series log/double-limit checks.  Every suite
    # must exit 0.
    verify = Workload(
        name="verify-k5",
        steps=(("verify", "logcheck", "--kmax", str(k5), "--threads", "2"),
               ("verify", "euler", "--kmax", str(k4)),
               ("verify", "wick", "--N", "4", "--d", "3"),
               ("verify", "propagators", "--N", "5", "--d", "3")),
        pairings=ab_pairings(k5),
        check=lambda out: [],
    )

    # knots-k4: never calls the census.  It is the per-pairing Python path
    # (enumerate_matchings, components_and_genus, to_gauss_code,
    # canonical_code, reduce_R1): the bypass side for any census
    # optimisation, and the exercised side once knots move onto the
    # batched tracer.  A job takes about 1.2 s, so a run repeats it.
    knots = Workload(
        name="knots-k4",
        steps=(("knots", "--kmax", str(k4), "--out", "{out}/knots.jsonl"),),
        pairings=ab_pairings(k4),
        check=lambda out: checks.check_knots(out / "knots.jsonl", k4),
    )
    return {w.name: w for w in (expand, verify, knots)}
