"""Seeded op lists for the four benchmark workloads.

An op is one CLI request: ``{"argv": [...], "kind": ...}`` plus the fields
the checker needs.  Ops come in *blocks*.  A block holds every combination
of the inputs that set an op's cost (claim and n-max; shift window and
n-max; shift, size and family; family and a twelfth of the start range)
the same number of times.  The seed draws the rest (table families
balanced per n-max, b, k, windows inside each twelfth) and the order, in
which the ops of each cost class are spaced evenly over the block.  Runs on
different seeds send different requests with the same cost mix, and a run
measures whole blocks only, so its medians do not depend on where the time
ran out.
"""

from __future__ import annotations

import random
from time import perf_counter

WORKLOADS = ("verify-claims", "table-int", "det-poly", "cli-cold")

CLAIMS = ("t1", "t6", "t7", "t8", "t9", "c10", "c11", "c12", "patterns")

# verify.default_range(claim).n_max at the commit that defined the benchmark.
# Copied, not imported, so that a program change cannot change the workload.
DEFAULT_N_MAX = {"t1": 25, "t6": 15, "t7": 15, "t8": 10, "t9": 10,
                 "c10": 15, "c11": 15, "c12": 15, "patterns": 21}

FORMATS = ("text", "json", "csv")

# Blocks drawn per run; a program fast enough to finish them all starts again
# at the first.
BLOCKS = 12


def _family_args(family: str, b: int | None = None, k: int | None = None) -> list[str]:
    args = ["--family", family]
    if family == "m-numbers":
        args += ["--b", str(b)]
    if family == "conv":
        args += ["--k", str(k)]
    return args


def _family(rng: random.Random, kind: str) -> dict:
    """Family fields for one op; b and k are drawn where the family has them."""
    if kind == "m-numbers":
        return {"family": kind, "b": rng.randint(-2, 3), "k": None}
    if kind == "conv":
        return {"family": kind, "b": None, "k": rng.randint(1, 7)}
    return {"family": kind, "b": None, "k": None}


def _balanced(rng: random.Random, values, count: int) -> list:
    """``count`` draws in which every value appears as evenly as possible."""
    values = list(values)
    out = values * (count // len(values)) + rng.sample(values, count % len(values))
    rng.shuffle(out)
    return out


def _spread_out(rng: random.Random, ops: list[dict], cost_class) -> list[dict]:
    """A seeded order of ``ops`` in which the ops of each cost class are
    spaced evenly over the block, so that a slow spell of the machine falls
    on every class alike instead of on whichever the shuffle put there."""
    classes: dict = {}
    for op in ops:
        classes.setdefault(cost_class(op), []).append(op)
    placed = []
    for group in classes.values():
        rng.shuffle(group)
        offset = rng.random()
        placed += [((i + offset) / len(group), rng.random(), op) for i, op in enumerate(group)]
    placed.sort(key=lambda p: p[:2])
    return [op for _, _, op in placed]


def _verify_op(claim: str, n_max: int, fmt: str) -> dict:
    return {"kind": "verify", "claim": claim, "n_max": n_max, "format": fmt,
            "argv": ["verify", claim, "--n-max", str(n_max), "--format", fmt]}


def _table_op(fam: dict, lo: int, hi: int, n_max: int, fmt: str) -> dict:
    argv = ["table", *_family_args(**fam), "--shift", str(lo), "--shift-max", str(hi),
            "--n-max", str(n_max), "--format", fmt]
    return {"kind": "table", **fam, "lo": lo, "hi": hi, "n_max": n_max,
            "format": fmt, "argv": argv}


def _det_op(fam: dict, shift: int, size: int, fmt: str) -> dict:
    argv = ["det", *_family_args(**fam), "--shift", str(shift), "--size", str(size),
            "--format", fmt]
    return {"kind": "det", **fam, "shift": shift, "size": size, "format": fmt,
            "argv": argv}


def _gen_op(fam: dict, start: int, stop: int, fmt: str) -> dict:
    argv = ["gen", *_family_args(**fam), "--from", str(start), "--to", str(stop),
            "--format", fmt]
    return {"kind": "gen", **fam, "start": start, "stop": stop, "format": fmt,
            "argv": argv}


def _verify_block(rng: random.Random, tiny: bool) -> list[dict]:
    ops = [_verify_op(c, n, "json") for c in CLAIMS
           for n in ((3,) if tiny else range(DEFAULT_N_MAX[c], DEFAULT_N_MAX[c] + 4))]
    return _spread_out(rng, ops, lambda op: op["claim"])


TABLE_KINDS = ("catalan", "central-binomial", "m-numbers", "conv")

# Each n-max appears twice per window.  A forward window costs about 2.3
# times more at n-max 25 than at 21 and a backward one far less, so op costs
# form clusters; with 20 forward ops at each n-max the median and the tail
# percentile (ten ops beyond it) fall inside a cluster, not on the edge
# between two, where one slow op would move them by the gap.
TABLE_N_MAX = (21, 25, 21, 25)


def _table_block(rng: random.Random, tiny: bool) -> list[dict]:
    # Two-row windows [c, c+1] for c in -8..7 cover shifts -8..8; [-1, 0]
    # straddles 0.  The family is drawn, balanced per n-max, and b and k are
    # drawn, balanced over the block.
    starts = range(-8, 8, 5 if tiny else 1)
    slots = [(c, n) for n in ((4,) if tiny else TABLE_N_MAX) for c in starts]
    kinds = [k for _ in range(len(slots) // len(starts))
             for k in _balanced(rng, TABLE_KINDS, len(starts))]
    bs = _balanced(rng, range(-2, 4), kinds.count("m-numbers"))
    ks = _balanced(rng, range(1, 8), kinds.count("conv"))
    ops = []
    for (c, n), kind in zip(slots, kinds):
        fam = {"family": kind,
               "b": bs.pop() if kind == "m-numbers" else None,
               "k": ks.pop() if kind == "conv" else None}
        ops.append(_table_op(fam, c, c + 1, n, "text"))
    return _spread_out(rng, ops, lambda op: (op["n_max"], op["lo"] >= 0))


def _det_poly_block(rng: random.Random, tiny: bool) -> list[dict]:
    # Every shift meets every size in both families, since narayana-b costs
    # about 1.3 times narayana-c: a drawn family would move the medians by
    # which slots it fell on.  Sizes 15 and 16 are left out to keep a block
    # near 30 s at the defining commit.
    ops = [_det_op(_family(rng, f), s, size, "text")
           for size in ((4,) if tiny else range(10, 15))
           for s in range(-4, 5, 4 if tiny else 1)
           for f in ("narayana-c", "narayana-b")]
    return _spread_out(rng, ops, lambda op: (op["size"], op["family"]))


# (first start, last start, widest window) per family for cli-cold gen ops.
# Catalan, central binomials and convolution powers are cheap per term, so
# they take the full 0..4000 range; m-numbers cost O(n) big-int terms each
# and Narayana rows grow quadratically in output size, so their windows are
# kept small enough that one op stays near a second.
GEN_RANGES = {
    "catalan": (0, 4000, 400),
    "central-binomial": (0, 4000, 400),
    "conv": (0, 4000, 400),
    "m-numbers": (0, 300, 100),
    "narayana-c": (0, 200, 100),
    "narayana-b": (0, 200, 100),
}
TINY_GEN_RANGES = {name: (0, 600 if name == "catalan" else 60, 4) for name in GEN_RANGES}


def _parts(first: int, last: int, count: int) -> list[tuple[int, int]]:
    """``count`` consecutive, nearly equal sub-ranges of [first, last]."""
    step = (last - first + 1) / count
    return [(first + round(i * step), first + round((i + 1) * step) - 1) for i in range(count)]


COLD_WINDOWS = 12  # gen windows per family in one cli-cold block


def _cold_block(rng: random.Random, tiny: bool) -> list[dict]:
    ranges = TINY_GEN_RANGES if tiny else GEN_RANGES
    small = 4 if tiny else 8
    windows, small_ops = (2, 1) if tiny else (COLD_WINDOWS, len(ranges))
    formats = _balanced(rng, FORMATS, len(ranges) * windows + 3 * small_ops)
    ops = []
    for name, (first, last, widest) in ranges.items():
        # One window from each twelfth of the start range, the i-th twelfth
        # with a width from the i-th twelfth of the widths: every block has
        # the same share of deep (for Catalan: failing) starts and of long
        # outputs.
        for starts, widths in zip(_parts(first, last, windows), _parts(0, widest, windows)):
            start = rng.randint(*starts)
            ops.append(_gen_op(_family(rng, name), start, start + rng.randint(*widths),
                               formats.pop()))
    for _ in range(small_ops):
        ops.append(_det_op(_family(rng, rng.choice(list(ranges))), rng.randint(-4, 4),
                           rng.randint(0, small), formats.pop()))
        lo = rng.randint(-4, 3)
        ops.append(_table_op(_family(rng, rng.choice(list(ranges))), lo,
                             min(4, lo + rng.randint(0, 2)), rng.randint(0, small),
                             formats.pop()))
        ops.append(_verify_op(rng.choice(CLAIMS), rng.randint(2, small), formats.pop()))
    return _spread_out(rng, ops, lambda op: op["family"] if op["kind"] == "gen" else op["kind"])


_BLOCK = {
    "verify-claims": _verify_block,
    "table-int": _table_block,
    "det-poly": _det_poly_block,
    "cli-cold": _cold_block,
}


def make_blocks(workload: str, seed: int, tiny: bool = False) -> list[list[dict]]:
    """The op blocks of one run; the same (workload, seed, tiny) gives the same blocks."""
    rng = random.Random(f"{workload}:{seed}")
    return [_BLOCK[workload](rng, tiny) for _ in range(1 if tiny else BLOCKS)]


def closed_loop(run_op, blocks: list[list[int]], seconds: float | None = None,
                count: int | None = None):
    """Run whole blocks of ops, one op at a time, wrapping round the list.

    Stops after ``count`` blocks, or at the end of the first block that ends
    once ``seconds`` have passed since the first op started.  Returns the
    per-op records and the loop's wall time.
    """
    records = []
    done = 0
    start = perf_counter()
    while (done < count) if count is not None else (perf_counter() - start < seconds):
        records += [run_op(i) for i in blocks[done % len(blocks)]]
        done += 1
    return records, perf_counter() - start
