"""Seeded corpus generators for the benchmark.

Every generator takes a ``random.Random`` and returns Gauss-code text, so
the program under test receives nothing but the generated inputs.  They
deliberately do not import ``tests/helpers.py``: an edit to a test must not
shift the benchmark's inputs.  The survey draws its diagrams from the
workload seed; the search workloads draw a fixed table and use the workload
seed for its presentation (see ``workloads.TABLE_SEED``).

Sizes are stratified.  The crossing counts, strand counts and word lengths
of a workload follow a fixed schedule that spreads them over the stated
range, and the seed only picks the diagrams themselves and their order.
Circle-walk and search costs grow quickly with size, so drawing sizes at
random would make the per-seed cost swing with how many large codes the
draw happened to contain.
"""

from __future__ import annotations

# Fixtures from the paper (same text as the package's acceptance tests, kept
# here so that the benchmark does not depend on the test suite).
TREFOIL = "O1-U2-O3-U1-O2-U3-"
EIGHT_20 = "O1+U2-U3+O4+O5-U1+U6-O7-U8-U5-O2-O6-U7-O3+U4+O8-"
DT_FIXTURES = (
    "-12 26 22 -14 28 -2 -20 30 -24 8 -32 -16 4 10 18 -6",  # genus 3
    "4 10 -26 -22 -18 2 20 -16 -32 -28 14 30 -6 -12 -8 24",  # genus 5
)

# Rotation-symmetric torus closures T(p, q) = closure of (s1 ... s_{p-1})^q.
TORUS = ((3, 4), (3, 5), (3, 7), (4, 5))


def _unit(kind: str, label: int, sign: int) -> str:
    return f"{kind}{label}{'+' if sign > 0 else '-'}"


def log_schedule(count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes at the quantile midpoints of log-uniform on [lo, hi]."""
    ratio = hi / lo
    return [round(lo * ratio ** ((i + 0.5) / count)) for i in range(count)]


def random_diagram(rng, n: int) -> str:
    """Uniform random chord diagram on n chords (a virtual diagram).

    Each chord gets a random over/under order and a random sign.
    """
    slots = list(range(2 * n))
    rng.shuffle(slots)
    units = [""] * (2 * n)
    for label in range(1, n + 1):
        a, b = slots[2 * label - 2], slots[2 * label - 1]
        if rng.random() < 0.5:
            a, b = b, a
        sign = rng.choice((1, -1))
        units[a] = _unit("O", label, sign)
        units[b] = _unit("U", label, sign)
    return "".join(units)


def braid_word(rng, strands: int, length: int) -> list[tuple[int, int]]:
    """A random braid word: ``length`` letters (generator j, exponent +-1)."""
    return [(rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)]


def pad_word(rng, word: list[tuple[int, int]], strands: int, pairs: int) -> list[tuple[int, int]]:
    """Insert ``pairs`` cancelling s_j s_j^-1 pairs at random places.

    The braid, and so the knot, is unchanged; each pair is a genuine
    Reidemeister-II pair in the closure's Gauss code.
    """
    word = list(word)
    for _ in range(pairs):
        j = rng.randint(1, strands - 1)
        eps = rng.choice((1, -1))
        at = rng.randint(0, len(word))
        word[at:at] = [(j, eps), (j, -eps)]
    return word


def torus_word(p: int, q: int) -> list[tuple[int, int]]:
    return [(j, 1) for _ in range(q) for j in range(1, p)]


def closure_code(word: list[tuple[int, int]], strands: int) -> str | None:
    """Gauss code of the braid closure, or None if it has several components.

    The strand starts in slot 1 before the first letter; letter s_j^e swaps
    slots j and j+1, the strand leaving slot j passing over when e = +1.
    The result is planar-realizable.
    """
    length = len(word)
    if length == 0:
        return None
    visits = []
    slot, t = 1, 0
    while True:
        j, eps = word[t]
        if slot == j or slot == j + 1:
            from_left = slot == j
            kind = "O" if (eps == 1) == from_left else "U"
            visits.append((t, kind, eps))
            slot = j + 1 if from_left else j
        t = (t + 1) % length
        if slot == 1 and t == 0:
            break
    if len(visits) != 2 * length:
        return None
    labels: dict[int, int] = {}
    return "".join(
        _unit(kind, labels.setdefault(letter, len(labels) + 1), eps)
        for letter, kind, eps in visits
    )


def braid_knot(rng, strands: int, length: int, pairs: int = 0) -> str:
    """A one-component closure of a random ``strands``-strand braid word.

    ``length`` letters are drawn, then ``pairs`` cancelling pairs are added.
    Words whose closure has several components are redrawn.  A closure on
    all strands is one component only if the word's permutation is a
    ``strands``-cycle, which needs at least ``strands - 1`` letters and the
    same parity, so ``length`` is first moved to the nearest such value.
    """
    if (length - strands + 1) % 2:
        length -= 1
    if length < strands - 1:
        length = strands - 1
    while True:
        word = pad_word(rng, braid_word(rng, strands, length), strands, pairs)
        code = closure_code(word, strands)
        if code is not None:
            return code


def relabel(rng, code: str) -> str:
    """The same diagram with its crossing labels permuted at random."""
    units = split_units(code)
    labels = sorted({int(u[1:-1]) for u in units})
    shuffled = labels[:]
    rng.shuffle(shuffled)
    new = dict(zip(labels, shuffled))
    return "".join(f"{u[0]}{new[int(u[1:-1])]}{u[-1]}" for u in units)


def present(rng, code: str) -> str:
    """A random presentation of the same diagram: relabelled and rotated.

    Search canonicalizes its root, so its result does not depend on the
    presentation.
    """
    code = relabel(rng, code)
    return rotate(code, rng.randrange(len(split_units(code))))


def rotate(code: str, offset: int) -> str:
    """The same cyclic code written from another unit."""
    units = split_units(code)
    offset %= len(units)
    return "".join(units[offset:] + units[:offset])


def split_units(code: str) -> list[str]:
    units, start = [], 0
    for i, ch in enumerate(code):
        if ch in "+-":
            units.append(code[start : i + 1])
            start = i + 1
    return units


def malformed(rng, code: str, variant: int) -> str:
    """A broken copy of ``code``; each variant breaks a different invariant."""
    units = split_units(code)
    i = rng.randrange(len(units))
    u = units[i]
    if variant == 0:  # not a unit at all
        units[i] = "X" + u[1:]
    elif variant == 1:  # a label seen once
        del units[i]
    elif variant == 2:  # a label passing over twice (or under twice)
        units[i] = ("U" if u[0] == "O" else "O") + u[1:]
    else:  # a label carrying two signs
        units[i] = u[:-1] + ("-" if u[-1] == "+" else "+")
    return "".join(units)

