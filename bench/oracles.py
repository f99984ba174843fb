"""Reference computations the benchmark checks cipid's outputs against.

Everything here is written apart from cipid and works on dense numpy
arrays whose axis 0 is the target and whose axis i >= 1 is predictor i.
Information is in bits.  scipy serves only the garbling test, as a
linear-programming solver other than cipid's own simplex.
"""

from __future__ import annotations

import itertools

import numpy as np

TOL = 1e-9


def entropy(p: np.ndarray) -> float:
    q = p[p > 0.0]
    return float(-np.sum(q * np.log2(q)))


def marginal(p: np.ndarray, axes) -> np.ndarray:
    """Marginal over ``axes``, with the axes kept in ascending order."""
    keep = sorted(set(axes))
    drop = tuple(a for a in range(p.ndim) if a not in keep)
    return p.sum(axis=drop)


def mutual_information(p: np.ndarray, a, b) -> float:
    """I(A;B) = H(A) + H(B) - H(A u B); overlapping groups are allowed."""
    a, b = set(a), set(b)
    return (entropy(marginal(p, a)) + entropy(marginal(p, b))
            - entropy(marginal(p, a | b)))


def cond_entropy(p: np.ndarray, a, given) -> float:
    a, given = set(a), set(given)
    return entropy(marginal(p, a | given)) - entropy(marginal(p, given))


# ---------------------------------------------------------------------------
# union information from conditional-independence surrogates
# ---------------------------------------------------------------------------


def normalize(p: np.ndarray, sources) -> list[frozenset]:
    """Drop sources contained in another, then sources determined by another.

    Subsets go first (the first of equal sources stays); then, scanning
    from the last source, one with H(S_j | S_i) <= 1e-9 for a retained
    S_i is dropped.
    """
    srcs = [frozenset(s) for s in sources]
    keep = [s for i, s in enumerate(srcs)
            if not any(s < o or (s == o and j < i)
                       for j, o in enumerate(srcs) if j != i)]
    i = len(keep) - 1
    while i >= 0 and len(keep) > 1:
        if any(cond_entropy(p, keep[i], o) <= TOL
               for k, o in enumerate(keep) if k != i):
            keep.pop(i)
        i -= 1
    return keep


def admissible_partitions(pooled, sources) -> list[list[frozenset]]:
    """Set partitions of ``pooled`` whose every block fits in one source.

    Grown one variable at a time, so only admissible prefixes are ever
    built: a subset of a fitting block fits too.
    """
    pooled = sorted(pooled)
    sources = [frozenset(s) for s in sources]
    out = []

    def grow(i, blocks):
        if i == len(pooled):
            out.append(blocks)
            return
        v = pooled[i]
        for k, b in enumerate(blocks):
            nb = b | {v}
            if any(nb <= s for s in sources):
                grow(i + 1, blocks[:k] + [nb] + blocks[k + 1:])
        grow(i + 1, blocks + [frozenset([v])])

    grow(0, [])
    return out


def surrogate_information(p: np.ndarray, blocks) -> float:
    """I_q(A;T) for q(t, a) = p(t) * prod_b p(a_b | t), A the union of blocks."""
    axes = [0] + sorted(set().union(*blocks))
    pos = {a: k for k, a in enumerate(axes)}
    p_t = marginal(p, [0])
    shape = [p.shape[a] for a in axes]
    q = p_t.reshape([-1] + [1] * (len(axes) - 1)).copy()
    for b in blocks:
        bt = [0] + sorted(b)
        joint = marginal(p, bt)
        cond = np.divide(joint, p_t.reshape([-1] + [1] * len(b)),
                         out=np.zeros_like(joint),
                         where=p_t.reshape([-1] + [1] * len(b)) > 0.0)
        view = [1] * len(axes)
        for a in bt:
            view[pos[a]] = shape[pos[a]]
        q = q * cond.reshape(view)
    q = np.broadcast_to(q, shape)
    return entropy(q.sum(axis=0)) + entropy(p_t) - entropy(q)


def ci_union(p: np.ndarray, sources) -> float:
    """min(I_p(A;T), max over admissible partitions of I_q(A;T))."""
    norm = normalize(p, sources)
    pooled = set().union(*norm)
    i_p = mutual_information(p, pooled, [0])
    best = max(surrogate_information(p, part)
               for part in admissible_partitions(pooled, norm))
    return min(i_p, best)


def ci_synergy(p: np.ndarray, sources) -> float:
    """I(all predictors; T) minus the CI union information."""
    everything = set(range(1, p.ndim)).union(*map(set, sources))
    return mutual_information(p, everything, [0]) - ci_union(p, sources)


# ---------------------------------------------------------------------------
# channels and degradation
# ---------------------------------------------------------------------------


def channel(p: np.ndarray, axes) -> np.ndarray:
    """p(y_axes | t) as a |T| x prod|Y| row-stochastic matrix."""
    joint = marginal(p, [0] + list(axes)).reshape(p.shape[0], -1)
    return joint / joint.sum(axis=1, keepdims=True)


def channel_information(w: np.ndarray, k: np.ndarray) -> float:
    """I(T;Q) for target marginal ``w`` and channel ``k`` = p(q | t)."""
    return mutual_information(w[:, None] * k, [0], [1])


def garbling_residual(k_better: np.ndarray, k_worse: np.ndarray) -> float:
    """min over row-stochastic M of max |k_better @ M - k_worse|, by HiGHS."""
    from scipy.optimize import linprog

    nt, ny = k_better.shape
    nq = k_worse.shape[1]
    nm = ny * nq
    # variables: M (row-major) then the bound e; minimise e
    c = np.zeros(nm + 1)
    c[-1] = 1.0
    a_ub, b_ub = [], []
    for t in range(nt):
        for q in range(nq):
            row = np.zeros(nm + 1)
            row[q:nm:nq] = k_better[t]
            for sign in (1.0, -1.0):
                r = sign * row
                r[-1] = -1.0
                a_ub.append(r)
                b_ub.append(sign * k_worse[t, q])
    a_eq = np.zeros((ny, nm + 1))
    for y in range(ny):
        a_eq[y, y * nq:(y + 1) * nq] = 1.0
    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub), A_eq=a_eq,
                  b_eq=np.ones(ny), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"garbling LP ended with status {res.status}: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# distributions the paper fixes
# ---------------------------------------------------------------------------


def _uniform(shape, rows) -> np.ndarray:
    p = np.zeros(shape)
    for r in rows:
        p[r] += 1.0 / len(rows)
    return p


XOR = _uniform((2, 2, 2), [(0, 0, 0), (1, 0, 1), (1, 1, 0), (0, 1, 1)])
AND = _uniform((2, 2, 2), [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 1, 1)])
# the target is the pair (Y1, Y2), coded 2*y1 + y2
COPY = _uniform((4, 2, 2), [(0, 0, 0), (1, 0, 1), (2, 1, 0), (3, 1, 1)])
BOOM = _uniform((3, 3, 3), [(0, 0, 2), (1, 0, 0), (1, 1, 2),
                            (2, 0, 0), (2, 2, 0), (2, 2, 1)])
# the channel p(q | t) printed in the paper's BOOM example, one row per t
BOOM_Q = np.array([[0.0, 1.0, 0.0], [0.0, 0.75, 0.25], [1 / 3, 1 / 3, 1 / 3]])


def family(name: str, r: float) -> np.ndarray:
    """The three parametric families, indexed [t, y1, y2]."""
    p = np.zeros((2, 2, 2))
    if name == "ADAPTED_XOR":
        cells = {(0, 0, 0): r / 4, (1, 0, 0): (1 - r) / 4, (1, 1, 0): 0.25,
                 (1, 0, 1): 0.25, (0, 1, 1): 0.25}
    elif name == "ADAPTED_XOR_V2":
        cells = {(0, 0, 0): r / 10, (1, 0, 0): (1 - r) / 10, (1, 1, 0): 0.4,
                 (1, 0, 1): 0.4, (0, 1, 1): 0.1}
    elif name == "ADAPTED_REDUCED_OR":
        cells = {(0, 0, 0): 0.5, (1, 0, 0): r / 4, (1, 1, 0): (1 - r) / 4,
                 (1, 0, 1): (1 - r) / 4, (1, 1, 1): r / 4}
    else:
        raise KeyError(name)
    for cell, v in cells.items():
        p[cell] = v
    return p


# ---------------------------------------------------------------------------
# bounds every measure must obey
# ---------------------------------------------------------------------------


def measure_bounds(p: np.ndarray, measure: str) -> tuple[float, float]:
    """Interval [lo, hi] a measure's value must lie in, for singleton sources.

    ``s_wms`` and ``i_total`` are pinned to their exact values.
    """
    preds = range(1, p.ndim)
    whole = mutual_information(p, preds, [0])
    singles = [mutual_information(p, [i], [0]) for i in preds]
    bounds = {
        "i_total": (whole, whole),
        "s_wms": (whole - sum(singles), whole - sum(singles)),
        "i_cup_ci": (max(singles), whole),
        "i_cup_vk": (max(singles), whole),
        "i_cup_wb": (max(singles), whole),
        "s_ci": (0.0, whole - max(singles)),
        "s_d": (0.0, whole - max(singles)),
        "s_wb": (0.0, whole - max(singles)),
        "s_dep": (0.0, whole),
        "imin": (0.0, min(singles)),
        "i_cap_d": (0.0, min(singles)),
        "delta_i": (0.0, np.inf),
    }
    return bounds[measure]


def dense(shape, pmf: dict) -> np.ndarray:
    """Dense array from a mapping of index tuples to probabilities."""
    p = np.zeros(shape)
    for cell, v in pmf.items():
        p[tuple(cell)] += v
    return p


def cells(shape):
    return list(itertools.product(*(range(k) for k in shape)))
