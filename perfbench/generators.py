"""Input generators for the benchmark workloads.

Cones are described by their blocks S (generators [[0, S], [0, 0]] of
sp(2g)) or their vectors lambda (K3-type generators N_lambda), turned into
plain JSON-ready data of the shape the CLI reads.  The benchmark rebuilds each
cone from its JSON, through ``NilpotentCone`` validation, for every timed
operation.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _frac_rows(rows) -> list[list[str]]:
    return [[str(Fraction(x)) for x in row] for row in rows]


def _cone_json(dim: int, weight: int, form, generators) -> dict:
    return {
        "dim": dim,
        "weight": weight,
        "symmetry": "symmetric" if weight % 2 == 0 else "alternating",
        "form": _frac_rows(form),
        "generators": [_frac_rows(n) for n in generators],
    }


# ---------------------------------------------------------------------------
# Graphic cones: a 2-edge-connected multigraph gives one generator per edge.


def ear_graph(rng: random.Random, cycle: int, ears, closed=()):
    """A cycle of ``cycle`` edges plus one ear of each length in ``ears``.

    Ear i starts and ends on one random vertex when i is in ``closed`` and on
    two distinct random vertices otherwise; a closed ear needs two edges, so
    the multigraph is loop-free and 2-edge-connected with first Betti number
    1 + len(ears).  Returns (vertex count, edge list of (u, v) pairs).
    """
    if cycle < 2 or any(length < 2 for i, length in enumerate(ears) if i in closed):
        raise ValueError("the cycle and every closed ear need two edges")
    n_vertices = cycle
    out = [(i, (i + 1) % cycle) for i in range(cycle)]
    for i, length in enumerate(ears):
        a = rng.randrange(n_vertices)
        b = a if i in closed else rng.choice([v for v in range(n_vertices) if v != a])
        path = [a] + list(range(n_vertices, n_vertices + length - 1)) + [b]
        n_vertices += length - 1
        out.extend(zip(path, path[1:]))
    return n_vertices, out


def cycle_vectors(n_vertices: int, edges) -> list[list[int]]:
    """gamma_e in Z^g: the coefficient of edge e in each fundamental cycle of a
    BFS spanning tree (edges oriented u -> v as listed)."""
    adjacency = {v: [] for v in range(n_vertices)}
    for idx, (u, v) in enumerate(edges):
        adjacency[u].append((idx, v))
        adjacency[v].append((idx, u))
    parent_edge = {0: None}
    order = [0]
    for v in order:
        for idx, w in adjacency[v]:
            if w not in parent_edge:
                parent_edge[w] = (idx, v)
                order.append(w)
    if len(parent_edge) != n_vertices:
        raise ValueError("graph is not connected")
    tree = {pe[0] for pe in parent_edge.values() if pe is not None}
    chords = [idx for idx in range(len(edges)) if idx not in tree]

    def path_to_root(v):
        out = []
        while parent_edge[v] is not None:
            idx, up = parent_edge[v]
            out.append((idx, up, v))  # tree edge walked from v up to its parent
            v = up
        return out

    gammas = [[0] * len(chords) for _ in edges]
    for j, chord in enumerate(chords):
        a, b = edges[chord]
        gammas[chord][j] += 1
        # Close the cycle a -> b with the tree path b -> root -> a.
        for idx, up, down in path_to_root(b):
            gammas[idx][j] += 1 if edges[idx] == (down, up) else -1
        for idx, up, down in path_to_root(a):
            gammas[idx][j] -= 1 if edges[idx] == (down, up) else -1
    return gammas


def symplectic_form(g: int) -> list[list[int]]:
    """Q = [[0, -I], [I, 0]] on Q^{2g}."""
    n = 2 * g
    return [
        [-1 if j == i + g else 1 if i == j + g else 0 for j in range(n)]
        for i in range(n)
    ]


def upper_block(s) -> list[list[int]]:
    """N = [[0, S], [0, 0]] for a symmetric g x g block S (the gallery's
    block placement, so that the theta graph reproduces its genus-2 cone)."""
    g = len(s)
    return [
        [s[i][j - g] if i < g <= j else 0 for j in range(2 * g)] for i in range(2 * g)
    ]


def graph_blocks(n_vertices: int, edges) -> list:
    """The blocks S_e = gamma_e gamma_e^T, one per edge."""
    return [[[a * b for b in gam] for a in gam] for gam in cycle_vectors(n_vertices, edges)]


def sp_cone(blocks) -> dict:
    """The cone of generators [[0, S], [0, 0]] on Q^{2g}, one per block S."""
    g = len(blocks[0])
    return _cone_json(2 * g, 1, symplectic_form(g), [upper_block(s) for s in blocks])


def theta_cone() -> dict:
    return sp_cone(graph_blocks(2, [(0, 1)] * 3))


# ---------------------------------------------------------------------------
# Deep cones: few index sets on a large isometry algebra.


def psd_blocks(rng: random.Random, g: int, k: int) -> list:
    """k distinct blocks S = A A^T for random A in {-1, 0, 1}^{g x 2}:
    symmetric with entries in [-2, 2], and positive semidefinite like the
    monodromy logarithms of a polarized degeneration (with an indefinite S
    two strata can coincide, and separation_check rightly raises)."""
    blocks = []
    while len(blocks) < k:
        a = [[rng.randint(-1, 1) for _ in range(2)] for _ in range(g)]
        s = [[sum(x * y for x, y in zip(a[i], a[j])) for j in range(g)] for i in range(g)]
        if any(any(row) for row in s) and s not in blocks:
            blocks.append(s)
    return blocks


def k3_vectors(rng: random.Random, b: int, k: int) -> list:
    """k distinct nonzero lambda in {0, 1, 2}^b, so the K3-type cone is
    pointed, as a monodromy cone is (with opposite generators the relation
    spaces miss the coordinate directions of K, and positive_basis rightly
    raises)."""
    vectors = []
    while len(vectors) < k:
        lam = [rng.randint(0, 2) for _ in range(b)]
        if any(lam) and lam not in vectors:
            vectors.append(lam)
    return vectors


def k3_type_cone(vectors) -> dict:
    """Weight-2 cone on <e> + L + <f> with Q(e, f) = 1 and Q|_L = -I_b.

    N_lambda sends f to lambda, v in L to -Q(lambda, v) e and kills e, so the
    generators preserve Q, commute, and have N^2 f = -Q(lambda, lambda) e.
    """
    n = len(vectors[0]) + 2
    form = [[0] * n for _ in range(n)]
    form[0][n - 1] = form[n - 1][0] = 1
    for i in range(1, n - 1):
        form[i][i] = -1
    gens = []
    for lam in vectors:
        m = [[0] * n for _ in range(n)]
        for i, x in enumerate(lam):
            m[1 + i][n - 1] = x  # N f = lambda
            m[0][1 + i] = x  # N v = -Q(lambda, v) e = (lambda . v) e
        gens.append(m)
    return _cone_json(n, 2, form, gens)


# ---------------------------------------------------------------------------
# Seeded relabelling: an isometry of (V, Q) plus a new generator order.


def _signed_permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(n)]


def relabel_blocks(rng: random.Random, blocks) -> list:
    """S -> P S P^T for one random signed permutation P, which the isometry
    diag(P, P) of Q = [[0, -I], [I, 0]] induces; generators shuffled."""
    perm, sign = _signed_permutation(rng, len(blocks[0]))
    out = [
        [[sign[i] * sign[j] * s[perm[i]][perm[j]] for j in range(len(s))] for i in range(len(s))]
        for s in blocks
    ]
    rng.shuffle(out)
    return out


def relabel_vectors(rng: random.Random, vectors) -> list:
    """lambda -> P lambda for a random signed permutation P of L (an isometry
    of Q|_L = -I); generators shuffled."""
    perm, sign = _signed_permutation(rng, len(vectors[0]))
    out = [[sign[i] * lam[perm[i]] for i in range(len(lam))] for lam in vectors]
    rng.shuffle(out)
    return out
