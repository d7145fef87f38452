"""The exhaustive search against an exact one on rational states.

``exact_search`` is the search of :func:`exhaustive_max_collisions` with
every float replaced by a :class:`fractions.Fraction`: the float centers and
velocities are taken as the dyadic rationals they are, a pair collides only
when it approaches strictly, (v_i - v_j) . dx < 0 with dx = x_i - x_j, and
the exchange v_i' = v_i + t dx, v_j' = v_j - t dx with
t = -(v_i - v_j) . dx / |dx|^2 is exact.  Its memo merges only equal states.
It branches, counts nodes and spends the node budget as the float search
does, so on a tree without merges that differ the two agree node for node.
It is an oracle only: it does not enter the package.
"""

from fractions import Fraction

import pytest

from pinnedballs.dynamics import collide
from pinnedballs.errors import BudgetExceededError
from pinnedballs.geometry import full_contact_graph
from pinnedballs.search import exhaustive_max_collisions
from test_search import DEEP_CASES
from test_search_golden import CASES


def exact_pairs(config):
    """(edge, x_i - x_j, |x_i - x_j|^2) in Fractions per touching edge of the
    full contact graph, in graph order."""
    centers = [[Fraction(x) for x in row] for row in config.centers.tolist()]
    pairs = []
    for i, j in full_contact_graph(config).edges:
        if config.touches(i, j):
            dx = tuple(a - b for a, b in zip(centers[i], centers[j]))
            pairs.append(((i, j), dx, sum(c * c for c in dx)))
    return pairs


def exact_exchange(blocks, pair):
    """The state after the exchange on ``pair``, or None unless it approaches
    strictly; ``blocks`` is a tuple of per-ball tuples of Fractions."""
    (i, j), dx, norm2 = pair
    vi, vj = blocks[i], blocks[j]
    approach = sum((a - b) * c for a, b, c in zip(vi, vj, dx))
    if approach >= 0:
        return None
    t = -approach / norm2
    out = list(blocks)
    out[i] = tuple(a + t * c for a, c in zip(vi, dx))
    out[j] = tuple(b - t * c for b, c in zip(vj, dx))
    return tuple(out)


def exact_blocks(state):
    return tuple(tuple(map(Fraction, block)) for block in state.blocks().tolist())


def exact_replay(config, state, witness):
    """The exact collision count of the schedule ``witness`` from ``state``."""
    pairs = {pair[0]: pair for pair in exact_pairs(config)}
    blocks, collisions = exact_blocks(state), 0
    for edge in witness:
        if (out := exact_exchange(blocks, pairs[edge])) is not None:
            blocks, collisions = out, collisions + 1
    return collisions


def exact_search(config, state, depth_cap, max_nodes):
    """(collisions, witness, nodes explored, truncated) of the exact search,
    with the node budget and the depth cap of :func:`exhaustive_max_collisions`."""
    pairs = exact_pairs(config)
    nodes, truncated, memo = 0, False, {}

    def dfs(blocks, depth):
        nonlocal nodes, truncated
        nodes += 1
        if (blocks, depth) in memo:
            return memo[blocks, depth]
        children = [(p[0], out) for p in pairs if (out := exact_exchange(blocks, p))]
        if depth == depth_cap:
            truncated = truncated or bool(children)
            children = []
        best = (0, ())
        for c, (edge, out) in enumerate(children):
            if nodes >= max_nodes:
                # each call left would count one node and find nothing
                nodes += len(children) - c
                truncated = True
                return best if best[0] else (1, (edge,))
            extra, tail = dfs(out, depth + 1)
            if 1 + extra > best[0]:
                best = (1 + extra, (edge,) + tail)
        memo[blocks, depth] = best
        return best

    found, witness = dfs(exact_blocks(state), 0)
    return found, witness, nodes, truncated


def float_search(config, state, depth_cap, max_nodes):
    """The same tuple from :func:`exhaustive_max_collisions`, memo on."""
    try:
        result = exhaustive_max_collisions(
            config, state, depth_cap, max_branch_edges=10, max_nodes=max_nodes
        )
    except BudgetExceededError as exc:
        result = exc.best
    return result.collisions, result.witness, result.nodes_explored, result.truncated


#: name -> (system, depth cap, node budget): the golden cases under their
#: recorded budget and the deep pins that finish in a few hundred nodes.
TIER1 = {
    **{name: (system, 20, 150) for name, system in CASES.items()},
    **{f"deep{k}": (DEEP_CASES[k], 40, 30_000) for k in (0, 1, 2, 5)},
}


@pytest.mark.parametrize("name", list(TIER1))
def test_float_search_matches_exact_search(name):
    (config, state), depth_cap, max_nodes = TIER1[name]
    found, witness, nodes, truncated = float_search(config, state, depth_cap, max_nodes)
    exact = exact_search(config, state, depth_cap, max_nodes)
    assert (found, truncated) == (exact[0], exact[3])
    assert exact_replay(config, state, witness) == found == len(witness)
    if not truncated:
        assert nodes == exact[2]


def test_random3_node_gap_is_one_float_merge():
    """Under a 200,000-node budget, golden random3's float search explores
    7762 nodes and the exact search 7769, both finding 13 collisions (the CI
    step "exact search oracle" runs both).  The gap is one merge: these two
    schedules reach exact states 4.7e-17 apart whose float states are
    bit-identical, so the float memo takes the second for the first at depth
    6 and skips the 7 nodes the exact search explores below it."""
    config, state = CASES["random3"]
    first = ((2, 5), (1, 2), (0, 2), (2, 3), (2, 4), (0, 2))
    second = ((2, 5), (1, 2), (2, 4), (0, 2), (2, 3), (2, 4))
    pairs = {pair[0]: pair for pair in exact_pairs(config)}
    floats, exacts = [], []
    for schedule in (first, second):
        values, blocks = state, exact_blocks(state)
        for edge in schedule:
            values, blocks = collide(config, values, edge), exact_exchange(blocks, pairs[edge])
        assert exact_replay(config, state, schedule) == len(schedule)
        floats.append(values.values.tobytes())
        exacts.append(blocks)
    assert floats[0] == floats[1]
    gap = max(abs(a - b) for u, v in zip(*exacts) for a, b in zip(u, v))
    assert 0 < gap < 1e-16
