"""Cross-validation of the layer-restricted Morse algorithms against
naive full-digraph implementations.

The production code searches cycles and gradient paths only across two
adjacent cardinality layers; these oracles walk the whole modified
inclusion digraph with no such restriction.
"""

import random

from morseres.complexes import l2, submasks, taylor
from morseres.morse import (
    Matching,
    gradient_cell_order,
    is_acyclic,
    matching_l2,
    prune_taylor_first_power,
)


def full_digraph(faces, matching):
    """All edges of the modified digraph: inclusions pointing down,
    matched edges reversed."""
    Y = set(faces)
    down = {big: small for big, small in matching.pairs}
    succ = {f: [] for f in Y}
    for f in Y:
        m = f
        while m:
            low = m & -m
            m ^= low
            sub = f ^ low
            if sub not in Y:
                continue
            if down.get(f) == sub:
                succ[sub].append(f)
            else:
                succ[f].append(sub)
    return succ


def has_cycle_anywhere(succ):
    color = {}
    for start in succ:
        if color.get(start):
            continue
        stack = [(start, iter(succ[start]))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[node] = 2
                stack.pop()
                continue
            c = color.get(nxt, 0)
            if c == 1:
                return True
            if c == 0:
                color[nxt] = 1
                stack.append((nxt, iter(succ[nxt])))
    return False


def reachable_anywhere(succ, start):
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for other in succ[node]:
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return seen


def random_matching(faces, seed, added=-1):
    """Greedy matching over a shuffled list of inclusion edges, each
    adding a vertex of the mask ``added`` (any vertex by default)."""
    Y = set(faces)
    rng = random.Random(seed)
    candidates = []
    for f in Y:
        m = f & added
        while m:
            low = m & -m
            m ^= low
            if f ^ low in Y:
                candidates.append((f, f ^ low))
    rng.shuffle(candidates)
    used = set()
    pairs = []
    for big, small in candidates:
        if big in used or small in used:
            continue
        used.add(big)
        used.add(small)
        pairs.append((big, small))
    return Matching(tuple(sorted(pairs)))


def test_acyclicity_agrees_with_full_digraph_on_random_matchings():
    cases = [list(l2(3).faces()), list(taylor(4).faces()), list(l2(4).faces())]
    outcomes = set()
    for faces in cases:
        for seed in range(40):
            matching = random_matching(faces, seed)
            fast = is_acyclic(faces, matching)
            slow = not has_cycle_anywhere(full_digraph(faces, matching))
            assert fast == slow, (seed, len(faces))
            outcomes.add(fast)
    # the random draw must exercise both verdicts for the test to mean anything
    assert outcomes == {True, False}


def reference_acyclic(faces, matching):
    """The full-digraph verdict on the faces plus every bigger partner.

    `is_acyclic` follows a reversed matched edge from each smaller face
    that is a face, even when its bigger partner is not one; a bigger
    partner whose smaller face is not a face has no way in, so adding the
    bigger partners to the faces changes nothing else.
    """
    nodes = set(faces) | {big for big, _ in matching.pairs}
    return not has_cycle_anywhere(full_digraph(nodes, matching))


def random_down_closed(faces, rng):
    """The nonempty subsets of a few random faces."""
    tops = rng.sample(faces, rng.randint(1, 6))
    closed = list({sub for top in tops for sub in submasks(top) if sub})
    rng.shuffle(closed)
    return closed


def test_acyclicity_with_smaller_faces_outside_the_faces():
    # random matchings on all of l2(4), checked on random down-closed sub-lists
    everything = list(l2(4).faces())
    rng = random.Random(7)
    outcomes = set()
    partly_outside = 0
    for seed in range(60):
        matching = random_matching(everything, seed)
        faces = random_down_closed(everything, rng)
        inside = set(faces)
        smalls_inside = sum(small in inside for _, small in matching.pairs)
        partly_outside += 0 < smalls_inside < len(matching)
        verdict = is_acyclic(faces, matching)
        assert verdict == reference_acyclic(faces, matching), seed
        outcomes.add(verdict)
    assert outcomes == {True, False}
    assert partly_outside > 0


def test_acyclicity_when_the_edges_add_few_vertices():
    # the edges add 2 or 3 vertices only, so most swaps are never probed
    rng = random.Random(19)
    outcomes = set()
    for everything in (list(l2(3).faces()), list(l2(4).faces()), list(taylor(5).faces())):
        width = max(everything).bit_length()
        for seed in range(50):
            added = sum(1 << v for v in rng.sample(range(width), rng.randint(2, 3)))
            matching = random_matching(everything, seed, added)
            assert all((big ^ small) & added for big, small in matching.pairs)
            for faces in (everything, random_down_closed(everything, rng)):
                verdict = is_acyclic(faces, matching)
                assert verdict == reference_acyclic(faces, matching), (seed, added)
                outcomes.add((faces is everything, verdict))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_acyclicity_accepts_a_one_shot_generator():
    everything = list(l2(3).faces())
    outcomes = set()
    for seed in range(20):
        matching = random_matching(everything, seed)
        verdict = is_acyclic(iter(everything), matching)
        assert verdict == is_acyclic(everything, matching)
        assert verdict == reference_acyclic(everything, matching), seed
        outcomes.add(verdict)
    _, matching = matching_l2(4, 3)
    assert is_acyclic((f for f in l2(4).faces()), matching)
    assert outcomes == {True, False}


def test_acyclicity_when_no_smaller_face_is_a_face():
    everything = list(l2(4).faces())
    matching = random_matching(everything, 0)
    assert not is_acyclic(everything, matching)
    bigs = [big for big, _ in matching.pairs]
    smalls = {small for _, small in matching.pairs}
    for faces in ([], bigs, [f for f in everything if f not in smalls]):
        assert is_acyclic(faces, matching)
        assert reference_acyclic(faces, matching)


def test_acyclicity_agrees_on_production_matchings():
    for q, s in ((3, 3), (4, 3), (4, 4)):
        cx = l2(q)
        faces = list(cx.faces())
        _, matching = matching_l2(q, s)
        assert is_acyclic(faces, matching)
        assert not has_cycle_anywhere(full_digraph(faces, matching))
    fp = prune_taylor_first_power(4, 3)
    faces = list(fp.complex.faces())
    assert not has_cycle_anywhere(full_digraph(faces, fp.matching))


def test_gradient_reachability_agrees_with_full_walk():
    for q, s in ((q, s) for q in range(3, 6) for s in range(3, q + 1)):
        faces = list(l2(q).faces())
        _, matching = matching_l2(q, s)
        succ = full_digraph(faces, matching)
        matched = {f for pair in matching.pairs for f in pair}
        critical = sorted(set(faces) - matched)
        lower = {}
        for sigma, tau in gradient_cell_order(q, s):
            lower.setdefault(tau, set()).add(sigma)
        for tau in critical:
            if tau.bit_count() < 2:
                continue
            fast = lower.get(tau, set())
            wander = reachable_anywhere(succ, tau)
            slow = {
                f
                for f in critical
                if f.bit_count() == tau.bit_count() - 1 and f in wander
            }
            assert fast == slow, (q, s, tau)
