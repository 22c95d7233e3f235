"""Permutation, group, orbit and random-element tests."""

import math
import tracemalloc
from random import Random

import numpy as np
import pytest

from orbitalmcmc.autgroup import automorphism_generators
from orbitalmcmc.chains import ClauseModel, IndependentSetModel
from orbitalmcmc.clauses import model_symmetry_group
from orbitalmcmc.errors import GuardExceededError
from orbitalmcmc.families import (gen_complete, gen_connected_cliques,
                                  gen_friends_smokers, gen_grid)
from orbitalmcmc.graphs import Graph
from orbitalmcmc.perm import (
    OrbitSampler,
    Permutation,
    PermutationGroup,
    ProductReplacement,
    SamplerMode,
    StateSpace,
    _schreier_sims,
    burnside_config_orbit_count,
    config_orbit_partition,
    format_cycles,
    format_generating_set,
    orbit_ids,
)

from helpers import (ReferenceProductReplacement, apply_config_action, closure_elements,
                     compose, config_orbits, cycle_count_burnside, elements, inverse,
                     load_generating_set, orbit_partition, parse_cycles,
                     reference_exact_sample, reference_schreier_sims, two_spin_model)

NAMES9 = list("abcdefghi")


def grid3_group() -> PermutationGroup:
    gens = [parse_cycles("(a c)(d f)(g i)", names=NAMES9),
            parse_cycles("(a i)(b f)(d h)", names=NAMES9)]
    return PermutationGroup(gens)


def cliques3_group() -> PermutationGroup:
    gens = [parse_cycles(s, names=NAMES9)
            for s in ["(a g)(b f)", "(a c)(b d)", "(a i)(b h)"]]
    return PermutationGroup(gens)


def complete3_group() -> PermutationGroup:
    gens = [parse_cycles(f"(b {x})", names=NAMES9) for x in "cdefghi"]
    gens.append(parse_cycles("(a b)", names=NAMES9))
    return PermutationGroup(gens)


def dihedral300_group() -> PermutationGroup:
    # order 600 on 300 points: tuple images
    n = 300
    return PermutationGroup([Permutation([(x + 1) % n for x in range(n)]),
                             Permutation([-x % n for x in range(n)])])


def small_random_groups() -> list[PermutationGroup]:
    """Two groups without generators, 50 random groups of up to 3 random
    generators on 1-8 points, and `dihedral300_group` last."""
    rng = Random(14)
    groups = [PermutationGroup([], n=0), PermutationGroup([], n=5)]
    for _ in range(50):
        n = rng.randint(1, 8)
        gens = []
        for _ in range(rng.randint(0, 3)):
            mapping = list(range(n))
            rng.shuffle(mapping)
            gens.append(Permutation(mapping))
        groups.append(PermutationGroup(gens, n=n))
    # dihedral group of order 600 on 300 points: tuple images, uint16 rows
    groups.append(dihedral300_group())
    return groups


def random_element(group, rng, word_len=6):
    g = Permutation.identity(group.n)
    for _ in range(word_len):
        h = group.generators[rng.randrange(len(group.generators))]
        if rng.random() < 0.5:
            h = inverse(h)
        g = compose(g, h)
    return g


class TestCompose:
    def test_left_to_right_convention(self):
        p = parse_cycles("(0 1)", n=3)
        q = parse_cycles("(1 2)", n=3)
        r = compose(p, q)
        # oracle: apply pointwise, q after p
        for x in range(3):
            assert r.image[x] == q.image[p.image[x]]
        assert r.mapping == (2, 0, 1)

    # the laws on both storage forms: 9 points hold bytes images, 300 points tuples
    def test_identity_law(self):
        rng = Random(1)
        for group in (grid3_group(), dihedral300_group()):
            e = Permutation.identity(group.n)
            for _ in range(20):
                p = random_element(group, rng)
                assert compose(p, e) == p
                assert compose(e, p) == p

    def test_inverse_law(self):
        rng = Random(2)
        for group in (cliques3_group(), dihedral300_group()):
            for _ in range(20):
                p = random_element(group, rng)
                assert compose(p, inverse(p)).is_identity()
                assert compose(inverse(p), p).is_identity()

    def test_associativity(self):
        rng = Random(3)
        for group in (grid3_group(), dihedral300_group()):
            for _ in range(20):
                p, q, r = (random_element(group, rng) for _ in range(3))
                assert compose(compose(p, q), r) == compose(p, compose(q, r))

    @pytest.mark.parametrize("mapping", [[0, 0], [1, 2], [0, 1.0], ["1", "0"]])
    def test_not_a_permutation(self, mapping):
        with pytest.raises(ValueError, match="not a permutation of 0..1"):
            Permutation(mapping)

    @pytest.mark.parametrize("dtype", [np.int64, np.intp], ids=["int64", "intp"])
    @pytest.mark.parametrize("n", [3, 300])
    def test_numpy_integer_mapping(self, dtype, n):
        mapping = [(x + 1) % n for x in range(n)]
        p, expected = Permutation(np.array(mapping, dtype=dtype)), Permutation(mapping)
        assert p == expected and hash(p) == hash(expected)
        assert all(type(v) is int for v in p.mapping)

    @pytest.mark.parametrize("generators,n,message", [
        ([Permutation.identity(2), Permutation.identity(3)], None,
         r"mixed domain sizes \[2, 3\]"),
        ([Permutation.identity(3)], 4, "declared domain size 4 != generator size 3"),
        ([], None, "empty generating set requires an explicit domain size"),
    ])
    def test_group_rejected(self, generators, n, message):
        with pytest.raises(ValueError, match=message):
            PermutationGroup(generators, n=n)


def oracle_cycles(m: tuple) -> list:
    out, seen = [], set()
    for i in range(len(m)):
        if i in seen or m[i] == i:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = m[j]
        out.append(tuple(cyc))
    return out


class TestRepresentation:
    """Every operation against plain-tuple oracles on both sides of the
    bytes/tuple storage boundary (n = 256 / 257) and at the tiny sizes."""

    @pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 300])
    def test_operations_match_tuple_oracle(self, n):
        rng = Random(n)
        pm, qm = list(range(n)), list(range(n))
        rng.shuffle(pm)
        rng.shuffle(qm)
        pm, qm = tuple(pm), tuple(qm)
        p, q = Permutation(pm), Permutation(qm)
        assert isinstance(p.image, bytes) == (n <= 256)
        assert Permutation._trusted(p.image).image is p.image  # a raw image kept as given
        assert p.n == n and p.mapping == pm
        assert compose(p, q).mapping == tuple(qm[v] for v in pm)
        inv = [0] * n
        for i, v in enumerate(pm):
            inv[v] = i
        assert inverse(p).mapping == tuple(inv)
        bits = bytes(rng.randrange(2) for _ in range(n))
        moved = [0] * n
        for i, b in enumerate(bits):
            moved[pm[i]] = b
        assert p.apply_config(bits) == bytes(moved)
        assert p.cycles() == oracle_cycles(pm)
        assert p.is_identity() == (pm == tuple(range(n)))
        same = Permutation(list(pm))
        assert same == p and hash(same) == hash(p)
        assert Permutation.identity(n) == Permutation(range(n))
        if n >= 2:
            assert p != compose(p, Permutation(tuple(range(1, n)) + (0,)))

    @pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 300])
    def test_elements_sorted_like_tuples(self, n):
        gens = []
        if n >= 2:
            gens.append(parse_cycles("(0 1)", n=n))
        if n >= 5:
            gens.append(parse_cycles(f"({n - 3} {n - 2} {n - 1})", n=n))
        els = elements(PermutationGroup(gens, n=n))
        mappings = [g.mapping for g in els]
        assert mappings == sorted(mappings)
        assert len(els) == {0: 1, 1: 1, 2: 2}.get(n, 6)
        assert els[0] == Permutation.identity(n)

    def test_apply_config_single_point(self):
        assert Permutation.identity(1).apply_config(b"\x01") == b"\x01"
        assert Permutation.identity(1).apply_config(b"\x00") == b"\x00"
        assert Permutation.identity(0).apply_config(b"") == b""


class TestCycleText:
    def test_named_pairs(self):
        p = parse_cycles("(a c)(d f)(g i)", names=NAMES9)
        expected = {0: 2, 2: 0, 3: 5, 5: 3, 6: 8, 8: 6}
        for i in range(9):
            assert p.image[i] == expected.get(i, i)

    def test_identity_text(self):
        p = parse_cycles("()", n=5)
        assert p.is_identity()
        assert format_cycles(p) == "()"

    def test_non_disjoint_product_composes(self):
        names = list("abc")
        p = parse_cycles("(b c)(a b)", names=names)
        oracle = compose(parse_cycles("(b c)", names=names),
                         parse_cycles("(a b)", names=names))
        assert p == oracle
        assert format_cycles(p, names) == "(a b c)"

    def test_round_trip(self):
        rng = Random(4)
        group = grid3_group()
        for _ in range(30):
            p = random_element(group, rng)
            assert parse_cycles(format_cycles(p, NAMES9), names=NAMES9) == p
            assert parse_cycles(format_cycles(p), n=9) == p

    def test_repeated_point_in_cycle(self):
        with pytest.raises(ValueError):
            parse_cycles("(a b a)", names=NAMES9)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            parse_cycles("(a z)", names=NAMES9)

    @pytest.mark.parametrize("text,n,names,message", [
        ("(a b)", None, ["a", "b", "a"], "duplicate point names"),
        ("(0 1)", None, None, "either n or names is required"),
        ("(0 1) 2", 3, None, "unparseable cycle text"),
        ("(0 3)", 3, None, r"point 3 outside domain 0\.\.2"),
    ])
    def test_rejected(self, text, n, names, message):
        with pytest.raises(ValueError, match=message):
            parse_cycles(text, n=n, names=names)


class TestApply:
    def test_point_examples(self):
        assert Permutation.identity(4).image[2] == 2
        swap = parse_cycles("(a b)", names=NAMES9)
        assert swap.image[0] == 1
        grid_gen = parse_cycles("(a c)(d f)(g i)", names=NAMES9)
        assert grid_gen.image[NAMES9.index("d")] == NAMES9.index("f")

    def test_config_examples(self):
        c = bytes((1, 0, 1, 1, 0))
        assert Permutation.identity(5).apply_config(c) == c
        swap01 = parse_cycles("(0 1)", n=2)
        assert swap01.apply_config(bytes((1, 0))) == bytes((0, 1))
        # indicator of {a, f} through (a c)(d f)(g i) lands on {c, d}
        grid_gen = parse_cycles("(a c)(d f)(g i)", names=NAMES9)
        src = bytes(1 if x in "af" else 0 for x in NAMES9)
        dst = bytes(1 if x in "cd" else 0 for x in NAMES9)
        assert grid_gen.apply_config(src) == dst

    def test_config_length_mismatch(self):
        with pytest.raises(ValueError):
            Permutation.identity(3).apply_config(bytes((1, 0)))

    def test_weight_preserved(self):
        rng = Random(5)
        group = cliques3_group()
        for _ in range(50):
            g = random_element(group, rng)
            c = bytes(rng.randrange(2) for _ in range(9))
            assert sum(g.apply_config(c)) == sum(c)


class TestOrbits:
    def test_trivial_group_point(self):
        triv = PermutationGroup([], n=5)
        assert tuple(orbit_partition(triv)[3]) == (3,)

    def test_pair_swap_orbit(self):
        group = PermutationGroup([parse_cycles("(a b)", names=list("abc"))])
        assert tuple(orbit_partition(group)[0]) == (0, 1)

    def test_symmetric_group_orbit(self):
        orbits = [tuple(o) for o in orbit_partition(complete3_group())]
        assert orbits == [tuple(range(9))]

    def test_partition_trivial(self):
        triv = PermutationGroup([], n=4)
        cells = orbit_partition(triv)
        assert [tuple(o) for o in cells] == [(0,), (1,), (2,), (3,)]

    def test_partition_covers_and_disjoint(self):
        for group in (grid3_group(), cliques3_group()):
            cells = [tuple(o) for o in orbit_partition(group)]
            union = set()
            for orb in cells:
                assert orb
                assert list(orb) == sorted(set(orb))
                assert not (union & set(orb))
                union |= set(orb)
                for g in group.generators:
                    assert {g.image[x] for x in orb} == set(orb)
            assert union == set(range(9))
            assert [o[0] for o in cells] == sorted(o[0] for o in cells)

    def test_partition_equals_orbits_of_elements(self):
        rng = Random(13)
        groups = [PermutationGroup([], n=0), PermutationGroup([], n=5)]
        for _ in range(50):
            n = rng.randint(1, 8)
            gens = []
            for _ in range(rng.randint(0, 3)):
                mapping = list(range(n))
                rng.shuffle(mapping)
                gens.append(Permutation(mapping))
            groups.append(PermutationGroup(gens, n=n))
        for group in groups:
            els = elements(group)
            expected = sorted({tuple(sorted({g.image[x] for g in els}))
                               for x in range(group.n)})
            assert [tuple(o) for o in orbit_partition(group)] == expected
        assert orbit_partition(PermutationGroup([], n=0)) == []

    def test_hamming_weight_orbits_under_sym3(self):
        gens = [parse_cycles("(0 1)", n=3), parse_cycles("(0 1 2)", n=3)]
        orbits = config_orbit_partition(PermutationGroup(gens))
        assert len(orbits) == 4
        for orb in orbits:
            weights = {sum(c) for c in orb}
            assert len(weights) == 1
            assert len(orb) == math.comb(3, weights.pop())

    def test_config_orbit_examples(self):
        swap = PermutationGroup([parse_cycles("(0 1)", n=2)])
        assert set(config_orbits(swap)[bytes((0, 1))]) == {bytes((0, 1)), bytes((1, 0))}
        triv = PermutationGroup([], n=3)
        assert set(config_orbits(triv)[bytes((1, 0, 1))]) == {bytes((1, 0, 1))}

    def test_grid_corner_orbit(self):
        group = grid3_group()
        corner = bytes(1 if x == "a" else 0 for x in NAMES9)
        expected = set()
        for name in "acgi":
            expected.add(bytes(1 if x == name else 0 for x in NAMES9))
        assert set(config_orbits(group)[corner]) == expected

    def test_config_orbit_cap(self, monkeypatch):
        monkeypatch.setenv("ORBITAL_GUARD", "10")
        group = complete3_group()
        with pytest.raises(GuardExceededError, match="exceed enumeration cap 10"):
            config_orbit_partition(group)

    def test_empty_domain(self):
        group = PermutationGroup([], n=0)
        assert [tuple(o) for o in config_orbit_partition(group)] == [(b"",)]


class TestStateAction:
    @pytest.mark.parametrize("order", ["listed", "reversed", "shuffled"])
    def test_matches_the_apply_config_oracle(self, order):
        # the models whose kernels, traces and taus test_streams pins, and fs3,
        # in any order: the search reads no sorted input
        clause_set, _ = gen_friends_smokers(3)
        evidence = {"smokes_p0": False}
        cases = [(IndependentSetModel(graph, 1.0), automorphism_generators(graph))
                 for graph in (gen_grid(3), gen_connected_cliques(3), gen_complete(2),
                               gen_complete(3))]
        cases.append((ClauseModel(two_spin_model()), PermutationGroup([Permutation([1, 0])])))
        cases.append((ClauseModel(clause_set, evidence),
                      model_symmetry_group(clause_set, evidence).model_group))
        for model, group in cases:
            states = list(model.states())
            if order == "reversed":
                states.reverse()
            elif order == "shuffled":
                Random(5).shuffle(states)
            assert group.generators
            expected = apply_config_action(group, states)
            space = StateSpace(states, group)
            assert np.array_equal(space.action, expected)
            assert (np.sort(space.action, axis=1) == np.arange(len(states))).all()
            assert np.array_equal(space.orbits, orbit_ids(expected))

    def test_repeated_state_rejected(self):
        states = [b"\x00\x00", b"\x01\x00", b"\x00\x00"]
        for group in (None, PermutationGroup([], n=2), PermutationGroup([Permutation([1, 0])])):
            with pytest.raises(ValueError, match="listed twice"):
                StateSpace(states, group)

    def test_trivial_and_no_group(self):
        states = IndependentSetModel(Graph(3, [(0, 1), (1, 2)]), 1.0).states()
        trivial = StateSpace(states, PermutationGroup([], n=3))
        assert trivial.action is None
        assert trivial.orbits.tolist() == list(range(len(states)))
        plain = StateSpace(states)
        assert plain.action is None and plain.orbits is None
        assert plain.index == {s: i for i, s in enumerate(states)}
        assert plain.bits.tolist() == [list(s) for s in states]
        assert len(plain) == len(states) and plain.states == tuple(states)

    def test_tuple_images_above_255_points(self):
        n = 300
        group = PermutationGroup([Permutation([*range(1, n), 0]),
                                  parse_cycles("(0 299)", n=n)])
        assert all(type(g.image) is tuple for g in group.generators)
        states = [bytes(int(i == v or i == (v + 7) % n) for i in range(n))
                  for v in range(n)]
        states += [bytes(int(i == v) for i in range(n)) for v in range(n)]
        states.append(bytes(n))
        with pytest.raises(ValueError, match="does not preserve the state space"):
            StateSpace(states, group)
        group = PermutationGroup(group.generators[:1])
        space = StateSpace(states, group)
        assert np.array_equal(space.action, apply_config_action(group, states))
        assert list(orbit_ids(space.action)) == [0] * n + [1] * n + [2]
        assert list(space.orbits) == [0] * n + [1] * n + [2]

    def test_group_must_preserve_the_states(self):
        # on the path 0-1-2, swapping 0 and 1 maps {0, 2} to {1, 2}
        states = IndependentSetModel(Graph(3, [(0, 1), (1, 2)]), 1.0).states()
        swap = PermutationGroup([parse_cycles("(0 1)", n=3)])
        with pytest.raises(ValueError, match="maps \\(1, 0, 1\\) to \\(0, 1, 1\\)"):
            StateSpace(states, swap)

    @pytest.mark.parametrize("n", [2, 4])
    def test_group_must_act_on_the_states_points(self, n):
        states = IndependentSetModel(Graph(3, [(0, 1), (1, 2)]), 1.0).states()
        swap = PermutationGroup([parse_cycles("(0 1)", n=n)])
        with pytest.raises(ValueError, match=f"group on {n} points for states of length 3"):
            StateSpace(states, swap)


class TestFlip:
    @pytest.mark.parametrize("order", ["listed", "reversed", "shuffled"])
    def test_matches_the_dict_lookup(self, order):
        # independent sets, where toggles leave the list, and every assignment
        # of fs3 with evidence, in any order: the search reads no sorted input
        clause_set, _ = gen_friends_smokers(3)
        for states in (IndependentSetModel(gen_grid(3), 1.0).states(),
                       ClauseModel(clause_set, {"smokes_p0": False}).states()):
            states = list(states)
            if order == "reversed":
                states.reverse()
            elif order == "shuffled":
                Random(5).shuffle(states)
            space = StateSpace(states)
            expected = [[space.index.get(s[:v] + bytes((1 - s[v],)) + s[v + 1:], -1)
                         for v in range(len(s))] for s in states]
            assert space.flip.tolist() == expected
            assert (space.flip < 0).any() == (len(states) < 2 ** len(states[0]))

    def test_edge_shapes(self):
        assert StateSpace([]).flip.shape == (0, 0)
        assert StateSpace([b""]).flip.shape == (1, 0)
        assert StateSpace([b"\x01"]).flip.tolist() == [[-1]]
        assert StateSpace([b"\x01", b"\x00"]).flip.tolist() == [[1], [0]]


class TestEnumeration:
    def test_grid_order(self):
        assert grid3_group().order() == 8

    def test_cliques_order(self):
        assert cliques3_group().order() == 24

    def test_empty_generators(self):
        els = elements(PermutationGroup([], n=4))
        assert els == (Permutation.identity(4),)

    def test_closure_is_a_group(self):
        els = set(elements(grid3_group()))
        for p in els:
            assert inverse(p) in els
            for q in els:
                assert compose(p, q) in els

    def test_cap_exceeded(self, monkeypatch):
        monkeypatch.setenv("ORBITAL_GUARD", "10")
        with pytest.raises(GuardExceededError, match="cap 10"):
            elements(cliques3_group())

    def test_chain_equals_the_closure(self):
        groups = small_random_groups()
        for group in groups:
            expected = closure_elements(group)
            assert group.order() == len(expected)
            assert list(elements(group)) == expected
            assert burnside_config_orbit_count(group) == cycle_count_burnside(group, expected)
        assert elements(PermutationGroup([], n=0)) == (Permutation.identity(0),)
        assert groups[-1].order() == 600
        assert groups[-1].image_array().dtype == np.uint16

    def test_chain_equals_the_reference(self):
        for group in small_random_groups():
            assert_reference_chain(group)

    @pytest.mark.parametrize("make", [
        *(lambda seed=seed: fs10_perfbench_group(seed) for seed in (1, 2, 3)),
        lambda: model_symmetry_group(gen_friends_smokers(12)[0]).model_group,
        lambda: model_symmetry_group(gen_friends_smokers(16)[0]).model_group,
        lambda: automorphism_generators(gen_connected_cliques(4)),
        lambda: automorphism_generators(gen_complete(3)),
        lambda: automorphism_generators(gen_complete(5))],
        ids=["fs10-seed1", "fs10-seed2", "fs10-seed3", "fs12", "fs16", "cliques4",
             "complete3", "complete5"])
    def test_detected_chain_equals_the_reference(self, make):
        assert_reference_chain(make())

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_complete_graph_order(self, k):
        group = automorphism_generators(gen_complete(k))
        assert PermutationGroup(group.generators).order() == math.factorial(k * k)

    @pytest.mark.parametrize("people", [12, 16])
    def test_fs_order_without_enumeration(self, monkeypatch, people):
        group = model_symmetry_group(gen_friends_smokers(people)[0]).model_group

        def refuse(self):
            raise AssertionError("order() enumerated the group")

        monkeypatch.setattr(PermutationGroup, "image_array", refuse)
        assert group.order() == math.factorial(people)

    def test_guard_before_allocating(self, monkeypatch):
        monkeypatch.setenv("ORBITAL_GUARD", "10")
        group = complete3_group()
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceededError, match="exceeds enumeration cap 10"):
                elements(group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert group.order() == 362880

    def test_element_array_built_once_and_read_only(self):
        group = cliques3_group()
        els = group.image_array()
        assert group.image_array() is els
        OrbitSampler(group, SamplerMode.EXACT, Random(0))
        assert len(elements(group)) == 24
        assert group.image_array() is els
        with pytest.raises(ValueError):
            els[0, 0] = 1

    def test_cap_checked_on_every_call(self, monkeypatch):
        group = cliques3_group()
        group.image_array()
        monkeypatch.setenv("ORBITAL_GUARD", "23")
        with pytest.raises(GuardExceededError, match="cap 23"):
            group.image_array()

    def test_orbit_stabilizer(self):
        rng = Random(6)
        for group in (grid3_group(), cliques3_group()):
            els = elements(group)
            orbits = config_orbits(group)
            for _ in range(10):
                c = bytes(rng.randrange(2) for _ in range(9))
                orbit = orbits[c]
                stab = sum(1 for g in els if g.apply_config(c) == c)
                assert len(orbit) * stab == len(els)


def fs10_perfbench_group(seed: int) -> PermutationGroup:
    """fs10's group under the evidence perfbench's fs-gibbs run draws for
    `seed`: three people, two smoking and one not."""
    people = Random(seed).sample(range(10), 3)
    evidence = {f"smokes_p{p}": value for p, value in zip(people, (True, True, False))}
    return model_symmetry_group(gen_friends_smokers(10)[0], evidence).model_group


def assert_reference_chain(group: PermutationGroup) -> None:
    """The chain `_schreier_sims` builds from the bare generators equals
    `reference_schreier_sims`'s level by level: the base, each level's
    insertion order and every transversal image u."""
    gens = [g.image for g in group.generators]
    chain = _schreier_sims(group.n, gens)
    expected = reference_schreier_sims(group.n, gens)
    assert [list(level) for level in chain] == [list(level) for level in expected]
    for level, want in zip(chain, expected):
        assert [u for u, _ in level.values()] == [u for u, _ in want.values()]


class TestProductReplacement:
    def test_trivial_group(self):
        rng = Random(0)
        before = rng.getstate()
        state = ProductReplacement(PermutationGroup([], n=6), rng=rng)
        for _ in range(5):
            assert state.next().is_identity()
        assert rng.getstate() == before

    @pytest.mark.parametrize("make,slots", [
        pytest.param(grid3_group, 10, id="grid3"),
        # 8 generators, 17 slots: s - 1 = 16 is a power of two
        pytest.param(complete3_group, 17, id="K9"),
        # 16 transpositions generating S_17: 33 slots
        pytest.param(lambda: PermutationGroup(
            [parse_cycles(f"({i} {i + 1})", n=17) for i in range(16)]), 33, id="S17"),
        pytest.param(dihedral300_group, 10, id="dihedral300"),
    ])
    def test_draws_equal_the_reference(self, make, slots):
        group = make()
        rng, ref_rng = Random(21), Random(21)
        state = ProductReplacement(group, rng=rng)
        ref = ReferenceProductReplacement(group, ref_rng)
        assert len(state._slots) == slots
        assert rng.getstate() == ref_rng.getstate()
        for _ in range(2000):
            assert state.next().mapping == ref.next().mapping
        assert rng.getstate() == ref_rng.getstate()

    def test_membership(self):
        group = cliques3_group()
        members = set(elements(group))
        state = ProductReplacement(group, rng=Random(1))
        for _ in range(500):
            assert state.next() in members

    def test_slots_stay_members(self):
        group = grid3_group()
        members = set(elements(group))
        state = ProductReplacement(group, rng=Random(2))
        for _ in range(100):
            state.next()
        assert all(Permutation._trusted(s) in members for s in state._slots)

    def test_rough_uniformity(self):
        # strict chi-square at 1e5 draws lives in the acceptance suite
        group = grid3_group()
        els = elements(group)
        index = {g: i for i, g in enumerate(els)}
        state = ProductReplacement(group, rng=Random(3))
        counts = [0] * len(els)
        draws = 20000
        for _ in range(draws):
            counts[index[state.next()]] += 1
        expected = draws / len(els)
        for c in counts:
            assert abs(c - expected) < 0.15 * expected


class TestOrbitSampling:
    def test_trivial_group_returns_input(self):
        triv = PermutationGroup([], n=4)
        c = bytes((1, 0, 0, 1))
        assert OrbitSampler(triv, SamplerMode.EXACT, Random(0)).sample(c) == c

    def test_exact_pair_frequencies(self):
        group = PermutationGroup([parse_cycles("(0 1)", n=2)])
        rng = Random(7)
        sampler = OrbitSampler(group, SamplerMode.EXACT, rng)
        hits = sum(sampler.sample(bytes((0, 1))) == bytes((1, 0)) for _ in range(10000))
        # binomial 3-sigma band around 1/2
        assert abs(hits - 5000) < 3 * (10000 * 0.25) ** 0.5

    @pytest.mark.parametrize("mode", [SamplerMode.EXACT, SamplerMode.PRODUCT_REPLACEMENT])
    def test_bytes_states_past_255_points(self, mode):
        # dihedral group of order 600 on 300 points: tuple images, bytes states
        n, rng, group = 300, Random(11), dihedral300_group()
        sampler, clone = OrbitSampler(group, mode, Random(12)), Random(12)
        if mode is SamplerMode.EXACT:
            els = elements(group)

            def draw():
                return els[clone.randrange(len(els))]
        else:
            draw = ProductReplacement(group, rng=clone).next
        moved = 0
        for _ in range(200):
            c = bytes(rng.randrange(2) for _ in range(n))
            out = sampler.sample(c)
            assert type(out) is bytes and out == draw().apply_config(c)
            moved += out != c
        assert moved > 190

    def test_trivial_group_rejects_a_wrong_length(self):
        with pytest.raises(ValueError, match="length 3 != domain size 4"):
            OrbitSampler(PermutationGroup([], n=4), SamplerMode.EXACT, Random(0)).sample(b"\0" * 3)

    @pytest.mark.parametrize("mode", [SamplerMode.EXACT, SamplerMode.PRODUCT_REPLACEMENT])
    def test_wrong_length_draws_nothing(self, mode):
        group, c = grid3_group(), bytes((1, 0, 0, 1, 0, 0, 0, 0, 1))
        rng = Random(15)
        sampler, fresh = OrbitSampler(group, mode, rng), OrbitSampler(group, mode, Random(15))
        before = rng.getstate()
        with pytest.raises(ValueError, match="length 8 != domain size 9"):
            sampler.sample(c[:8])
        assert rng.getstate() == before
        for _ in range(20):
            assert sampler.sample(c) == fresh.sample(c)

    def test_exact_draws_read_the_element_array(self):
        # K_9: bytes images, one slice of the array's buffer per draw
        group, rng = complete3_group(), Random(13)
        els = elements(group)
        sampler, clone = OrbitSampler(group, SamplerMode.EXACT, Random(14)), Random(14)
        for _ in range(1000):
            c = bytes(rng.randrange(2) for _ in range(9))
            out = sampler.sample(c)
            assert type(out) is bytes and out == els[clone.randrange(len(els))].apply_config(c)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: PermutationGroup([parse_cycles("(0 1)", n=2)]), id="order2"),
        pytest.param(lambda: PermutationGroup(
            [parse_cycles(f"({2 * i} {2 * i + 1})", n=8) for i in range(4)]), id="order16"),
        pytest.param(grid3_group, id="grid3-order8"),
        pytest.param(lambda: automorphism_generators(gen_complete(2)), id="K4-order24"),
        pytest.param(dihedral300_group, id="dihedral300-order600")])
    def test_exact_draws_equal_the_reference(self, make):
        # 2,000 draws: the images and the generator state of `randrange`'s draws
        group = make()
        els, configs = elements(group), Random(63)
        rng, ref_rng = Random(62), Random(62)
        sampler = OrbitSampler(group, SamplerMode.EXACT, rng)
        for _ in range(2000):
            c = bytes(b & 1 for b in configs.randbytes(group.n))
            assert sampler.sample(c) == reference_exact_sample(els, c, ref_rng)
        assert rng.getstate() == ref_rng.getstate()

    def test_result_in_orbit(self):
        group = grid3_group()
        rng = Random(8)
        orbits = config_orbits(group)
        for mode in (SamplerMode.EXACT, SamplerMode.PRODUCT_REPLACEMENT):
            sampler = OrbitSampler(group, mode, rng)
            for _ in range(50):
                c = bytes(rng.randrange(2) for _ in range(9))
                assert sampler.sample(c) in orbits[c]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        group = grid3_group()
        path = tmp_path / "gens.txt"
        path.write_text(format_generating_set(group, NAMES9))
        loaded, names = load_generating_set(path)
        assert names == NAMES9
        assert loaded.generators == group.generators

    def test_name_count_checked(self):
        with pytest.raises(ValueError, match="name count does not match domain size"):
            format_generating_set(grid3_group(), NAMES9[:8])

    def test_identity_only_group(self, tmp_path):
        path = tmp_path / "triv.txt"
        path.write_text(format_generating_set(PermutationGroup([], n=3), ["x", "y", "z"]))
        loaded, names = load_generating_set(path)
        assert loaded.order() == 1
        assert names == ["x", "y", "z"]
