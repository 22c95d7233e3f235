"""Pinned random streams: draws, traces and detected generators.

The digests were recorded with the tuple-based permutation code that
preceded the `bytes` storage.  Any change to how random numbers are
consumed, to the element order of an enumerated group, or to the detection
search shows up here as a changed digest.
"""

import hashlib

import pytest

from orbitalmcmc import autgroup, clauses, families
from orbitalmcmc.chains import ChainKind, ClauseModel, IndependentSetModel, run_chain
from orbitalmcmc.perm import ProductReplacement, SamplerMode

EXACT, PR = SamplerMode.EXACT, SamplerMode.PRODUCT_REPLACEMENT
GRAPHS = {"grid3": (families.gen_grid, 3),
          "cliques3": (families.gen_connected_cliques, 3),
          "complete3": (families.gen_complete, 3)}

GOLDEN = {
    "gens/grid3": "2e4128c893687e5d",
    "gens/cliques3": "9d930e0bcd498caf",
    "gens/complete3": "07752e6874bc919b",
    "pr/grid3/0": "99ca38150685115a",
    "pr/grid3/1": "490bb5916d2b9949",
    "pr/cliques3/0": "b26eb5061a1b168c",
    "pr/cliques3/1": "23808406220f381b",
    "chain/grid3/id/exact": "3c2990f76dc62509",
    "chain/grid3/orbital-id/exact": "eef74a8910744dbf",
    "chain/grid3/orbital-id/pr": "cab93cddc5010dc8",
    "chain/complete3/id/exact": "4c732b4398346718",
    "chain/complete3/orbital-id/exact": "edc1315cb3a38daa",
    "chain/complete3/orbital-id/pr": "ac92da0303182060",
    "gens/fs4/graph": "62141bcd7cf0a61a",
    "gens/fs4/model": "57136691e9015ae6",
    "chain/fs4/gibbs/exact": "8f4f1220c8877184",
    "chain/fs4/orbital-gibbs/exact": "f11927cb78a57be8",
    "chain/fs4/orbital-gibbs/pr": "30052dc7559e4625",
    # the fs7 graph has 301 vertices, so its group is stored as tuples
    "gens/fs7/graph": "28efee920bad8bc5",
    "orbits/fs7/graph": "45f7fca323cb39f6",
    "gens/fs7/model": "2f5483aea640565d",
}


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def images(group) -> list:
    return [g.mapping for g in group.generators]


@pytest.fixture(scope="module")
def graph_groups():
    out = {}
    for name, (make, k) in GRAPHS.items():
        graph = make(k)
        out[name] = (graph, autgroup.automorphism_generators(graph))
    return out


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_generators(graph_groups, name):
    assert digest(images(graph_groups[name][1])) == GOLDEN[f"gens/{name}"]


@pytest.mark.parametrize("name", ["grid3", "cliques3"])
@pytest.mark.parametrize("seed", [0, 1])
def test_product_replacement_draws(graph_groups, name, seed):
    pr = ProductReplacement(graph_groups[name][1], seed=seed)
    draws = [pr.next().mapping for _ in range(50)]
    assert digest(draws) == GOLDEN[f"pr/{name}/{seed}"]


@pytest.mark.parametrize("name", ["grid3", "complete3"])
@pytest.mark.parametrize("kind,mode", [(ChainKind.INSERT_DELETE, EXACT),
                                       (ChainKind.ORBITAL_INSERT_DELETE, EXACT),
                                       (ChainKind.ORBITAL_INSERT_DELETE, PR)])
def test_insert_delete_traces(graph_groups, name, kind, mode):
    graph, group = graph_groups[name]
    trace = run_chain(IndependentSetModel(graph, 1.0), kind, 2000, seed=7,
                      group=group, mode=mode)
    assert digest(trace.states) == GOLDEN[f"chain/{name}/{kind.value}/{mode.value}"]


def test_friends_smokers_detection_and_gibbs_traces():
    model, evidence = families.gen_friends_smokers(4, 0.25, 0)
    report = clauses.model_symmetry_group(model, evidence)
    assert digest(images(report.graph_group)) == GOLDEN["gens/fs4/graph"]
    assert digest(images(report.model_group)) == GOLDEN["gens/fs4/model"]
    chain_model = ClauseModel(model)
    for kind, mode in [(ChainKind.GIBBS, EXACT), (ChainKind.ORBITAL_GIBBS, EXACT),
                       (ChainKind.ORBITAL_GIBBS, PR)]:
        trace = run_chain(chain_model, kind, 2000, seed=7,
                          group=report.model_group, mode=mode)
        assert digest(trace.states) == GOLDEN[f"chain/fs4/{kind.value}/{mode.value}"]


def test_detection_beyond_255_points():
    model, evidence = families.gen_friends_smokers(7, 0.3, 0)
    report = clauses.model_symmetry_group(model, evidence)
    assert report.graph.n > 255
    assert digest(images(report.graph_group)) == GOLDEN["gens/fs7/graph"]
    orbits = [sorted(o.elements) for o in report.graph_group.orbit_partition()]
    assert digest(orbits) == GOLDEN["orbits/fs7/graph"]
    assert digest(images(report.model_group)) == GOLDEN["gens/fs7/model"]
