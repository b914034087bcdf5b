"""Config schema, instance generation, sweeps, statistics helpers."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from _helpers import (
    CHAIN3,
    RING4,
    count_pair_state_builds,
    per_vertex_tensors,
    random_config,
    random_instance,
    two_svd_polar,
)
from peps_forge import harness
from peps_forge.dynamics import PreparedInstance, run_algorithm, verify_lemma1
from peps_forge.errors import CapacityError, ConfigError, InvalidInputError
from peps_forge.limits import MAX_TRIALS, check_dim
from peps_forge.harness import (
    FIXTURE_NAMES,
    MODES,
    build_instance,
    chi_square_vs_markov,
    config_to_dict,
    edge_order_of,
    instance_label,
    load_config,
    load_fixture,
    parse_config,
    random_tensors,
    report_to_json,
    sweep,
    sweep_csv,
    theorem_sweep_check,
    to_explicit_config,
    topology_edges,
    with_overrides,
)
from peps_forge.network import InteractionGraph, canonicalize


def _minimal_doc() -> dict:
    return {
        "graph": {"topology": "chain", "length": 3},
        "bond_dim": 2,
        "tensors": {"source": "random", "kappa_max": 2.0, "physical_dims": None, "seed": 5},
        "seed": 7,
    }


class TestConfigSchema:
    def test_minimal_document_defaults(self):
        cfg = parse_config(_minimal_doc())
        assert cfg.eps == 0.1
        assert cfg.c == 1.0
        assert cfg.zero_tol == 1e-9
        assert cfg.order is None

    def test_round_trip_identity(self):
        cfg = parse_config(_minimal_doc())
        assert parse_config(config_to_dict(cfg)) == cfg

    def test_round_trip_all_fixtures(self):
        for name in FIXTURE_NAMES:
            cfg, _ = load_fixture(name)
            assert parse_config(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_serializes_the_shipped_config_block(self, name):
        cfg, _ = load_fixture(name)
        shipped = json.loads(harness.fixture_path(name).read_text())["config"]
        assert config_to_dict(cfg) == shipped

    def test_unset_fields_left_out(self):
        cfg = parse_config(_minimal_doc())
        assert cfg.tensors.physical_dims is None
        doc = config_to_dict(cfg)
        assert doc["graph"] == {"topology": "chain", "length": 3}
        assert doc["tensors"] == {"source": "random", "kappa_max": 2.0, "seed": 5}
        assert parse_config(doc) == cfg

    def test_set_physical_dims_serialized_as_a_list(self):
        doc = _minimal_doc()
        doc["tensors"]["physical_dims"] = [4, 4, 4]
        cfg = parse_config(doc)
        assert config_to_dict(cfg)["tensors"]["physical_dims"] == [4, 4, 4]
        assert parse_config(config_to_dict(cfg)) == cfg

    def test_explicit_round_trip_preserves_entries(self):
        cfg, _ = load_fixture("chain2")
        doc = config_to_dict(cfg)
        text = json.dumps(doc)
        again = parse_config(json.loads(text))
        assert again == cfg

    @pytest.mark.parametrize(
        "mutate,location",
        [
            (lambda d: d.pop("graph"), "/graph"),
            (lambda d: d.pop("seed"), "/seed"),
            (lambda d: d.__setitem__("unknown", 1), "/unknown"),
            (lambda d: d["graph"].__setitem__("topology", "torus"), "/graph/topology"),
            (lambda d: d["graph"].__setitem__("length", 1), "/graph/length"),
            (lambda d: d["graph"].pop("length"), "/graph/length"),
            (lambda d: d.__setitem__("bond_dim", 1), "/bond_dim"),
            (lambda d: d.__setitem__("eps", 2.0), "/eps"),
            (lambda d: d.__setitem__("c", -1.0), "/c"),
            (lambda d: d.__setitem__("seed", "x"), "/seed"),
            (lambda d: d["tensors"].__setitem__("kappa_max", 0.5), "/tensors/kappa_max"),
            (lambda d: d["tensors"].__setitem__("source", "magic"), "/tensors/source"),
            (lambda d: d.__setitem__("tolerances", {"zero_tol": -1.0}), "/tolerances/zero_tol"),
            # from 1/2 up a branch of probability 1/2 is within zero_tol of both 0 and 1
            pytest.param(
                lambda d: d.__setitem__("tolerances", {"zero_tol": 0.5}),
                "/tolerances/zero_tol",
                id="zero_tol=0.5",
            ),
            pytest.param(
                lambda d: d.__setitem__("tolerances", {"zero_tol": 0.9}),
                "/tolerances/zero_tol",
                id="zero_tol=0.9",
            ),
            (lambda d: d.__setitem__("tolerances", {"other": 1.0}), "/tolerances/other"),
            # Python refuses to print an int past 4300 digits; the message
            # must still be built
            pytest.param(
                lambda d: d.__setitem__("seed", -(10**5000)), "/seed", id="seed=-10**5000"
            ),
            pytest.param(lambda d: d.__setitem__("eps", 10**5000), "/eps", id="eps=10**5000"),
            pytest.param(
                lambda d: d.__setitem__("bond_dim", [10**5000]),
                "/bond_dim",
                id="bond_dim=[10**5000]",
            ),
        ],
    )
    def test_schema_errors_carry_locations(self, mutate, location):
        doc = _minimal_doc()
        mutate(doc)
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.location == location

    @pytest.mark.parametrize(
        "path,location",
        [
            (("tensors", "kappa_max"), "/tensors/kappa_max"),
            (("c",), "/c"),
            (("eps",), "/eps"),
            (("tolerances", "zero_tol"), "/tolerances/zero_tol"),
        ],
    )
    @pytest.mark.parametrize(
        "literal",
        ["Infinity", "-Infinity", "NaN", "1" + "0" * 400, "-1" + "0" * 400],
        ids=["Infinity", "-Infinity", "NaN", "10**400", "-10**400"],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, path, location, literal):
        # Python's json reads these literals; the schema must not. An integer
        # past the float range has no float to become and must not escape as
        # an OverflowError
        doc = _minimal_doc()
        doc["tolerances"] = {"zero_tol": 1e-9}
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = "PLACEHOLDER"
        text = json.dumps(doc).replace('"PLACEHOLDER"', literal)
        config = tmp_path / "cfg.json"
        config.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(config)
        assert err.value.location == location

    def test_non_finite_explicit_entry_rejected(self):
        cfg, _ = load_fixture("chain2")
        doc = config_to_dict(cfg)
        doc["tensors"]["entries"][1][1][0] = [float("nan"), 0.0]
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.location == "/tensors/entries/1/1/0"

    def test_explicit_entry_past_the_float_range_rejected(self):
        doc = config_to_dict(load_fixture("chain2")[0])
        doc["tensors"]["entries"][1][1][0] = [0.5, 10**400]
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.location == "/tensors/entries/1/1/0"

    def test_ring_length_two_rejected(self):
        doc = _minimal_doc()
        doc["graph"] = {"topology": "ring", "length": 2}
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_custom_graph_document(self):
        doc = _minimal_doc()
        doc["graph"] = {
            "topology": "custom",
            "num_vertices": 4,
            "edges": [[0, 1], [2, 1], [2, 3]],
        }
        cfg = parse_config(doc)
        assert cfg.graph.edges == ((0, 1), (1, 2), (2, 3))
        assert parse_config(config_to_dict(cfg)) == cfg

    def test_custom_graph_serialized_with_list_edges(self):
        doc = _minimal_doc()
        doc["graph"] = {"topology": "custom", "num_vertices": 3, "edges": [[1, 0], [1, 2]]}
        cfg = parse_config(doc)
        out = config_to_dict(cfg)
        # a tuple never equals a list, so this also pins the edges' type
        assert out["graph"] == {
            "topology": "custom",
            "num_vertices": 3,
            "edges": [[0, 1], [1, 2]],
        }
        assert parse_config(out) == cfg

    def test_bad_explicit_cell(self):
        doc = _minimal_doc()
        doc["graph"] = {"topology": "chain", "length": 2}
        doc["tensors"] = {
            "source": "explicit",
            "entries": [[[[1.0, 0.0], [0.0]]]],
            "edge_order": [[1], [0]],
        }
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert "/tensors/entries/0" in err.value.location

    def test_edge_order_mismatch_rejected(self):
        cfg, _ = load_fixture("chain2")
        doc = config_to_dict(cfg)
        doc["tensors"]["edge_order"][0] = [9]
        with pytest.raises(ConfigError) as err:
            build_instance(parse_config(doc))
        assert err.value.location == "/tensors/edge_order/0"

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        for content in ["{not json", '{"bond_dim": ' + "9" * 5000 + "}", "[" * 100_000]:
            path.write_text(content)
            with pytest.raises(ConfigError):
                load_config(path)

    def test_instance_labels(self):
        assert instance_label(parse_config(_minimal_doc())) == "chain3-D2-random"
        cfg, _ = load_fixture("grid2x2")
        assert instance_label(cfg) == "grid2x2-D2-explicit"


class TestTopologies:
    def test_chain(self):
        n, edges = topology_edges(harness.GraphSpec(topology="chain", length=4))
        assert n == 4 and edges == [(0, 1), (1, 2), (2, 3)]

    def test_ring(self):
        n, edges = topology_edges(harness.GraphSpec(topology="ring", length=4))
        assert n == 4 and sorted(edges) == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_grid(self):
        n, edges = topology_edges(harness.GraphSpec(topology="grid", rows=2, cols=3))
        assert n == 6
        assert len(edges) == 7
        assert (0, 3) in edges and (1, 2) in edges


class TestRandomInjective:
    """``random_tensors``: condition-number budget, shapes and streams."""

    def test_isometry_at_kappa_one(self):
        graph = InteractionGraph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        for t in random_tensors(graph, 1.0, 0):
            assert t.kappa == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_kappa_within_budget(self, seed):
        graph = InteractionGraph.build(3, [(0, 1), (1, 2)], physical_dims=[6, 6, 6])
        for t in random_tensors(graph, 3.0, seed):
            sigma = np.linalg.svd(t.matrix, compute_uv=False)
            assert 1.0 <= sigma[0] / sigma[-1] <= 3.0 + 1e-9

    def test_square_canonical_factor_positive(self):
        graph = InteractionGraph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        for t in random_tensors(graph, 2.0, 3):
            assert np.linalg.eigvalsh(t.positive_factor).min() > 0

    def test_canonicalized_degree_three_map(self):
        n, edges = topology_edges(harness.GraphSpec(topology="grid", rows=2, cols=3))
        graph = InteractionGraph.build(n, edges, physical_dims=[4, 9, 4, 4, 9, 4])
        tensor = random_tensors(graph, 2.0, 4)[4]
        assert tensor.vertex == 4
        assert tensor.matrix.shape == (9, 8)
        assert tensor.kappa <= 2.0 + 1e-9

    def test_rejects_shrinking_map(self):
        with pytest.raises(InvalidInputError):
            build_instance(random_config(CHAIN3, 2.0, 5, physical_dims=(2, 3, 2)))

    def test_rejects_kappa_below_one(self):
        graph = InteractionGraph.build(2, [(0, 1)])
        with pytest.raises(InvalidInputError):
            random_tensors(graph, 0.5, 5)

    @pytest.mark.parametrize("kappa_max", [math.nan, math.inf])
    def test_rejects_non_finite_kappa_before_any_draw(self, monkeypatch, kappa_max):
        def unreachable(*args):
            raise AssertionError("a stream was seeded before kappa_max was checked")

        monkeypatch.setattr(harness, "SeedStreams", unreachable)
        graph = InteractionGraph.build(2, [(0, 1)])
        with pytest.raises(InvalidInputError, match="kappa_max must be finite and >= 1"):
            random_tensors(graph, kappa_max, 5)

    def test_rejects_a_seed_that_is_not_an_integer(self):
        graph = InteractionGraph.build(2, [(0, 1)])
        for seed in (3.5, 3.0, -1):
            with pytest.raises(InvalidInputError, match="seed"):
                random_tensors(graph, 2.0, seed)
        # a numpy integer samples like the equal int
        a, b = random_tensors(graph, 2.0, np.int64(9)), random_tensors(graph, 2.0, 9)
        assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(a, b))

    def test_seeded_reproducibility(self):
        graph = InteractionGraph.build(3, [(0, 1), (1, 2)])
        a, b, c = (random_tensors(graph, 2.0, seed) for seed in (9, 9, 10))
        assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(a, b))
        assert not any(np.array_equal(x.matrix, z.matrix) for x, z in zip(a, c))


def _grid(rows: int, cols: int, **kw) -> InteractionGraph:
    n, edges = topology_edges(harness.GraphSpec(topology="grid", rows=rows, cols=cols))
    return InteractionGraph.build(n, edges, **kw)


def _ring(n: int, **kw) -> InteractionGraph:
    return InteractionGraph.build(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)], **kw)


SAMPLER_CASES = {
    **{f"ring{n}": (_ring(n), 3.0, 40 + n) for n in range(3, 7)},
    "grid2x2": (_grid(2, 2), 3.0, 512),
    "grid2x3-mixed-dims": (_grid(2, 3, physical_dims=[5, 9, 4, 4, 8, 6]), 2.5, 9),
    "ring5-kappa1": (_ring(5), 1.0, 77),
    "ring4-order": (_ring(4, order=[2, 0, 3, 1]), 2.0, 6),
    "chain3-bonds32": (InteractionGraph.build(3, [(0, 1), (1, 2)], bond_dim=[3, 2]), 4.0, 2),
    # same-shape vertices apart; the square ones share their QR with every right factor
    "ring5-interleaved": (_ring(5, physical_dims=[5, 4, 5, 4, 6]), 3.0, 23),
    # seeds of two and three 32-bit words
    "ring4-seed-2w": (_ring(4), 3.0, 2**32 + 7),
    "grid2x3-mixed-dims-seed-3w": (_grid(2, 3, physical_dims=[5, 9, 4, 4, 8, 6]), 2.5, 2**70 + 3),
}


class TestBatchedSampler:
    """``random_tensors`` against the one-vertex-at-a-time construction."""

    @pytest.mark.parametrize("case", SAMPLER_CASES)
    def test_matches_per_vertex_construction(self, case):
        graph, kappa_max, seed = SAMPLER_CASES[case]
        batched = random_tensors(graph, kappa_max, seed)
        for got, want in zip(batched, per_vertex_tensors(graph, kappa_max, seed), strict=True):
            assert got.vertex == want.vertex
            for field in ("matrix", "isometry", "positive_factor", "singular_values"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (case, got.vertex, field)

    def test_reproduces_the_grid2x2_fixture(self, fixture_zoo):
        _, _, graph, fixture = fixture_zoo["grid2x2"]
        for got, want in zip(random_tensors(graph, 3.0, 512), fixture, strict=True):
            assert np.array_equal(got.matrix, want.matrix)

    @pytest.mark.parametrize("case", SAMPLER_CASES)
    def test_polar_factors_match_two_svd_reference(self, case):
        for t in random_tensors(*SAMPLER_CASES[case]):
            isometry, psd, sigma = two_svd_polar(t.matrix)
            assert np.abs(t.isometry - isometry).max() <= 1e-13, (case, t.vertex)
            assert np.abs(t.positive_factor - psd).max() <= 1e-13, (case, t.vertex)
            assert np.abs(t.singular_values - sigma).max() <= 1e-13, (case, t.vertex)
            assert np.all(np.diff(t.singular_values) <= 0), (case, t.vertex)

    @pytest.mark.parametrize(
        "case, qrs", [("ring6", 1), ("grid2x3-mixed-dims", 5), ("ring5-interleaved", 3)]
    )
    def test_one_qr_per_shape_and_no_svd(self, case, qrs, monkeypatch):
        calls = {"qr": 0, "svd": 0}
        for name in calls:
            real = getattr(np.linalg, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        random_tensors(*SAMPLER_CASES[case])
        assert calls == {"qr": qrs, "svd": 0}


class TestBuildInstance:
    def test_random_instance_deterministic(self):
        cfg = random_config(CHAIN3, 2.0, tensor_seed=88)
        g1, t1 = build_instance(cfg)
        g2, t2 = build_instance(cfg)
        assert g1 == g2
        for a, b in zip(t1, t2):
            assert np.array_equal(a.matrix, b.matrix)

    def test_explicit_matches_random_source(self):
        cfg = random_config(CHAIN3, 2.0, tensor_seed=89)
        graph, tensors = build_instance(cfg)
        explicit = to_explicit_config(cfg, graph, tensors)
        graph2, tensors2 = build_instance(explicit)
        assert graph == graph2
        for a, b in zip(tensors, tensors2):
            assert np.abs(a.matrix - b.matrix).max() <= 1e-15

    @pytest.mark.parametrize(
        "tensors, location",
        [
            ({"entries": lambda e: e[:1], "edge_order": lambda o: o[:1]}, "/tensors/entries"),
            ({"entries": lambda e: [e[0], [row[:-1] for row in e[1]]]}, "/tensors/entries/1"),
            ({"edge_order": lambda o: [o[0], [1]]}, "/tensors/edge_order/1"),
        ],
        ids=["entries", "columns", "edge_order"],
    )
    def test_explicit_build_errors_carry_locations(self, tensors, location):
        # chain2's maps, edited past what only the built graph can check
        doc = config_to_dict(load_fixture("chain2")[0])
        for key, edit in tensors.items():
            doc["tensors"][key] = edit(doc["tensors"][key])
        with pytest.raises(ConfigError) as err:
            build_instance(parse_config(doc))
        assert err.value.location == location

    def test_explicit_entries_read_exactly(self):
        # chain2 holds one rectangular map; each cell must read as complex(re, im)
        cfg, _ = load_fixture("chain2")
        _, tensors = build_instance(cfg)
        for v, matrix in enumerate(cfg.tensors.entries):
            exact = np.array([[complex(re, im) for re, im in row] for row in matrix])
            assert np.array_equal(canonicalize(v, exact).matrix, tensors[v].matrix)

    def test_edge_order_listing(self):
        graph, _ = random_instance(CHAIN3, 2.0, 90)
        assert edge_order_of(graph) == [[1], [0, 2], [1]]

    def test_physical_dims_length_check(self):
        cfg = random_config(CHAIN3, 2.0, tensor_seed=1, physical_dims=(2, 4))
        with pytest.raises(ConfigError) as err:
            build_instance(cfg)
        assert err.value.location == "/tensors/physical_dims"

    def test_capacity_checked_before_sampling(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("tensors were sampled for an instance above the cap")

        monkeypatch.setattr(harness, "random_tensors", unreachable)
        configs = [
            # ring3 at D = 20 has registers of 400 and dimension 400^3, far
            # above the default cap; no tensor may be sampled for it
            random_config(harness.GraphSpec(topology="ring", length=3), 2.0, 1, bond_dim=20),
            # dimension 4^7999, rejected before its graph is built
            random_config(harness.GraphSpec(topology="chain", length=8000), 2.0, 1),
            # a physical register beyond what numpy can allocate
            random_config(
                harness.GraphSpec(topology="chain", length=2),
                2.0,
                1,
                physical_dims=(10**30, 2),
            ),
        ]
        for cfg in configs:
            with pytest.raises(CapacityError):
                build_instance(cfg)

    def test_custom_vertex_count_checked(self, monkeypatch):
        # isolated vertices add no dimension, but every per-vertex loop
        # would still run over them
        def unreachable(*args):
            raise AssertionError("the graph was built for a vertex count above the cap")

        monkeypatch.setattr(harness, "topology_edges", unreachable)
        spec = harness.GraphSpec(topology="custom", num_vertices=4097, edges=((0, 1),))
        with pytest.raises(CapacityError, match="more vertices than the cap 4096"):
            build_instance(random_config(spec, 2.0, 1))

    @pytest.mark.parametrize(
        "topology, edges",
        [
            (harness.GraphSpec(topology="chain", length=7), 6),
            (harness.GraphSpec(topology="ring", length=6), 6),
            (harness.GraphSpec(topology="grid", rows=2, cols=3), 7),
            (harness.GraphSpec(topology="custom", num_vertices=5, edges=((0, 1), (1, 4))), 2),
        ],
        ids=["chain", "ring", "grid", "custom"],
    )
    def test_capacity_boundary_is_the_pair_state_dimension(self, monkeypatch, topology, edges):
        # the spec's dimension D^(2|E|) is compared with the cap exactly
        dim = 2 ** (2 * edges)
        monkeypatch.setenv("PEPS_FORGE_DIM_CAP", str(dim))
        graph, _ = build_instance(random_config(topology, 2.0, 1))
        assert graph.global_dim == dim
        monkeypatch.setenv("PEPS_FORGE_DIM_CAP", str(dim - 1))
        with pytest.raises(CapacityError, match=f"dimension {dim},"):
            build_instance(random_config(topology, 2.0, 1))

    def test_unbounded_dimension_message(self):
        with pytest.raises(CapacityError) as info:
            check_dim(4**8000, "x")
        assert "more than 10^4816" in str(info.value)
        assert len(str(info.value)) < 200

    def test_one_shape_shares_one_graph(self, monkeypatch):
        # two tensor seeds of one shape: one graph, and its pair state is
        # built once across both Lemma 1 checks
        builds = count_pair_state_builds(monkeypatch)
        first, first_tensors = random_instance(RING4, 2.0, 11)
        verify_lemma1(first, first_tensors)
        second, second_tensors = random_instance(RING4, 2.0, 12)
        verify_lemma1(second, second_tensors)
        assert second is first
        assert builds == [first]
        assert not np.array_equal(first_tensors[0].matrix, second_tensors[0].matrix)

    @pytest.mark.parametrize(
        "change",
        [
            {"order": (2, 0, 1)},
            {"physical_dims": (3, 4, 2)},
            {"bond_dim": 3},
        ],
        ids=["order", "physical_dims", "bond_dim"],
    )
    def test_another_shape_builds_another_graph(self, change):
        base = random_config(CHAIN3, 2.0, 5)
        graph, _ = build_instance(base)
        other, _ = build_instance(random_config(CHAIN3, 2.0, 5, **change))
        assert other != graph
        # the memo keeps the last graph only
        again, _ = build_instance(base)
        assert again == graph and again is not graph
        assert harness._shape_graph.cache_info().currsize == 1

    def test_lowered_cap_fails_after_a_memo_hit(self, monkeypatch):
        graph, _ = random_instance(RING4, 2.0, 1)
        hits = harness._shape_graph.cache_info().hits
        assert random_instance(RING4, 2.0, 2)[0] is graph
        assert harness._shape_graph.cache_info().hits == hits + 1
        monkeypatch.setenv("PEPS_FORGE_DIM_CAP", str(graph.global_dim - 1))
        with pytest.raises(CapacityError):
            random_instance(RING4, 2.0, 3)

    def test_capacity_checked_for_explicit_entries(self, monkeypatch):
        cfg, _ = load_fixture("chain3")
        monkeypatch.setenv("PEPS_FORGE_DIM_CAP", "8")
        with pytest.raises(CapacityError):
            build_instance(cfg)


class TestFixtures:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_expected_values_regenerate(self, name, fixture_zoo, prepared_zoo):
        _, expected, graph, tensors = fixture_zoo[name]
        prep = prepared_zoo[name]
        assert graph.global_dim == expected["global_dim"]
        assert np.allclose([t.kappa for t in tensors], expected["kappa"], atol=1e-8)
        assert np.allclose(prep.gaps, expected["gaps"], atol=1e-8)
        assert np.allclose(prep.overlaps, expected["overlaps"], atol=1e-8)
        assert np.allclose(prep.z_values, expected["z_values"], atol=1e-8)
        assert prep.kappa_max == pytest.approx(expected["kappa_max"], abs=1e-8)

    def test_unknown_fixture(self):
        with pytest.raises(InvalidInputError):
            load_fixture("chain99")


class TestSweep:
    def test_rows_and_summary(self, fixture_zoo):
        cfg, _, _, _ = fixture_zoo["chain2"]
        result = sweep(cfg, trials=8, base_seed=100)
        assert len(result.rows) == 8
        assert [r.seed for r in result.rows] == list(range(100, 108))
        assert result.summary["trials"] == 8
        assert result.summary["successes"] == sum(r.success for r in result.rows)
        recomputed = result.summary["successes"] / 8
        assert result.summary["success_rate"] == pytest.approx(recomputed)
        assert result.summary["mean_measurements"] == pytest.approx(
            sum(r.total_measurements for r in result.rows) / 8
        )

    def test_trial_count_capped_before_the_instance_is_built(self, fixture_zoo, monkeypatch):
        def unreachable(*args):
            raise AssertionError("an instance was built for a sweep above the trial cap")

        monkeypatch.setattr(harness, "build_instance", unreachable)
        cfg, _, _, _ = fixture_zoo["chain2"]
        for trials in (10**15, MAX_TRIALS + 1):
            with pytest.raises(CapacityError, match="trials"):
                sweep(cfg, trials=trials)

    @pytest.mark.parametrize(
        "trials,base_seed,match",
        [
            (2.5, None, "trials must be an integer"),
            (math.nan, None, "trials must be an integer"),
            (3, 3.5, "seed must be an integer"),
            (3, math.nan, "seed must be an integer"),
            (3, -1, "seed must be >= 0"),
        ],
    )
    def test_non_integer_counts_rejected_before_the_instance_is_built(
        self, fixture_zoo, monkeypatch, trials, base_seed, match
    ):
        # range() would have raised a raw TypeError after the preparation
        def unreachable(*args):
            raise AssertionError("an instance was built for a sweep with invalid counts")

        monkeypatch.setattr(harness, "build_instance", unreachable)
        cfg, _, _, _ = fixture_zoo["chain2"]
        with pytest.raises(InvalidInputError, match=match):
            sweep(cfg, trials=trials, base_seed=base_seed)

    def test_rows_reproducible_from_seed(self, fixture_zoo):
        cfg, _, graph, tensors = fixture_zoo["chain2"]
        result = sweep(cfg, trials=4, base_seed=11)
        prep = PreparedInstance(graph, tensors, zero_tol=cfg.zero_tol)
        for row in result.rows:
            report = run_algorithm(prep, cfg.eps, row.seed, mode="bounded")
            assert report.total_measurements == row.total_measurements
            assert report.success == row.success
            if row.fidelity is not None:
                assert report.fidelity == row.fidelity

    @staticmethod
    def _sweep_prepared(monkeypatch, zoo_entry, prep) -> None:
        """Have ``sweep`` reuse the session's instance and preparation."""
        _, _, graph, tensors = zoo_entry
        monkeypatch.setattr(harness, "build_instance", lambda cfg: (graph, tensors))
        monkeypatch.setattr(harness, "PreparedInstance", lambda *args, **kwargs: prep)

    @staticmethod
    def _single_runs(prep, cfg, result, mode):
        rows = [(r.seed, r.success, r.fidelity, r.total_measurements) for r in result.rows]
        reports = [run_algorithm(prep, cfg.eps, r.seed, mode=mode) for r in result.rows]
        want = [(r.seed, r.success, r.fidelity, r.total_measurements) for r in reports]
        return rows, want

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_batch_rows_equal_single_runs(
        self, fixture_zoo, prepared_zoo, monkeypatch, name, mode
    ):
        # trials that cross into a seed's second, third and fifth 32-bit
        # word; the fifth lengthens the SeedSequence prefix
        cfg = fixture_zoo[name][0]
        prep = prepared_zoo[name]
        self._sweep_prepared(monkeypatch, fixture_zoo[name], prep)
        for base in (2**32 - 3, 2**64 - 2, 2**128 - 2):
            rows, want = self._single_runs(prep, cfg, sweep(cfg, 6, base, mode), mode)
            assert rows == want, base

    def test_batch_rows_with_misses_and_spent_caps(self, fixture_zoo, prepared_zoo, monkeypatch):
        # eps = 0.9 caps chain2's repair loops at one alternation
        cfg = with_overrides(fixture_zoo["chain2"][0], eps=0.9)
        prep = prepared_zoo["chain2"]
        self._sweep_prepared(monkeypatch, fixture_zoo["chain2"], prep)
        rows, want = self._single_runs(prep, cfg, sweep(cfg, 80, 2**64 - 40), "bounded")
        assert rows == want
        assert any(ok and total > 2 for _, ok, _, total in rows), "no first shot missed"
        assert not all(ok for _, ok, _, _ in rows), "no cap was spent"

    def test_thread_pool_matches_serial(self, fixture_zoo):
        cfg, _, _, _ = fixture_zoo["chain2"]
        serial = sweep(cfg, trials=6, base_seed=3, jobs=1)
        threaded = sweep(cfg, trials=6, base_seed=3, jobs=3)
        assert serial.rows == threaded.rows

    def test_csv_schema(self, fixture_zoo):
        cfg, _, graph, _ = fixture_zoo["chain3"]
        result = sweep(cfg, trials=3, base_seed=0)
        text = sweep_csv(result)
        lines = text.strip().split("\n")
        assert len(lines) == 4
        header = lines[0].split(",")
        n = graph.num_vertices
        assert header[:9] == [
            "instance",
            "seed",
            "success",
            "fidelity",
            "total_measurements",
            "measurement_bound",
            "bound_margin",
            "kappa",
            "min_gap",
        ]
        assert header[9:] == [f"p_step_{t}" for t in range(n)] + [
            f"gap_step_{t}" for t in range(n + 1)
        ]
        # round-trip one float cell exactly
        first = lines[1].split(",")
        assert float(first[7]) == result.rows[0].kappa

    def test_csv_deterministic(self, fixture_zoo):
        cfg, _, _, _ = fixture_zoo["chain2"]
        a = sweep_csv(sweep(cfg, trials=3, base_seed=5))
        b = sweep_csv(sweep(cfg, trials=3, base_seed=5))
        assert a == b

    def test_theorem_check_wiring(self, fixture_zoo):
        cfg, _, _, _ = fixture_zoo["chain4"]
        result = sweep(cfg, trials=20, base_seed=0)
        check = theorem_sweep_check(result)
        assert check["trials"] == 20
        assert 0.0 <= check["success_rate"] <= 1.0
        assert check["threshold"] == pytest.approx(
            0.9 - 3 * math.sqrt(0.1 * 0.9 / 20)
        )

    def test_invalid_arguments(self, fixture_zoo):
        cfg, _, _, _ = fixture_zoo["chain2"]
        with pytest.raises(InvalidInputError):
            sweep(cfg, trials=0)
        with pytest.raises(InvalidInputError):
            sweep(cfg, trials=1, mode="other")

    def test_negative_base_seed_rejected(self, fixture_zoo, monkeypatch):
        cfg, _, _, _ = fixture_zoo["chain2"]
        monkeypatch.setattr(harness, "build_instance", None)  # fails before building
        with pytest.raises(InvalidInputError, match="seed"):
            sweep(cfg, trials=1, base_seed=-1)


class TestReports:
    def test_report_json_byte_identical(self, prepared_zoo):
        prep = prepared_zoo["chain3"]
        a = report_to_json(run_algorithm(prep, 0.1, seed=21))
        b = report_to_json(run_algorithm(prep, 0.1, seed=21))
        assert a == b
        parsed = json.loads(a)
        assert parsed["seed"] == 21
        assert {"success", "fidelity", "total_measurements", "vertices"} <= set(parsed)

    # report_to_json(run_algorithm(chain3, 0.1, seed=7, mode="until_success")),
    # recorded while the records were frozen dataclasses; the gap digits
    # were recorded again when parent terms came to be built from an SVD,
    # and again when pair-edge terms came to be built without one (step 1's
    # energy of the target moved by 1.8e-16) and the Lanczos solve's
    # recurrence went in place (step 3's lambda1 moved by 2.2e-16). A last
    # gap digit can depend on the process's allocation history; these are
    # the digits that a fresh `peps-forge run` (and `sweep --format csv`,
    # for ROW_TAIL) prints, and they match this test session's
    GOLDEN_REPORT = """\
{
  "alternation_cap": null,
  "eps": 0.1,
  "fidelity": 1.0,
  "gaps": [
    1.0,
    0.9999999999999993,
    0.3835057341084228,
    0.4125005980559753
  ],
  "kappa_max": 4.508645458108852,
  "min_gap": 0.3835057341084228,
  "mode": "until_success",
  "seed": 7,
  "success": true,
  "total_measurements": 5,
  "vertices": [
    {
      "alternations": 0,
      "first_shot_probability": 0.9541436225731065,
      "gap": 0.9999999999999993,
      "kappa": 1.5615622576746238,
      "measurements": 1,
      "outcomes": [
        "zero"
      ],
      "overlap": 0.9541436225731065,
      "step": 0,
      "succeeded": true,
      "vertex": 0
    },
    {
      "alternations": 1,
      "first_shot_probability": 0.6891890873562899,
      "gap": 0.3835057341084228,
      "kappa": 4.508645458108852,
      "measurements": 3,
      "outcomes": [
        "nonzero",
        "nonzero",
        "zero"
      ],
      "overlap": 0.6891890873562899,
      "step": 1,
      "succeeded": true,
      "vertex": 1
    },
    {
      "alternations": 0,
      "first_shot_probability": 0.9610896159051636,
      "gap": 0.4125005980559753,
      "kappa": 1.5207043234358812,
      "measurements": 1,
      "outcomes": [
        "zero"
      ],
      "overlap": 0.9610896159051636,
      "step": 2,
      "succeeded": true,
      "vertex": 2
    }
  ]
}"""

    def test_report_json_text_pinned(self, prepared_zoo):
        report = run_algorithm(prepared_zoo["chain3"], 0.1, seed=7, mode="until_success")
        assert report_to_json(report) == self.GOLDEN_REPORT

    # sweep_csv of chain3 (trials=3, base_seed=1) with its first row made a
    # failure without a fidelity, recorded while the header was a literal;
    # its gap digits were recorded again with GOLDEN_REPORT's
    ROW_TAIL = (
        "676.0389501446303,673.0389501446303,4.508645458108852,0.3835057341084228,"
        "0.9541436225731065,0.6891890873562899,0.9610896159051636,"
        "1.0,0.9999999999999993,0.3835057341084228,0.4125005980559753\n"
    )
    GOLDEN_CSV = (
        "instance,seed,success,fidelity,total_measurements,measurement_bound,"
        "bound_margin,kappa,min_gap,p_step_0,p_step_1,p_step_2,"
        "gap_step_0,gap_step_1,gap_step_2,gap_step_3\n"
        "chain3-D2-explicit,1,0,,3," + ROW_TAIL
        + "chain3-D2-explicit,2,1,1.0,3," + ROW_TAIL
        + "chain3-D2-explicit,3,1,1.0,3," + ROW_TAIL
    )

    def test_sweep_csv_text_pinned(self):
        cfg, _ = load_fixture("chain3")
        result = sweep(cfg, trials=3, base_seed=1)
        failed = dataclasses.replace(result.rows[0], success=False, fidelity=None)
        result = dataclasses.replace(result, rows=(failed, *result.rows[1:]))
        assert sweep_csv(result) == self.GOLDEN_CSV

    def test_records_are_slotted(self, prepared_zoo):
        report = run_algorithm(prepared_zoo["chain3"], 0.1, seed=7)
        cfg, _ = load_fixture("chain3")
        row = sweep(cfg, trials=1).rows[0]
        for record in (report, report.vertices[0], row):
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_report_changes_with_seed(self, prepared_zoo):
        prep = prepared_zoo["ring4"]
        a = report_to_json(run_algorithm(prep, 0.1, seed=1))
        b = report_to_json(run_algorithm(prep, 0.1, seed=2))
        assert a != b


class TestChiSquareHelper:
    def test_pvalue_matches_scipy_stats(self, prepared_zoo):
        # chain3 at its smallest overlap, as criterion 6 picks it; the
        # p-value was 0.5978077866316802 when computed with scipy.stats
        from scipy import stats as scipy_stats

        prep = prepared_zoo["chain3"]
        step = int(np.argmin(prep.overlaps))
        got = chi_square_vs_markov(prep, step, max_alternations=6, trials=2000, seed=31)
        oracle = scipy_stats.chisquare(got["observed"], got["expected"])
        assert got["chi2"] == pytest.approx(oracle.statistic, rel=1e-12)
        assert got["pvalue"] == pytest.approx(oracle.pvalue, abs=1e-12)
        assert got["pvalue"] == pytest.approx(0.5978077866316802, abs=1e-12)

    def test_fixture_statistics_fit(self, prepared_zoo):
        prep = prepared_zoo["chain3"]
        step = int(np.argmin(prep.overlaps))
        stats = chi_square_vs_markov(prep, step, max_alternations=5, trials=4000, seed=2)
        assert 0.0 <= stats["pvalue"] <= 1.0
        assert stats["pvalue"] > 0.001
        assert stats["bins"] >= 2
        assert sum(stats["observed"]) == 4000

    def test_expected_counts_merge(self, prepared_zoo):
        prep = prepared_zoo["chain2"]  # overlaps near 1: sparse tails merge
        stats = chi_square_vs_markov(prep, 0, max_alternations=6, trials=2000, seed=3)
        assert all(e >= 4.9 for e in stats["expected"][:-1])
