"""Configuration ingestion, instance generation, sweeps and reporting.

Configuration documents are JSON with a fixed schema (see README). Complex
matrix entries are ``[re, im]`` pairs and matrices are nested row-major
lists; every vertex's virtual column layout is pinned by an explicit
``edge_order`` listing (ascending neighbor ids), so tensor files are
unambiguous, diffable fixtures.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .dynamics import (
    PreparedInstance,
    RunReport,
    check_zero_tol,
    cost_model,
    graph_cost_parameters,
    markov_exact_distribution,
    repair_loop_trials,
    # no caller here: the benchmark's traced run hooks harness.run_algorithm
    run_algorithm,
    run_seeds,
)
from .errors import CapacityError, ConfigError, InvalidInputError
from .limits import as_count, check_dim, check_trials, dim_cap
from .linalg import ZERO_TOL
from .network import InteractionGraph, PepsTensor, canonicalize, polar_tensor
from .streams import TENSORS, SeedStreams, check_seed

TOPOLOGIES = ("chain", "ring", "grid", "custom")
TENSOR_SOURCES = ("random", "explicit")
MODES = ("bounded", "until_success")


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphSpec:
    """Named topology or explicit edge list."""

    topology: str
    length: int | None = None
    rows: int | None = None
    cols: int | None = None
    num_vertices: int | None = None
    edges: tuple[tuple[int, int], ...] | None = None


@dataclass(frozen=True)
class TensorSpec:
    """Where vertex maps come from: seeded random sampling or explicit entries.

    ``entries`` stores one matrix per vertex as nested tuples of
    ``(re, im)`` pairs; ``edge_order`` pins each vertex's virtual column
    layout as the list of neighbor ids in register order.
    """

    source: str
    kappa_max: float | None = None
    physical_dims: tuple[int, ...] | None = None
    seed: int | None = None
    entries: tuple | None = None
    edge_order: tuple[tuple[int, ...], ...] | None = None


@dataclass(frozen=True)
class InstanceConfig:
    """One experiment: graph, tensors, failure budget and seeds."""

    graph: GraphSpec
    bond_dim: int
    tensors: TensorSpec
    seed: int
    order: tuple[int, ...] | None = None
    eps: float = 0.1
    c: float = 1.0
    zero_tol: float = ZERO_TOL


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}/{key}", "missing required field")
    return doc[key]


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{where}/{key}", "unknown field")


def _show(value) -> str:
    """``repr`` of a document value for an error message; Python refuses to
    print an integer past its int-string limit (4300 digits by default,
    ``sys.get_int_max_str_digits``)."""
    try:
        return repr(value)
    except ValueError:
        return "an integer too long to print"


def _as_int(value, where: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(where, f"expected an integer, got {_show(value)}")
    if minimum is not None and value < minimum:
        raise ConfigError(where, f"must be >= {minimum}, got {_show(value)}")
    return value


def _is_number(value) -> bool:
    """A JSON number with a finite float value; Python's ``json`` also reads
    ``Infinity`` and ``NaN``, and an integer past the float range has none."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _as_number(value, where: str) -> float:
    if not _is_number(value):
        raise ConfigError(where, f"expected a finite number, got {_show(value)}")
    return float(value)


def _as_eps(value) -> float:
    eps = _as_number(value, "/eps")
    if not 0.0 < eps < 1.0:
        raise ConfigError("/eps", f"must be in (0, 1), got {eps}")
    return eps


def _parse_graph(doc, where: str = "/graph") -> GraphSpec:
    if not isinstance(doc, dict):
        raise ConfigError(where, "expected an object")
    topology = _require(doc, "topology", where)
    if topology not in TOPOLOGIES:
        raise ConfigError(f"{where}/topology", f"must be one of {TOPOLOGIES}")
    if topology in ("chain", "ring"):
        _check_keys(doc, {"topology", "length"}, where)
        length = _as_int(_require(doc, "length", where), f"{where}/length", 2)
        if topology == "ring" and length < 3:
            raise ConfigError(f"{where}/length", "a ring needs at least 3 vertices")
        return GraphSpec(topology=topology, length=length)
    if topology == "grid":
        _check_keys(doc, {"topology", "rows", "cols"}, where)
        rows = _as_int(_require(doc, "rows", where), f"{where}/rows", 1)
        cols = _as_int(_require(doc, "cols", where), f"{where}/cols", 1)
        if rows * cols < 2:
            raise ConfigError(where, "a grid needs at least 2 vertices")
        return GraphSpec(topology="grid", rows=rows, cols=cols)
    _check_keys(doc, {"topology", "num_vertices", "edges"}, where)
    n = _as_int(_require(doc, "num_vertices", where), f"{where}/num_vertices", 2)
    edges_doc = _require(doc, "edges", where)
    if not isinstance(edges_doc, list) or not edges_doc:
        raise ConfigError(f"{where}/edges", "expected a non-empty list of pairs")
    edges = []
    for i, pair in enumerate(edges_doc):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
        ):
            raise ConfigError(f"{where}/edges/{i}", f"expected [u, v], got {_show(pair)}")
        edges.append((min(pair), max(pair)))
    return GraphSpec(topology="custom", num_vertices=n, edges=tuple(edges))


def _parse_tensors(doc, where: str = "/tensors") -> TensorSpec:
    if not isinstance(doc, dict):
        raise ConfigError(where, "expected an object")
    source = _require(doc, "source", where)
    if source not in TENSOR_SOURCES:
        raise ConfigError(f"{where}/source", f"must be one of {TENSOR_SOURCES}")
    if source == "random":
        _check_keys(doc, {"source", "kappa_max", "physical_dims", "seed"}, where)
        kappa_max = _as_number(_require(doc, "kappa_max", where), f"{where}/kappa_max")
        if kappa_max < 1.0:
            raise ConfigError(f"{where}/kappa_max", f"must be >= 1, got {kappa_max}")
        seed = _as_int(_require(doc, "seed", where), f"{where}/seed", 0)
        dims = doc.get("physical_dims")
        if dims is not None:
            if not isinstance(dims, list):
                raise ConfigError(f"{where}/physical_dims", "expected a list or null")
            dims = tuple(
                _as_int(d, f"{where}/physical_dims/{i}", 1) for i, d in enumerate(dims)
            )
        return TensorSpec(
            source="random", kappa_max=kappa_max, physical_dims=dims, seed=seed
        )
    _check_keys(doc, {"source", "entries", "edge_order"}, where)
    entries_doc = _require(doc, "entries", where)
    if not isinstance(entries_doc, list) or not entries_doc:
        raise ConfigError(f"{where}/entries", "expected one matrix per vertex")
    entries = []
    for v, matrix in enumerate(entries_doc):
        here = f"{where}/entries/{v}"
        if not isinstance(matrix, list) or not matrix:
            raise ConfigError(here, "expected a non-empty list of rows")
        rows = []
        width = None
        for i, row in enumerate(matrix):
            if not isinstance(row, list) or not row:
                raise ConfigError(f"{here}/{i}", "expected a non-empty row")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ConfigError(f"{here}/{i}", "ragged matrix rows")
            cells = []
            for j, cell in enumerate(row):
                if not isinstance(cell, list) or len(cell) != 2 or not all(
                    _is_number(x) for x in cell
                ):
                    raise ConfigError(
                        f"{here}/{i}/{j}", f"expected finite [re, im], got {_show(cell)}"
                    )
                cells.append((float(cell[0]), float(cell[1])))
            rows.append(tuple(cells))
        entries.append(tuple(rows))
    edge_order_doc = _require(doc, "edge_order", where)
    if not isinstance(edge_order_doc, list) or len(edge_order_doc) != len(entries):
        raise ConfigError(f"{where}/edge_order", "expected one neighbor list per vertex")
    edge_order = []
    for v, lst in enumerate(edge_order_doc):
        if not isinstance(lst, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in lst
        ):
            raise ConfigError(f"{where}/edge_order/{v}", "expected a list of vertex ids")
        edge_order.append(tuple(lst))
    return TensorSpec(
        source="explicit", entries=tuple(entries), edge_order=tuple(edge_order)
    )


def parse_config(doc: dict) -> InstanceConfig:
    """Validate a configuration document and build an :class:`InstanceConfig`.

    Errors carry a JSON-pointer-style location of the offending field.
    """
    if not isinstance(doc, dict):
        raise ConfigError("", "expected a JSON object")
    _check_keys(
        doc,
        {"graph", "bond_dim", "tensors", "seed", "order", "eps", "c", "tolerances"},
        "",
    )
    graph = _parse_graph(_require(doc, "graph", ""))
    bond_dim = _as_int(_require(doc, "bond_dim", ""), "/bond_dim", 2)
    tensors = _parse_tensors(_require(doc, "tensors", ""))
    seed = _as_int(_require(doc, "seed", ""), "/seed", 0)
    order = None
    if doc.get("order") is not None:
        if not isinstance(doc["order"], list):
            raise ConfigError("/order", "expected a list of vertex ids")
        order = tuple(
            _as_int(v, f"/order/{i}", 0) for i, v in enumerate(doc["order"])
        )
    eps = _as_eps(doc.get("eps", 0.1))
    c = _as_number(doc.get("c", 1.0), "/c")
    if c <= 0.0:
        raise ConfigError("/c", f"must be positive, got {c}")
    zero_tol = ZERO_TOL
    if "tolerances" in doc:
        tol_doc = doc["tolerances"]
        if not isinstance(tol_doc, dict):
            raise ConfigError("/tolerances", "expected an object")
        _check_keys(tol_doc, {"zero_tol"}, "/tolerances")
        if "zero_tol" in tol_doc:
            zero_tol = _as_number(tol_doc["zero_tol"], "/tolerances/zero_tol")
            try:
                check_zero_tol(zero_tol)
            except InvalidInputError as exc:
                raise ConfigError("/tolerances/zero_tol", str(exc)) from None
    return InstanceConfig(
        graph=graph,
        bond_dim=bond_dim,
        tensors=tensors,
        seed=seed,
        order=order,
        eps=eps,
        c=c,
        zero_tol=zero_tol,
    )


def with_overrides(
    cfg: InstanceConfig, seed: int | None = None, eps: float | None = None
) -> InstanceConfig:
    """``cfg`` with a new run seed and/or failure budget, checked by the schema's rules."""
    if seed is not None:
        cfg = replace(cfg, seed=_as_int(seed, "/seed", 0))
    if eps is not None:
        cfg = replace(cfg, eps=_as_eps(eps))
    return cfg


def config_to_dict(cfg: InstanceConfig) -> dict:
    """Serialize a config back to its schema document (lossless round trip).

    Unset graph and tensor fields are left out and tuples become lists, so
    the parser alone knows which fields each topology and source takes.
    """
    doc = _lists(asdict(cfg))
    for part in ("graph", "tensors"):
        doc[part] = {key: val for key, val in doc[part].items() if val is not None}
    doc["tolerances"] = {"zero_tol": doc.pop("zero_tol")}
    return doc


def _lists(value):
    """``value`` with every tuple, at any depth, turned into a list."""
    if isinstance(value, dict):
        return {key: _lists(val) for key, val in value.items()}
    if isinstance(value, tuple):
        return [_lists(x) for x in value]
    return value


def load_config(path: str | Path) -> InstanceConfig:
    """Read a config file; fixture documents (config + expected) are unwrapped."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        # ValueError covers bad syntax, bytes that are not UTF-8 and integers
        # past Python's int-string limit; RecursionError too deep a nesting
        except (ValueError, RecursionError) as exc:
            raise ConfigError("", f"not readable JSON: {exc}") from exc
    if isinstance(doc, dict) and "graph" not in doc and isinstance(doc.get("config"), dict):
        doc = doc["config"]
    return parse_config(doc)


def instance_label(cfg: InstanceConfig) -> str:
    """Short deterministic label for reports and CSV rows."""
    g = cfg.graph
    if g.topology in ("chain", "ring"):
        shape = f"{g.topology}{g.length}"
    elif g.topology == "grid":
        shape = f"grid{g.rows}x{g.cols}"
    else:
        shape = f"custom{g.num_vertices}v{len(g.edges)}e"
    return f"{shape}-D{cfg.bond_dim}-{cfg.tensors.source}"


# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------


def topology_edges(spec: GraphSpec) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of a graph spec."""
    if spec.topology == "chain":
        n = spec.length
        return n, [(i, i + 1) for i in range(n - 1)]
    if spec.topology == "ring":
        n = spec.length
        return n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    if spec.topology == "grid":
        rows, cols = spec.rows, spec.cols
        n = rows * cols
        edges = []
        for r in range(rows):
            for col in range(cols):
                v = r * cols + col
                if col + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
        return n, edges
    return spec.num_vertices, list(spec.edges)


def random_tensors(
    graph: InteractionGraph, kappa_max: float, seed: int
) -> list[PepsTensor]:
    """Random injective vertex maps with condition number at most ``kappa_max``.

    Vertex ``v`` draws from numpy's stream of
    ``SeedSequence(seed, spawn_key=(1, v))``, bit for bit, through a
    generator that :meth:`~peps_forge.streams.SeedStreams.generator` puts
    at the start of that stream: singular values uniform in
    ``[1/kappa_max, 1]`` (no draw at ``kappa_max = 1``, which gives exact
    isometries), then, in one ``standard_normal`` call split in this order,
    the real and the imaginary Gaussians of a Haar isometry ``left``
    (physical x virtual), then those of a Haar unitary ``right`` (virtual x
    virtual). The map is ``left @ diag(sigma) @ right^dag``, and these
    drawn factors are its SVD. All Haar factors of one shape come from one
    stacked QR; the maps and their polar factors, one stacked
    :func:`~peps_forge.network.polar_tensor` per vertex shape.

    The vertex shape groups are the graph's cached
    :attr:`~peps_forge.network.InteractionGraph.shape_groups`. Each group
    draws into one array, whose real and imaginary halves are copied once
    into the complex array of each factor shape. Each group takes its
    factors as slices of the QR stacks, and a graph of one shape group gets
    its tensors in vertex order, unsorted.
    Nothing that depends on the seed is kept between calls.
    """
    if not 1.0 <= kappa_max < math.inf:
        raise InvalidInputError(f"kappa_max must be finite and >= 1, got {kappa_max}")
    streams = SeedStreams(seed, TENSORS)
    groups = graph.shape_groups
    sigmas, gaussians = [], {}
    for (p, r), vertices in groups:
        k = len(vertices)
        sigma = np.ones((k, r)) if kappa_max == 1.0 else np.empty((k, r))
        draws = np.empty((k, 2 * (p + r), r))  # rows: left re, im, right re, im
        for i, v in enumerate(vertices):
            rng = streams.generator(v)
            if kappa_max != 1.0:
                sigma[i] = rng.uniform(1.0 / kappa_max, 1.0, r)
            rng.standard_normal(out=draws[i])
        sigmas.append(sigma)
        gaussians.setdefault((p, r), []).append(_complex(draws[:, : 2 * p].reshape(k, 2, p, r)))
        gaussians.setdefault((r, r), []).append(_complex(draws[:, 2 * p :].reshape(k, 2, r, r)))
    haar, taken = {}, {}
    for shape, zs in gaussians.items():
        q, upper = np.linalg.qr(np.concatenate(zs))
        diag = upper.diagonal(0, 1, 2)
        q *= (diag / np.abs(diag)).conj()[:, None, :]
        haar[shape], taken[shape] = q, 0

    def take(shape: tuple[int, int], k: int) -> np.ndarray:
        start = taken[shape]
        taken[shape] = start + k
        return haar[shape][start : start + k]

    tensors = []
    for ((p, r), vertices), sigma in zip(groups, sigmas):
        left, right = take((p, r), len(vertices)), take((r, r), len(vertices))
        vh = right.conj().transpose(0, 2, 1)
        tensors += polar_tensor(vertices, (left * sigma[:, None, :]) @ vh, left, sigma, vh)
    if len(groups) > 1:
        tensors.sort(key=attrgetter("vertex"))
    return tensors


def _complex(z: np.ndarray) -> np.ndarray:
    """``z[:, 0] + 1j * z[:, 1]`` as one copy into a new array."""
    k, _, rows, cols = z.shape
    out = np.empty((k, rows, cols), dtype=complex)
    out.view(float).reshape(k, rows, cols, 2)[...] = z.transpose(0, 2, 3, 1)
    return out


def _check_spec_dim(cfg: InstanceConfig) -> None:
    """Check the spec's global dimension ``D^(2|E|)`` against the cap.

    The product runs edge by edge and stops once past the cap, so a huge
    graph costs a few multiplications. A custom graph's vertex count is
    capped too: isolated vertices add no dimension, but every per-vertex
    loop runs over them.
    """
    spec, cap = cfg.graph, dim_cap()
    if spec.topology in ("chain", "ring"):
        num_edges = spec.length - (spec.topology == "chain")
    elif spec.topology == "grid":
        num_edges = spec.rows * (spec.cols - 1) + spec.cols * (spec.rows - 1)
    elif spec.num_vertices > cap:
        raise CapacityError(f"custom graph has more vertices than the cap {cap}")
    else:
        num_edges = len(spec.edges)
    dim = 1
    for counted in range(1, num_edges + 1):
        dim *= cfg.bond_dim**2
        if dim > cap:
            what = "instance state"
            if counted < num_edges:
                what += f" on {counted} of its {num_edges} edges"
            check_dim(dim, what)


@functools.lru_cache(maxsize=1, typed=True)
def _shape_graph(
    num_vertices: int,
    edges: tuple[tuple[int, int], ...],
    bond_dim: int,
    physical_dims: tuple[int, ...] | None,
    order: tuple[int, ...] | None,
) -> InteractionGraph:
    """The graph of one instance shape; the last one built is kept."""
    return InteractionGraph.build(
        num_vertices, edges, bond_dim=bond_dim, physical_dims=physical_dims, order=order
    )


def build_instance(cfg: InstanceConfig) -> tuple[InteractionGraph, list[PepsTensor]]:
    """Materialize the graph and canonicalized tensors of a configuration.

    The global dimension is checked against the cap from the spec, before
    the graph is built or any tensor is sampled or decomposed, and so is
    every physical register: one too large to simulate raises
    :class:`~peps_forge.errors.CapacityError` without allocating it.
    One graph is built per instance shape (vertex count, edges, bond
    dimension, physical dimensions and order): a call of the same shape as
    the previous one, such as the next tensor seed of ``verify-lemma1``,
    reuses its graph, with the incident lists, register layout and
    read-only pair state that the graph caches.
    """
    _check_spec_dim(cfg)
    n, edges = topology_edges(cfg.graph)
    spec = cfg.tensors
    if spec.source == "random":
        dims = spec.physical_dims
        if dims is not None:
            if len(dims) != n:
                raise ConfigError(
                    "/tensors/physical_dims", f"expected {n} entries, got {len(dims)}"
                )
            check_dim(max(dims), "largest physical register")
    elif len(spec.entries) != n:
        raise ConfigError("/tensors/entries", f"expected {n} matrices, got {len(spec.entries)}")
    else:
        # each (re, im) pair is the two float64 halves of one complex128
        matrices = [np.array(m, dtype=float).view(complex)[..., 0] for m in spec.entries]
        dims = tuple(m.shape[0] for m in matrices)
    graph = _shape_graph(
        n,
        tuple((u, v) for u, v in edges),
        cfg.bond_dim,
        None if dims is None else tuple(dims),
        None if cfg.order is None else tuple(cfg.order),
    )
    if spec.source == "random":
        return graph, random_tensors(graph, spec.kappa_max, spec.seed)
    for v, (m, actual) in enumerate(zip(matrices, edge_order_of(graph))):
        if m.shape[1] != graph.register_dim(v):
            raise ConfigError(
                f"/tensors/entries/{v}",
                f"matrix has {m.shape[1]} columns, register needs {graph.register_dim(v)}",
            )
        if spec.edge_order[v] != tuple(actual):
            raise ConfigError(
                f"/tensors/edge_order/{v}",
                f"declared neighbor order {spec.edge_order[v]} does not match the "
                f"register convention {tuple(actual)} (ascending neighbor ids)",
            )
    return graph, [canonicalize(v, m) for v, m in enumerate(matrices)]


def to_explicit_config(
    cfg: InstanceConfig, graph: InteractionGraph, tensors: list[PepsTensor]
) -> InstanceConfig:
    """Pin a built instance into an explicit-entries configuration.

    The resulting config reproduces the instance's maps bit-exactly without
    any random sampling, which is how fixtures are frozen. Its polar factors
    come from an SVD of each map, so those of a random instance, which come
    from the drawn factors, agree to rounding error (about 1e-15).
    """
    entries = tuple(
        tuple(
            tuple((float(x.real), float(x.imag)) for x in row)
            for row in tensors[v].matrix
        )
        for v in range(graph.num_vertices)
    )
    edge_order = tuple(tuple(o) for o in edge_order_of(graph))
    spec = TensorSpec(source="explicit", entries=entries, edge_order=edge_order)
    return replace(cfg, tensors=spec)


def edge_order_of(graph: InteractionGraph) -> list[list[int]]:
    """Per-vertex neighbor lists in register (ascending) order."""
    # an edge's other end is the sum of its two ends minus v
    return [
        [sum(graph.edges[eid]) - v for eid in graph.incident_edges(v)]
        for v in range(graph.num_vertices)
    ]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def report_to_json(report: RunReport) -> str:
    """Canonical JSON text; identical inputs give byte-identical output."""
    return json.dumps(asdict(report), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SweepRow:
    """One trial of a sweep; reproducible bit-exactly from (config, seed).

    Slotted rather than frozen, like the driver's reports (see
    :class:`~peps_forge.dynamics.RunReport`): one is built per trial.
    Treat it as read-only.
    """

    instance: str
    seed: int
    success: bool
    fidelity: float | None
    total_measurements: int
    measurement_bound: float
    bound_margin: float
    kappa: float
    min_gap: float
    overlaps: tuple[float, ...]
    gaps: tuple[float, ...]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    summary: dict


def sweep(
    cfg: InstanceConfig,
    trials: int,
    base_seed: int | None = None,
    mode: str = "bounded",
    jobs: int = 1,
) -> SweepResult:
    """Run one instance across consecutive seeds and aggregate statistics.

    Trial ``i`` uses seed ``base_seed + i`` (default base: the config seed;
    it must be an integer >= 0), so any row can be reproduced with a single
    ``run`` at its listed seed. ``trials`` must be an integer; at most
    :data:`~peps_forge.limits.MAX_TRIALS` trials run. Both are checked
    before the instance is built.
    The trials run as one batch (see :func:`~peps_forge.dynamics.run_seeds`):
    the streams of every seed are derived in ``uint64`` arrays and every
    first measurement is drawn in bulk, so only a trial that misses a first
    shot runs a scalar chain, and no per-trial report is built. ``jobs``
    must be >= 1 and has no effect; it stays only for the benchmark
    workloads, which pass ``jobs=1``.
    """
    trials = as_count(trials, "trials")
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    check_trials(trials)
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    if base_seed is not None:
        base_seed = check_seed(base_seed)
    if mode not in MODES:
        raise InvalidInputError(f"unknown mode {mode!r}")
    graph, tensors = build_instance(cfg)
    prepared = PreparedInstance(graph, tensors, zero_tol=cfg.zero_tol)
    label = instance_label(cfg)
    start = cfg.seed if base_seed is None else base_seed
    sizes = graph_cost_parameters(graph)
    bounds = cost_model(**sizes, kappa=prepared.kappa_max, eps=cfg.eps, gap=prepared.min_gap)

    seeds = range(start, start + trials)
    succeeded, totals = run_seeds(prepared, cfg.eps, seeds, mode)
    bound = bounds.measurement_bound
    rows = [
        SweepRow(
            instance=label,
            seed=seed,
            success=ok,
            fidelity=prepared.fidelity if ok else None,
            total_measurements=total,
            measurement_bound=bound,
            bound_margin=bound - total,
            kappa=prepared.kappa_max,
            min_gap=prepared.min_gap,
            overlaps=prepared.overlaps,
            gaps=prepared.gaps,
        )
        for seed, ok, total in zip(seeds, succeeded, totals)
    ]
    successes = sum(succeeded)
    rate = successes / trials
    stderr = math.sqrt(max(rate * (1.0 - rate), 1e-12) / trials)
    summary = {
        "instance": label,
        "mode": mode,
        "eps": cfg.eps,
        "trials": trials,
        "successes": successes,
        "success_rate": rate,
        "success_rate_stderr": stderr,
        "mean_measurements": float(np.mean(totals)),
        "max_measurements": max(totals),
        "measurement_bound": bound,
        "all_within_bound": bound >= max(totals),
        "kappa": prepared.kappa_max,
        "min_gap": prepared.min_gap,
    }
    return SweepResult(rows=tuple(rows), summary=summary)


def _csv_cell(value) -> str:
    """``value`` as ``csv`` writes it in a row of several cells, a bool as 0/1."""
    kind = type(value)
    if kind is float:
        return repr(value)
    if kind is int or kind is bool:
        return str(int(value))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value, None])
    return buf.getvalue()[:-2]  # drop the second, empty cell


def sweep_csv(result: SweepResult) -> str:
    """Stable long-format CSV, one row per trial.

    The columns are :class:`SweepRow`'s fields in order, with ``success`` as
    0/1 and ``overlaps`` and ``gaps`` spread into one ``p_step_t`` column
    per processing step and one ``gap_step_t`` column per step Hamiltonian.
    ``csv`` writes floats as their ``repr`` and a missing fidelity as an
    empty cell. A cell is formatted again only when it holds another object
    than the previous row's; a sweep's rows share most of theirs.
    """
    if not result.rows:
        raise InvalidInputError("empty sweep result")
    *scalars, _, _ = (f.name for f in fields(SweepRow))  # overlaps, gaps
    first = result.rows[0]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        scalars
        + [f"p_step_{t}" for t in range(len(first.overlaps))]
        + [f"gap_step_{t}" for t in range(len(first.gaps))]
    )
    cells_of = attrgetter(*scalars)
    seen = [object()] * len(scalars)  # a sentinel no row holds
    cells = [""] * len(scalars)
    overlaps = gaps = tail = None
    for r in result.rows:
        for i, value in enumerate(cells_of(r)):
            if value is not seen[i]:
                seen[i], cells[i] = value, _csv_cell(value)
        if r.overlaps is not overlaps or r.gaps is not gaps:
            overlaps, gaps = r.overlaps, r.gaps
            tail = "".join("," + _csv_cell(repr(x)) for x in (*overlaps, *gaps))
        buf.write(",".join(cells) + tail + "\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

#: smallest expected count a chi-square bin may keep before it is merged
MIN_EXPECTED = 5.0


def chi_square_vs_markov(
    prepared: PreparedInstance,
    step: int,
    max_alternations: int,
    trials: int,
    seed: int,
) -> dict:
    """Goodness of fit of full-space repair statistics to the four-state chain.

    Bins trials by measurements used (with a separate bin for exhausted
    budgets), computes expected counts from the exact chain distribution at
    the step's overlap, merges sparse tail bins, and returns the chi-square
    p-value along with the binned counts.
    """
    from scipy.special import chdtrc

    p = prepared.overlaps[step]
    cats, probs = markov_exact_distribution(p, max_alternations)
    terminated, used = repair_loop_trials(
        prepared, step, max_alternations, trials, seed
    )
    observed = []
    for cat in cats:
        if cat == -1:
            observed.append(int(np.sum(~terminated)))
        else:
            observed.append(int(np.sum(terminated & (used == cat))))
    expected = probs * trials
    # merge the sparse tail into the last healthy bin
    obs_list, exp_list = list(observed), list(expected)
    while len(obs_list) > 2 and min(exp_list[-2:]) < MIN_EXPECTED:
        obs_list[-2] += obs_list[-1]
        exp_list[-2] += exp_list[-1]
        del obs_list[-1], exp_list[-1]
    exp_arr = np.asarray(exp_list, dtype=float)
    exp_arr *= sum(obs_list) / exp_arr.sum()
    chi2 = float(np.sum((np.asarray(obs_list, dtype=float) - exp_arr) ** 2 / exp_arr))
    return {
        "overlap": p,
        "trials": trials,
        "bins": len(obs_list),
        "observed": obs_list,
        "expected": exp_arr.tolist(),
        "chi2": chi2,
        "pvalue": float(chdtrc(len(obs_list) - 1, chi2)),
    }


def theorem_sweep_check(result: SweepResult, sigmas: float = 3.0) -> dict:
    """Success-probability and measurement-bound check on a bounded sweep.

    The empirical success fraction must be at least ``1 - eps`` minus
    ``sigmas`` binomial standard deviations (computed at ``1 - eps``), and
    every run must stay within the measurement bound.
    """
    eps = result.summary["eps"]
    trials = result.summary["trials"]
    sigma = math.sqrt(eps * (1.0 - eps) / trials)
    threshold = 1.0 - eps - sigmas * sigma
    rate = result.summary["success_rate"]
    return {
        "trials": trials,
        "eps": eps,
        "success_rate": rate,
        "threshold": threshold,
        "success_ok": rate >= threshold,
        "bound_ok": result.summary["all_within_bound"],
        "measurement_bound": result.summary["measurement_bound"],
        "max_measurements": result.summary["max_measurements"],
    }


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

FIXTURE_NAMES = ("chain2", "chain3", "chain4", "ring4", "grid2x2")


def fixture_path(name: str) -> Path:
    if name not in FIXTURE_NAMES:
        raise InvalidInputError(f"unknown fixture {name!r}; have {FIXTURE_NAMES}")
    return Path(__file__).parent / "fixtures" / f"{name}.json"


def load_fixture(name: str) -> tuple[InstanceConfig, dict]:
    """Load a shipped instance: (config, expected-values dict).

    Expected values were read off the built instance and its
    :class:`~peps_forge.dynamics.PreparedInstance` (gaps from the certified
    Lanczos solves) at generation time and are pinned for regression checks.
    """
    with open(fixture_path(name), encoding="utf-8") as f:
        doc = json.load(f)
    return parse_config(doc["config"]), doc["expected"]
