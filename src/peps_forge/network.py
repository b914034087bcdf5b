"""Tensor-network data model and brute-force contraction oracle.

A state is grown on an interaction graph: every edge carries a maximally
entangled pair of bond dimension ``D`` and every vertex carries a linear map
from its incident virtual factors to a physical space. The simulation runs
in the positive ("canonical") gauge: each vertex map is polar-decomposed as
``A = U @ P`` and only the positive factor ``P`` acts on the virtual
register, while the isometry ``U`` is remembered and re-applied at the very
end (:func:`restore_gauge`). In this gauge every vertex register keeps the
full virtual dimension throughout, which makes the intermediate states and
all overlap probabilities directly computable.

Register layout: vertex ``v``'s register is the tensor product of one
``D``-dimensional factor per incident edge, ordered by ascending neighbor
id. Global states flatten registers in vertex order, vertex 0 most
significant (see :mod:`peps_forge.linalg`).

Per-graph and per-map constants are computed once: a graph caches its
incident edges, register dimensions and (read-only) pair state, whose
nonzero amplitudes are set at flat indices from slot strides, and
:func:`canonicalize_stack` takes the polar factors and singular values of
same-shape maps from one stacked SVD (:func:`canonicalize` is its stack of
one). :func:`apply_on_register` acts on one register with one matmul.
:func:`restrict_pairs` contracts chosen edges' bond slots with their pair
states and :func:`expand_pairs` tensors the pairs back in, one einsum each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    GaugeRestoreError,
    InjectivityError,
    InvalidInputError,
)
from .limits import check_dim


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected interaction graph with per-edge bond and per-vertex physical dims.

    Attributes:
        num_vertices: number of vertices, labeled ``0 .. num_vertices-1``.
        edges: unordered vertex pairs, stored as ``(min, max)``; the position
            in this tuple is the edge id.
        bond_dims: bond dimension per edge (same indexing as ``edges``).
        physical_dims: physical dimension per vertex; must be at least the
            product of incident bond dimensions (injectivity is impossible
            otherwise).
        order: total processing order, a permutation of the vertices.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    bond_dims: tuple[int, ...]
    physical_dims: tuple[int, ...]
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.num_vertices
        if n < 2:
            raise InvalidInputError(f"need at least 2 vertices, got {n}")
        if not self.edges:
            raise InvalidInputError("need at least one edge")
        if len(self.bond_dims) != len(self.edges):
            raise InvalidInputError("bond_dims must have one entry per edge")
        if len(self.physical_dims) != n:
            raise InvalidInputError("physical_dims must have one entry per vertex")
        seen = set()
        for idx, (u, v) in enumerate(self.edges):
            if u == v:
                raise InvalidInputError(f"edge {idx} is a self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInputError(f"edge {idx}=({u},{v}) references unknown vertices")
            if u > v:
                raise InvalidInputError(f"edge {idx}=({u},{v}) must be stored as (min,max)")
            if (u, v) in seen:
                raise InvalidInputError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        for idx, d in enumerate(self.bond_dims):
            if d < 2:
                raise InvalidInputError(f"bond dimension of edge {idx} must be >= 2, got {d}")
        if sorted(self.order) != list(range(n)):
            raise InvalidInputError(f"order {self.order} is not a permutation of 0..{n - 1}")
        for v in range(n):
            r = self.register_dim(v)
            if self.physical_dims[v] < r:
                raise InvalidInputError(
                    f"vertex {v}: physical dimension {self.physical_dims[v]} is below "
                    f"the virtual dimension {r}; injectivity is impossible"
                )

    @classmethod
    def build(
        cls,
        num_vertices: int,
        edges: list[tuple[int, int]] | tuple[tuple[int, int], ...],
        bond_dim: int | list[int] = 2,
        physical_dims: list[int] | tuple[int, ...] | None = None,
        order: list[int] | tuple[int, ...] | None = None,
    ) -> "InteractionGraph":
        """Convenience constructor that normalizes edges and fills defaults.

        With ``physical_dims=None`` each vertex gets the smallest physical
        dimension compatible with injectivity (the virtual dimension).
        """
        norm_edges = tuple((min(u, v), max(u, v)) for u, v in edges)
        if isinstance(bond_dim, int):
            bonds = tuple([bond_dim] * len(norm_edges))
        else:
            bonds = tuple(bond_dim)
        if order is None:
            order = list(range(num_vertices))
        if physical_dims is None:
            dims = []
            for v in range(num_vertices):
                r = 1
                for eid, (a, b) in enumerate(norm_edges):
                    if v in (a, b):
                        r *= bonds[eid]
                dims.append(r)
            physical_dims = dims
        return cls(
            num_vertices=num_vertices,
            edges=norm_edges,
            bond_dims=bonds,
            physical_dims=tuple(physical_dims),
            order=tuple(order),
        )

    def degree(self, v: int) -> int:
        return len(self.incident_edges(v))

    @property
    def degree_bound(self) -> int:
        return max(self.degree(v) for v in range(self.num_vertices))

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Edge ids at ``v``, sorted by ascending neighbor id.

        This order defines the mixed-radix layout of the vertex register.
        """
        return self._incident[v]

    @cached_property
    def _incident(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
        for eid, (u, w) in enumerate(self.edges):
            inc[u].append((w, eid))
            inc[w].append((u, eid))
        return tuple(tuple(eid for _, eid in sorted(pairs)) for pairs in inc)

    def register_dim(self, v: int) -> int:
        return self.register_dims[v]

    @cached_property
    def register_dims(self) -> tuple[int, ...]:
        return tuple(
            math.prod(self.bond_dims[e] for e in inc) for inc in self._incident
        )

    @cached_property
    def global_dim(self) -> int:
        return math.prod(self.register_dims)

    @cached_property
    def _pair_state(self) -> np.ndarray:
        """Read-only pair state; :func:`pair_state` checks the cap first."""
        # flat stride of each (vertex, edge) slot: vertex 0 and, within a
        # register, the first incident edge are most significant
        stride: dict[tuple[int, int], int] = {}
        step = 1
        for v in reversed(range(self.num_vertices)):
            for eid in reversed(self._incident[v]):
                stride[v, eid] = step
                step *= self.bond_dims[eid]
        # edge e with value k adds k to both of its slots; amplitudes
        # multiply in edge order
        index = np.zeros(1, dtype=np.intp)
        amplitude = 1.0
        for eid, (u, v) in enumerate(self.edges):
            d = self.bond_dims[eid]
            index = (index[:, None] + np.arange(d) * (stride[u, eid] + stride[v, eid])).ravel()
            amplitude *= 1.0 / math.sqrt(d)
        state = np.zeros(self.global_dim, dtype=complex)
        state[index] = amplitude
        state.setflags(write=False)
        return state


@dataclass(frozen=True)
class PepsTensor:
    """A vertex map in polar form: ``matrix = isometry @ positive_factor``.

    ``matrix`` is the user-supplied map from the virtual register to the
    physical space (physical_dim x register_dim); the positive factor is what
    the canonical-gauge simulation applies, the isometry is replayed by
    :func:`restore_gauge`.
    """

    vertex: int
    matrix: np.ndarray
    isometry: np.ndarray
    positive_factor: np.ndarray
    singular_values: np.ndarray

    @property
    def kappa(self) -> float:
        return float(self.singular_values[0] / self.singular_values[-1])

    @property
    def sigma_min(self) -> float:
        return float(self.singular_values[-1])


def canonicalize(vertex: int, matrix: np.ndarray) -> PepsTensor:
    """Polar-decompose one vertex map; see :func:`canonicalize_stack`."""
    m = linalg.as_matrix(matrix, f"tensor at vertex {vertex}")
    return canonicalize_stack((vertex,), m[None])[0]


def canonicalize_stack(vertices: tuple[int, ...], maps: np.ndarray) -> list[PepsTensor]:
    """Polar-decompose a stack of same-shape vertex maps and package them.

    One stacked thin SVD ``maps[i] = u @ diag(sigma) @ vh`` gives all three
    fields of ``vertices[i]``: the isometry ``u @ vh``, the positive factor
    ``vh^dag @ diag(sigma) @ vh`` (symmetrized) and the singular values. The
    maps must be tall or square; rank deficiency raises
    :class:`InjectivityError`, since the whole construction relies on
    left-invertibility.
    """
    maps = np.asarray(maps, dtype=complex)
    rows, cols = maps.shape[1:]
    if rows < cols:
        raise InvalidInputError(
            f"tensor at vertex {vertices[0]} must have rows >= cols, got {rows}x{cols}"
        )
    dec = linalg.svd(maps)
    for v, sigma in zip(vertices, dec.sigma):
        if sigma[-1] <= linalg.RANK_RTOL * sigma[0] or sigma[0] == 0.0:
            raise InjectivityError(
                f"tensor at vertex {v} is rank deficient: "
                f"sigma_min={sigma[-1]:.3e}, sigma_max={sigma[0]:.3e}"
            )
    psd = (dec.vh.conj().swapaxes(1, 2) * dec.sigma[:, None, :]) @ dec.vh
    isometries = dec.u @ dec.vh
    positive = (psd + psd.conj().swapaxes(1, 2)) / 2
    return [
        PepsTensor(v, maps[i], isometries[i], positive[i], dec.sigma[i])
        for i, v in enumerate(vertices)
    ]


def check_tensors(g: InteractionGraph, tensors: list[PepsTensor]) -> None:
    """Validate that ``tensors[v]`` matches vertex ``v``'s dimensions."""
    if len(tensors) != g.num_vertices:
        raise InvalidInputError(
            f"need {g.num_vertices} tensors, got {len(tensors)}"
        )
    for v, t in enumerate(tensors):
        if t.vertex != v:
            raise InvalidInputError(f"tensor at position {v} is labeled {t.vertex}")
        expected = (g.physical_dims[v], g.register_dim(v))
        if t.matrix.shape != expected:
            raise InvalidInputError(
                f"tensor at vertex {v} has shape {t.matrix.shape}, expected {expected}"
            )


def apply_on_register(
    op: np.ndarray, v: int, state: np.ndarray, register_dims: tuple[int, ...]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Apply a (possibly rectangular) operator to one vertex register.

    The state is viewed as ``(a, r, b)`` around register ``v`` and ``op``
    multiplies the ``r`` axis in one matmul: the first register needs no
    copy and a middle one moves ``r`` to the front first. The last one
    multiplies the transposed view, which keeps the summation order of
    ``op @ x``, and copies the product once.

    Returns the new state vector and the updated register dimensions.
    """
    dims = list(register_dims)
    a, r, b = math.prod(dims[:v]), dims[v], math.prod(dims[v + 1 :])
    if b == 1:
        out = (op @ state.reshape(a, r).T).T
    else:
        x = state.reshape(a, r, b).transpose(1, 0, 2).reshape(r, a * b)
        out = (op @ x).reshape(-1, a, b).transpose(1, 0, 2)
    dims[v] = op.shape[0]
    return out.reshape(-1), tuple(dims)


def pair_state(g: InteractionGraph) -> np.ndarray:
    """Normalized product of maximally entangled pairs, one per edge.

    This is the unique zero-energy state of the initial Hamiltonian made of
    edge pair-terms. The array is built once per graph and is read-only;
    the dimension cap is checked on every call.
    """
    check_dim(g.global_dim, "pair state")
    return g._pair_state


def contract_partial(
    g: InteractionGraph, tensors: list[PepsTensor], num_processed: int
) -> tuple[np.ndarray, float]:
    """Exact intermediate target state after ``num_processed`` vertices.

    Applies the positive factor of every processed vertex (a prefix of the
    total order) to the pair state. Returns the normalized state and the
    squared norm ``z`` of the unnormalized vector; ``z`` starts at 1 for the
    empty prefix.
    """
    if not 0 <= num_processed <= g.num_vertices:
        raise InvalidInputError(
            f"prefix length {num_processed} out of range 0..{g.num_vertices}"
        )
    check_tensors(g, tensors)
    state = pair_state(g)
    dims = g.register_dims
    for v in g.order[:num_processed]:
        state, dims = apply_on_register(tensors[v].positive_factor, v, state, dims)
    z = float(np.vdot(state, state).real)
    if z <= 0.0 or not math.isfinite(z):
        raise InjectivityError(
            f"partial contraction collapsed to zero norm at prefix {num_processed}"
        )
    return state / math.sqrt(z), z


def _pair_operands(
    g: InteractionGraph, edges: tuple[int, ...]
) -> tuple[list, list[int], list[int], list[int]]:
    """einsum pieces for the pair states of ``edges``.

    Bond slots are labelled in the global layout (vertex 0 first, each
    register in its incident-edge order). Returns one ``omega`` operand per
    listed edge, its amplitudes ``eye(D) / sqrt(D)`` on the edge's two slot
    labels; every label; the labels of the other slots; and every slot's
    dimension.
    """
    slots = [(v, e) for v in range(g.num_vertices) for e in g.incident_edges(v)]
    operands: list = []
    for e in edges:
        d = g.bond_dims[e]
        u, v = g.edges[e]
        operands += [np.eye(d) / math.sqrt(d), [slots.index((u, e)), slots.index((v, e))]]
    kept = [i for i, (_, e) in enumerate(slots) if e not in edges]
    return operands, list(range(len(slots))), kept, [g.bond_dims[e] for _, e in slots]


def restrict_pairs(
    g: InteractionGraph, state: np.ndarray, edges: tuple[int, ...]
) -> np.ndarray:
    """``state`` with the two bond slots of each listed edge contracted with ``omega*``.

    The result lives on the remaining slots, in the global layout of the
    graph without those edges (a vertex left with no edge has dimension 1).
    """
    operands, every, kept, dims = _pair_operands(g, edges)
    return np.einsum(np.reshape(state, dims), every, *operands, kept).reshape(-1)


def expand_pairs(
    g: InteractionGraph, state: np.ndarray, edges: tuple[int, ...]
) -> np.ndarray:
    """Tensor the pair state ``omega`` of each listed edge back into a restricted state.

    The inverse of :func:`restrict_pairs` on states in which those edges
    hold their pairs.
    """
    operands, every, kept, dims = _pair_operands(g, edges)
    shape = [dims[i] for i in kept]
    return np.einsum(np.reshape(state, shape), kept, *operands, every).reshape(-1)


def restore_gauge(
    g: InteractionGraph, tensors: list[PepsTensor], state: np.ndarray
) -> np.ndarray:
    """Map a fully processed canonical-gauge state to the physical spaces.

    Applies each stored polar isometry, turning the register of vertex ``v``
    into its physical space of dimension ``physical_dims[v]``. Isometries
    preserve the norm; any loss beyond tolerance means the state had weight
    outside a physical image.
    """
    check_tensors(g, tensors)
    full_dim = math.prod(g.physical_dims)
    check_dim(full_dim, "gauge-restored state")
    state = np.asarray(state, dtype=complex)
    if state.shape != (g.global_dim,):
        raise InvalidInputError(
            f"state has shape {state.shape}, expected ({g.global_dim},)"
        )
    dims = g.register_dims
    out = state
    for v in range(g.num_vertices):
        out, dims = apply_on_register(tensors[v].isometry, v, out, dims)
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > 1e-8:
        raise GaugeRestoreError(
            f"gauge restoration lost norm: |restored| = {norm:.12f}"
        )
    return out / norm


def peps_state(g: InteractionGraph, tensors: list[PepsTensor]) -> np.ndarray:
    """Directly contracted normalized state of the original vertex maps.

    Independent oracle for end-to-end checks: applies the raw input matrices
    (not their polar factors) to the pair state and normalizes.
    """
    check_tensors(g, tensors)
    full_dim = math.prod(g.physical_dims)
    check_dim(full_dim, "contracted state")
    state = pair_state(g)
    dims = g.register_dims
    for v in range(g.num_vertices):
        state, dims = apply_on_register(tensors[v].matrix, v, state, dims)
    norm = float(np.linalg.norm(state))
    if norm <= 0.0:
        raise InjectivityError("contraction of the input maps has zero norm")
    return state / norm
