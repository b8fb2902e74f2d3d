"""Exact density-matrix reference for swapped chains.

Everything in this module is deliberately literal: density matrices of noisy
entangled pairs, the middle-station pair measurements as explicit projections,
the conditional Pauli corrections, and the final two-qubit state read back off
as a distribution over the four maximally entangled states. It exists to
certify the fast distribution-level algebra, so it shares no code path with it.
A chain's state is always a product of two-qubit segment states; a station
joins the two segments that meet at it through one 16x16 product, and
``simulate_chain_exact`` makes that join for a stack of equal-length chains at
once. States have 1..8 qubits; ``bell_swap`` takes one state, ``pauli_correct``
and ``dm_to_bell_diagonal`` a stack, ``validate_density_matrix`` either.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .bell import BellDiagonal

# State-validity and agreement tolerance for everything density-matrix shaped.
DM_TOL = 1e-10

#: A time guard, not a size limit: each station costs well under a millisecond.
MAX_LINKS = 64

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
#: The correction of each announced symbol, stacked along axis 0: X**bt, then Z**ph.
_CORRECTIONS = np.array([np.linalg.matrix_power(_Z, s & 1) @ np.linalg.matrix_power(_X, s >> 1) for s in range(4)])
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def bell_state_vector(symbol: int) -> np.ndarray:
    """Statevector of the maximally entangled state labelled by ``symbol``.

    Convention, with ``bt = symbol >> 1`` and ``ph = symbol & 1``: amplitude
    1/sqrt(2) on |0, bt> and (-1)**ph / sqrt(2) on |1, 1-bt>, with the first
    tensor factor as the left qubit. Basis order is |00>, |01>, |10>, |11>.
    """
    bt, ph = symbol >> 1, symbol & 1
    vec = np.zeros(4, dtype=complex)
    amp = 1.0 / math.sqrt(2.0)
    vec[bt] = amp
    vec[2 + (1 - bt)] = amp * (-1.0) ** ph
    return vec


#: The four basis states as 2x2 amplitude arrays, indexed by symbol.
_BELL_BASIS = np.array([bell_state_vector(s).reshape(2, 2) for s in range(4)])
#: The unitary V whose column s is the basis state labelled s.
_V = _BELL_BASIS.reshape(4, 4).T


def _diagonal_states(probs: np.ndarray) -> np.ndarray:
    """V diag(p) V^H for each row p of ``probs``, stacked along axis 0."""
    return np.einsum("is,ks,js->kij", _V, np.asarray(probs, dtype=float), _V.conj())


def bell_diagonal_dm(dist: BellDiagonal) -> np.ndarray:
    """Two-qubit density matrix diagonal in the entangled basis with weights ``dist``."""
    return _diagonal_states([dist.probs])[0]


def validate_density_matrix(rho: np.ndarray) -> int:
    """Check Hermiticity, unit trace, and positivity within DM_TOL; return the qubit count.

    ``rho`` is one square matrix or a stack ``(..., d, d)`` of them, and a
    message names the first failing member. Raises ValueError when any check
    fails, the stack is empty or the dimension is not a power of two between
    2 and 2**8.
    """
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    dim = rho.shape[-1]
    n_qubits = dim.bit_length() - 1
    if dim != 2**n_qubits or not (1 <= n_qubits <= 8):
        raise ValueError(f"dimension {dim} is not 2**k for k in 1..8")
    states = rho.reshape(-1, dim, dim)
    if not len(states):
        raise ValueError(f"expected at least one matrix, got shape {rho.shape}")
    if not np.isfinite(states).all():
        raise ValueError("matrix has non-finite entries")
    if np.abs(states - states.conj().swapaxes(-1, -2)).max() > DM_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    traces = states.trace(axis1=-2, axis2=-1)
    off_trace = np.abs(traces - 1.0) > DM_TOL
    if off_trace.any():
        raise ValueError(f"trace must be 1 within tolerance, got {complex(traces[off_trace][0])}")
    lowest = np.linalg.eigvalsh(states).min(axis=-1)
    if lowest.min() < -DM_TOL:
        raise ValueError(f"matrix has negative eigenvalue {lowest[lowest < -DM_TOL][0]}")
    return n_qubits


def bell_swap(rho: np.ndarray, pair: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Measure qubit pair ``pair`` of the one state ``rho`` in the entangled basis.

    Returns the Born weights and the normalized post states on the remaining
    qubits, in their original order, stacked by outcome along axis 0; the
    weights sum to 1. A branch of weight 0.0 is degenerate: its post state is
    the maximally mixed one, purely as a placeholder.
    """
    if np.ndim(rho) != 2:
        raise ValueError(f"expected one state, got shape {np.shape(rho)}")
    weights, posts = _swap_branches(np.asarray(rho)[None], validate_density_matrix(rho), pair)
    return weights[0], posts[0]


def _swap_branches(states: np.ndarray, n_qubits: int, pair: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """bell_swap on each member of a validated stack; a branch of weight below 1e-15 is degenerate."""
    i, j = pair
    if not (0 <= i < n_qubits and 0 <= j < n_qubits) or i == j:
        raise ValueError(f"invalid qubit pair {pair} for {n_qubits} qubits")
    if n_qubits < 3:
        raise ValueError("pair measurement needs at least one unmeasured qubit")
    tensor = np.asarray(states, dtype=complex).reshape((len(states),) + (2,) * (2 * n_qubits))
    # <v_s| rho |v_s> on the pair for each basis state s, stacked along the outcome axis.
    letters = _LETTERS[: 2 * n_qubits]
    kept = "".join(l for k, l in enumerate(letters) if k not in (i, j, n_qubits + i, n_qubits + j))
    spec = f"y{letters},z{letters[i]}{letters[j]},z{letters[n_qubits + i]}{letters[n_qubits + j]}->yz{kept}"
    remaining_dim = 2 ** (n_qubits - 2)
    projected = np.einsum(spec, tensor, _BELL_BASIS.conj(), _BELL_BASIS).reshape(-1, 4, remaining_dim, remaining_dim)
    weights = projected.trace(axis1=-2, axis2=-1).real
    degenerate = weights < 1e-15
    weights[degenerate] = 0.0
    posts = projected / np.where(degenerate, 1.0, weights)[..., None, None]
    posts[degenerate] = np.eye(remaining_dim) / remaining_dim
    total = max(weights.sum(axis=-1).tolist(), key=lambda t: abs(t - 1.0))
    if abs(total - 1.0) > DM_TOL:
        raise ValueError(f"branch probabilities sum to {total}, expected 1")
    return weights, posts


def pauli_correct(states: np.ndarray, outcomes: Sequence[int], target: int) -> np.ndarray:
    """Apply the conditional correction X**bt then Z**ph of symbol ``outcomes[k]`` to qubit ``target`` of ``states[k]``.

    ``states`` is a stack ``(k, d, d)``, validated here, with one outcome in 0..3
    per member. Defined so that a state labelled s ^ outcome is mapped back to
    the state labelled s when the correction acts on either qubit of the pair.
    """
    n_qubits = validate_density_matrix(states)
    if not (0 <= target < n_qubits):
        raise ValueError(f"target qubit {target} out of range for {n_qubits} qubits")
    outcomes = np.asarray(outcomes)
    if outcomes.shape != np.shape(states)[:-2] or outcomes.dtype.kind not in "iu" or not set(outcomes.ravel().tolist()) <= {0, 1, 2, 3}:
        raise ValueError(f"expected one symbol in 0..3 per state, got {outcomes.tolist()} for shape {np.shape(states)}")
    gates = _CORRECTIONS[outcomes]
    tensor = np.asarray(states, dtype=complex).reshape(np.shape(states)[:-2] + (2,) * (2 * n_qubits))
    letters = _LETTERS[: 2 * n_qubits]
    ket, bra = letters[target], letters[n_qubits + target]
    spec = f"...Y{ket},...{letters},...Z{bra}->...{letters.replace(ket, 'Y').replace(bra, 'Z')}"
    return np.einsum(spec, gates, tensor, gates.conj()).reshape(np.shape(states))


def dm_to_bell_diagonal(states: np.ndarray) -> list[BellDiagonal]:
    """Decompose each two-qubit state of the stack ``states`` in the entangled basis.

    Raises ValueError when any cross term exceeds DM_TOL in magnitude, i.e.
    when a state is not diagonal in that basis.
    """
    if np.ndim(states) != 3 or validate_density_matrix(states) != 2:
        raise ValueError(f"expected a stack of two-qubit states, got shape {np.shape(states)}")
    coeffs = _V.conj().T @ np.asarray(states, dtype=complex) @ _V
    cross = np.abs(coeffs[:, ~np.eye(4, dtype=bool)])
    if (cross > DM_TOL).any():
        raise ValueError(f"state is not diagonal in the entangled basis: cross term {cross[cross > DM_TOL][0]}")
    clipped = [[max(0.0, float(w)) for w in diagonal] for diagonal in coeffs.diagonal(axis1=1, axis2=2).real]
    totals = [0.0 + w0 + w1 + w2 + w3 for w0, w1, w2, w3 in clipped]
    for total in totals:
        if abs(total - 1.0) > DM_TOL:
            raise ValueError(f"diagonal weights sum to {total}, expected 1")
    return [BellDiagonal(tuple(w / total for w in weights)) for weights, total in zip(clipped, totals)]


def _join(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """For each member, measure qubits 1 and 2 of left x right, correct the new left end (qubit 0) and Born-average."""
    validate_density_matrix(np.array([left, right]))
    products = (left[:, :, None, :, None] * right[:, None, :, None, :]).reshape(-1, 16, 16)
    weights, posts = _swap_branches(products, 4, (1, 2))
    corrected = pauli_correct(posts.reshape(-1, 4, 4), np.tile(range(4), len(posts)), 0).reshape(posts.shape)
    return (weights[..., None, None] * corrected).sum(axis=1)


def simulate_chain_exact(
    chains: Sequence[Sequence[BellDiagonal]],
    orders: Sequence[Sequence[int]] | None = None,
) -> list[BellDiagonal]:
    """End-to-end distribution of each swapped chain, one segment join at a time.

    ``chains[b][i]`` is the state of pair i of chain b; station r (1-based) holds
    the right qubit of pair r-1 and the left qubit of pair r, measures them in the
    entangled basis, and the announced outcome is corrected on the left end of the
    joined segment; branches are averaged with their Born weights. ``orders[b]``
    permutes chain b's stations (default: left to right). Unjoined pairs share no
    operation, so a chain's state is a product of two-qubit segments, and station
    r measures qubits 1 and 2 of the 16x16 product of the two segments meeting at
    r. Chains of equal length are one stack, joined once per station step, each
    chain at its own station. Each state is validated once, where it is used: the
    join's two inputs and four post states, and the readout's final segment.
    ``MAX_LINKS`` only bounds the running time.
    """
    orders = [range(1, len(links)) for links in chains] if orders is None else orders
    if len(orders) != len(chains):
        raise ValueError(f"expected one order per chain, got {len(orders)} for {len(chains)} chains")
    groups: dict[int, list[int]] = {}
    steps = []
    for b, (links, order) in enumerate(zip(chains, orders)):
        if not (1 <= len(links) <= MAX_LINKS):
            raise ValueError(f"chain {b}: link count must be in 1..{MAX_LINKS}, got {len(links)}")
        if sorted(order) != list(range(1, len(links))):
            raise ValueError(f"chain {b}: order must permute stations {list(range(1, len(links)))}, got {list(order)}")
        # The segment ending at node e sits in slot e - 1. Station s joins slot s - 1 with the slot
        # of the nearest segment end right of s: a station joined after s, or the chain's end.
        steps.append([(s - 1, min([r for r in order[t + 1:] if r > s], default=len(links)) - 1)
                      for t, s in enumerate(order)])
        groups.setdefault(len(links), []).append(b)
    finals = np.empty((len(chains), 4, 4), dtype=complex)
    for n_links, members in groups.items():
        segments = _diagonal_states([d.probs for b in members for d in chains[b]]).reshape(-1, n_links, 4, 4)
        rows = np.arange(len(members))
        slots = np.array([steps[b] for b in members], dtype=int).reshape(len(members), n_links - 1, 2)
        for left, right in slots.transpose(1, 2, 0):
            segments[rows, right] = _join(segments[rows, left], segments[rows, right])
        finals[members] = segments[:, -1]
    return dm_to_bell_diagonal(finals) if chains else []
