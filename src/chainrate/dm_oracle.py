"""Exact density-matrix reference for swapped chains.

Everything in this module is deliberately literal: density matrices of noisy
entangled pairs, the middle-station pair measurements as explicit projections,
the conditional Pauli corrections, and the final two-qubit state read back off
as a distribution over the four maximally entangled states. It exists to
certify the fast distribution-level algebra, so it shares no code path with it.
Pairs that no station has joined share no operation, so a chain's state is
always a product of two-qubit segment states; a station joins the two segments
that meet at it, so no state exceeds 16x16 and every state kept is 4x4 and
validated by its spectrum. The public operations take states of 1..8 qubits.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .bell import BellDiagonal

# State-validity and agreement tolerance for everything density-matrix shaped.
DM_TOL = 1e-10

#: A time guard, not a size limit: each station costs well under a millisecond.
MAX_LINKS = 64

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
#: The correction of each announced symbol: X**bt, then Z**ph.
_CORRECTIONS = tuple(np.linalg.matrix_power(_Z, s & 1) @ np.linalg.matrix_power(_X, s >> 1) for s in range(4))
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


def bell_diagonal_dm(dist: BellDiagonal) -> np.ndarray:
    """Two-qubit density matrix diagonal in the entangled basis with weights ``dist``."""
    rho = np.zeros((4, 4), dtype=complex)
    for symbol in range(4):
        vec = bell_state_vector(symbol)
        rho += dist.probs[symbol] * np.outer(vec, vec.conj())
    return rho


def validate_density_matrix(rho: np.ndarray) -> int:
    """Check Hermiticity, unit trace, and positivity within DM_TOL; return the qubit count.

    Raises ValueError when any check fails or the dimension is not a power of
    two between 2 and 2**8.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    dim = rho.shape[0]
    n_qubits = dim.bit_length() - 1
    if dim != 2**n_qubits or not (1 <= n_qubits <= 8):
        raise ValueError(f"dimension {dim} is not 2**k for k in 1..8")
    if not np.isfinite(rho).all():
        raise ValueError("matrix has non-finite entries")
    if np.abs(rho - rho.conj().T).max() > DM_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    trace = complex(rho.trace())
    if abs(trace - 1.0) > DM_TOL:
        raise ValueError(f"trace must be 1 within tolerance, got {trace}")
    eigenvalues = np.linalg.eigvalsh(rho)
    if float(eigenvalues.min()) < -DM_TOL:
        raise ValueError(f"matrix has negative eigenvalue {eigenvalues.min()}")
    return n_qubits


class SwapOutcome(NamedTuple):
    """One measurement branch of a station's pair measurement.

    ``post_state`` lives on the remaining qubits, in their original order.
    ``degenerate`` marks branches of probability ~0, whose post state is set
    to the maximally mixed one purely as a placeholder.
    """

    outcome: int
    probability: float
    post_state: np.ndarray
    degenerate: bool = False


def _as_tensor(rho: np.ndarray, n_qubits: int) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape((2,) * (2 * n_qubits))


def _project_pair(tensor: np.ndarray, n_qubits: int, pair: tuple[int, int]) -> np.ndarray:
    """<v_s| rho |v_s> on qubit pair ``pair`` for each basis state s, stacked along axis 0."""
    i, j = pair
    letters = _LETTERS[: 2 * n_qubits]
    kept = "".join(l for k, l in enumerate(letters) if k not in (i, j, n_qubits + i, n_qubits + j))
    spec = f"{letters},z{letters[i]}{letters[j]},z{letters[n_qubits + i]}{letters[n_qubits + j]}->z{kept}"
    return np.einsum(spec, tensor, _BELL_BASIS.conj(), _BELL_BASIS)


def bell_swap(rho: np.ndarray, pair: tuple[int, int]) -> tuple[SwapOutcome, ...]:
    """Measure qubit pair ``pair`` in the entangled basis.

    Returns all four branches. Probabilities sum to 1; each post state is the
    normalized reduced state on the remaining qubits.
    """
    return _swap_branches(rho, validate_density_matrix(rho), pair)


def _swap_branches(rho: np.ndarray, n_qubits: int, pair: tuple[int, int]) -> tuple[SwapOutcome, ...]:
    i, j = pair
    if not (0 <= i < n_qubits and 0 <= j < n_qubits) or i == j:
        raise ValueError(f"invalid qubit pair {pair} for {n_qubits} qubits")
    if n_qubits < 3:
        raise ValueError("pair measurement needs at least one unmeasured qubit")
    tensor = _as_tensor(rho, n_qubits)
    remaining_dim = 2 ** (n_qubits - 2)
    outcomes = []
    projected = _project_pair(tensor, n_qubits, pair).reshape(4, remaining_dim, remaining_dim)
    for symbol, reduced in enumerate(projected):
        probability = float(np.trace(reduced).real)
        if probability < 1e-15:
            placeholder = np.eye(remaining_dim, dtype=complex) / remaining_dim
            outcomes.append(SwapOutcome(symbol, 0.0, placeholder, degenerate=True))
        else:
            outcomes.append(SwapOutcome(symbol, probability, reduced / probability))
    total = sum(o.probability for o in outcomes)
    if abs(total - 1.0) > DM_TOL:
        raise ValueError(f"branch probabilities sum to {total}, expected 1")
    return tuple(outcomes)


def pauli_correct(rho: np.ndarray, outcome: int, target: int) -> np.ndarray:
    """Apply the conditional correction X**bt then Z**ph of symbol ``outcome`` to qubit ``target``.

    Defined so that a state labelled s ^ outcome is mapped back to the state
    labelled s when the correction acts on either qubit of the pair.
    """
    return _pauli_correct(rho, validate_density_matrix(rho), outcome, target)


def _pauli_correct(rho: np.ndarray, n_qubits: int, outcome: int, target: int) -> np.ndarray:
    if not (0 <= target < n_qubits):
        raise ValueError(f"target qubit {target} out of range for {n_qubits} qubits")
    gate = _CORRECTIONS[outcome]
    tensor = _as_tensor(rho, n_qubits)
    letters = _LETTERS[: 2 * n_qubits]
    ket, bra = "Y", "Z"
    out_letters = list(letters)
    out_letters[target] = ket
    out_letters[n_qubits + target] = bra
    spec = f"{ket}{letters[target]},{letters},{bra}{letters[n_qubits + target]}->{''.join(out_letters)}"
    corrected = np.einsum(spec, gate, tensor, gate.conj())
    dim = 2**n_qubits
    return corrected.reshape(dim, dim)


def dm_to_bell_diagonal(rho: np.ndarray) -> BellDiagonal:
    """Decompose a two-qubit state in the entangled basis.

    Raises ValueError when any cross term exceeds DM_TOL in magnitude, i.e.
    when the state is not diagonal in that basis.
    """
    if validate_density_matrix(rho) != 2:
        raise ValueError("expected a two-qubit state")
    vecs = [bell_state_vector(s) for s in range(4)]
    weights = []
    for a in range(4):
        for b in range(4):
            coeff = complex(vecs[a].conj() @ np.asarray(rho, dtype=complex) @ vecs[b])
            if a == b:
                weights.append(coeff.real)
            elif abs(coeff) > DM_TOL:
                raise ValueError(f"state is not diagonal in the entangled basis: cross term {abs(coeff)}")
    clipped = [max(0.0, w) for w in weights]
    total = sum(clipped)
    if abs(total - 1.0) > DM_TOL:
        raise ValueError(f"diagonal weights sum to {total}, expected 1")
    return BellDiagonal(tuple(w / total for w in clipped))


def simulate_chain_exact(
    links: Sequence[BellDiagonal],
    order: Sequence[int] | None = None,
) -> BellDiagonal:
    """End-to-end distribution of a swapped chain, one segment join at a time.

    ``links[i]`` is the state of pair i; station r (1-based) holds the right qubit of
    pair r-1 and the left qubit of pair r, measures them in the entangled basis, and
    the announced outcome is corrected on the left end of the joined segment.
    Branches are averaged with their Born weights. ``order`` optionally permutes the
    station schedule (default: left to right). Pairs that no station has joined
    share no operation, so the chain's state is always a product of two-qubit
    segment states, and station r only acts on the segment ending at r and the one
    starting at r: it measures qubits 1 and 2 of their 16x16 product. Each link
    state, each 4x4 branch and each Born average is validated by its spectrum.
    ``MAX_LINKS`` only bounds the running time.
    """
    n_links = len(links)
    if not (1 <= n_links <= MAX_LINKS):
        raise ValueError(f"link count must be in 1..{MAX_LINKS}, got {n_links}")
    stations = list(range(1, n_links))
    if order is not None:
        if sorted(order) != stations:
            raise ValueError(f"order must permute stations {stations}, got {list(order)}")
        stations = list(order)
    segments = [bell_diagonal_dm(d) for d in links]
    for segment in segments:
        validate_density_matrix(segment)
    # Segment k runs from node ends[k - 1] (node 0 for k = 0) to node ends[k].
    ends = list(range(1, n_links + 1))
    for station in stations:
        k = ends.index(station)
        joined = np.zeros((4, 4), dtype=complex)
        for branch in _swap_branches(np.kron(segments[k], segments[k + 1]), 4, (1, 2)):
            validate_density_matrix(branch.post_state)
            # After the pair is removed, the joined segment's left end is qubit 0.
            joined += branch.probability * _pauli_correct(branch.post_state, 2, branch.outcome, 0)
        validate_density_matrix(joined)
        segments[k : k + 2] = [joined]
        del ends[k]
    return dm_to_bell_diagonal(segments[0])
