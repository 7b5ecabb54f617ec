"""Multi-cell multigroup network model.

Topology indexing: groups are assigned to base stations round-robin
(group g -> BS g mod B) and users to groups round-robin (user u ->
group u mod G), which realizes the equal-split convention used
throughout.  All quantities are linear scale; dB conversion happens at
the CLI boundary only.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StateError


@dataclass(frozen=True)
class Topology:
    """Immutable index structure plus per-user/per-BS parameters.

    B, A, G, U follow the {B, G, U, A} convention: number of base
    stations, antennas per BS, total groups, total users.  ``gamma`` and
    ``sigma2`` are per-user (linear SINR target, noise watts); ``p_max``
    is per-BS transmit power (only the balancing algorithms use it);
    ``cell_separation`` is the linear path-loss ratio d >= 1 applied to
    cross-cell channels.
    """

    B: int
    A: int
    G: int
    U: int
    group_of_user: tuple
    bs_of_group: tuple
    gamma: np.ndarray
    sigma2: np.ndarray
    p_max: np.ndarray
    cell_separation: float

    def serving_bs(self, u):
        return self.bs_of_group[self.group_of_user[u]]

    def groups_of_bs(self, b):
        return [g for g in range(self.G) if self.bs_of_group[g] == b]

    def cell_order(self):
        """The groups cell by cell: BS 0's :meth:`groups_of_bs`, then
        BS 1's, and so on."""
        return np.argsort(self.bs_of_group, kind="stable")

    def users_of_group(self, g):
        return [u for u in range(self.U) if self.group_of_user[u] == g]

    def users_of_bs(self, b):
        return [u for u in range(self.U) if self.serving_bs(u) == b]

    def out_of_cell_users(self, b):
        return [u for u in range(self.U) if self.serving_bs(u) != b]

    def ici_mask(self):
        """(B, U) bool, True at the directed ICI pairs (j, u) where BS j
        is not user u's serving BS; row-major order is lexicographic.

        ICI values live on a float (B, U) grid theta[j, u]; only its
        entries under this mask are ever read.
        """
        serving = np.take(self.bs_of_group, self.group_of_user)
        return np.arange(self.B)[:, None] != serving

    def ici_grid(self, theta):
        """ICI values as a read-only float (B, U) grid, a scalar
        broadcast.  Other shapes, and values not finite and nonnegative
        (``None`` reads as NaN), raise :class:`ConfigurationError`."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape not in [(), (self.B, self.U)]:
            raise ConfigurationError(f"ICI values of shape {theta.shape}; "
                                     f"expected () or {(self.B, self.U)}")
        if not np.all(np.isfinite(theta) & (theta >= 0)):
            raise ConfigurationError("ICI values must be finite and >= 0")
        return np.broadcast_to(theta, (self.B, self.U))

    def ici_owned(self, b):
        """(2, B, U) bool: BS b's ICI pairs by its role, row 0 the pairs
        (b, u) it interferes on, row 1 the pairs (j, u) into its users.
        A pair touches BS b when either row holds it."""
        mask = self.ici_mask()
        owned = np.stack([np.zeros_like(mask), mask & ~mask[b]])
        owned[0, b] = mask[b]
        return owned


def build_topology(B, G, U, A, gamma=1.0, sigma2=1.0, p_max=1.0,
                   cell_separation=1.0):
    """Construct the round-robin equal-split topology.

    ``gamma``, ``sigma2`` broadcast over users and ``p_max`` over BSs
    when given as scalars.  Raises :class:`ConfigurationError` for
    non-divisible counts or out-of-range or non-finite parameters.
    """
    for name, val in (("B", B), ("G", G), ("U", U), ("A", A)):
        if not 1 <= val < np.inf or int(val) != val:
            raise ConfigurationError(f"{name} must be a positive integer")
    B, G, U, A = int(B), int(G), int(U), int(A)
    if G % B != 0:
        raise ConfigurationError(
            f"G={G} must be divisible by B={B} for the equal split")
    if U % G != 0:
        raise ConfigurationError(
            f"U={U} must be divisible by G={G} for the equal split")
    gamma = np.broadcast_to(np.asarray(gamma, dtype=float), (U,)).copy()
    sigma2 = np.broadcast_to(np.asarray(sigma2, dtype=float), (U,)).copy()
    p_max = np.broadcast_to(np.asarray(p_max, dtype=float), (B,)).copy()
    for name, arr in (("gamma", gamma), ("sigma2", sigma2),
                      ("p_max", p_max)):
        if not np.all(np.isfinite(arr) & (arr > 0)):
            raise ConfigurationError(f"{name} must be finite and positive "
                                     "(linear scale)")
        arr.setflags(write=False)
    if not 1.0 <= cell_separation < np.inf:
        raise ConfigurationError(
            "cell separation d must be finite and >= 1 (linear)")
    return Topology(
        B=B, A=A, G=G, U=U,
        group_of_user=tuple(u % G for u in range(U)),
        bs_of_group=tuple(g % B for g in range(G)),
        gamma=gamma, sigma2=sigma2, p_max=p_max,
        cell_separation=float(cell_separation))


@dataclass(frozen=True)
class ChannelSet:
    """Effective channels h[b, u] (cross-cell entries pre-scaled by
    sqrt(1/d)) and their rank-one outer products."""

    h: np.ndarray          # (B, U, A) complex
    outer: np.ndarray      # (B, U, A, A) complex Hermitian

    def vec(self, b, u):
        return self.h[b, u]


def sample_channels(topology, seed):
    """Draw i.i.d. CN(0, 1) channels, attenuating cross-cell links.

    ``seed`` may be an integer or a numpy Generator; a given integer
    seed reproduces the ChannelSet bit for bit.
    """
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    B, U, A = topology.B, topology.U, topology.A
    h = (rng.standard_normal((B, U, A))
         + 1j * rng.standard_normal((B, U, A))) / np.sqrt(2.0)
    h[topology.ici_mask()] *= np.sqrt(1.0 / topology.cell_separation)
    outer = np.einsum("bui,buj->buij", h, h.conj())
    h.setflags(write=False)
    outer.setflags(write=False)
    return ChannelSet(h=h, outer=outer)


@dataclass
class BeamformingSolution:
    """Per-group covariances and (when extracted) rank-one beamformers,
    stacked over n groups: ``W`` (n, A, A) PSD, ``w`` (n, A), ``p`` (n,)
    watts, ``rank`` (n,) ints; None where not computed.  A scheme's
    solution has the G groups in group order, a cell's its own in
    :meth:`Topology.groups_of_bs` order (:func:`network_stack`)."""

    W: np.ndarray = None
    w: np.ndarray = None
    p: np.ndarray = None
    rank: np.ndarray = None
    objective: float = None
    used_randomization: bool = False
    # distributed randomization picked by coupled least powers because
    # no draw met every BS's fixed ICI values
    gr_fallback: bool = False
    # relaxation-level diagnostics, populated by the solve pipelines:
    # the relaxation optimum and the (n,) ranks of its covariances
    sdr_objective: float = None
    sdr_rank: np.ndarray = None


def network_stack(topology, cells):
    """The network's stack, in group order, of per-cell stacks:
    ``cells[b]`` holds BS b's groups in :meth:`Topology.groups_of_bs`
    order."""
    return np.concatenate(cells)[np.argsort(topology.cell_order())]


def evaluate_sinr(channels, solution, u, topology):
    """Achieved SINR of user u under extracted beamformers, those of a
    :class:`BeamformingSolution` or a (G, A) array.

    Numerator |h_{b,u}^H w_g|^2 over noise plus every other group's
    beam, intra- and inter-cell alike.
    """
    w = solution.w if isinstance(solution, BeamformingSolution) \
        else solution
    if w is None or len(w) != topology.G:
        raise StateError("SINR needs an extracted beamformer per group")
    g_serv = topology.group_of_user[u]
    desired, interference = None, 0.0
    for g, (b, v) in enumerate(zip(topology.bs_of_group, w)):
        gain = abs(np.vdot(channels.vec(b, u), v)) ** 2
        if g == g_serv:
            desired = gain
        else:
            interference += gain
    return desired / (topology.sigma2[u] + interference)


def orthogonal_equivalent_target(gamma, B):
    """SINR target matching the same rate when each cell gets a 1/B slot.

    Rate r = log2(1 + gamma) needs B * r in the orthogonal scheme, so
    the equivalent target is (1 + gamma)^B - 1.
    """
    return (1.0 + gamma) ** B - 1.0


def sum_power(solution):
    """Total transmit power: sum of Tr(W_g), or of ||w_g||^2 when only
    beams are given."""
    if solution.W is not None:
        return sum(float(np.real(np.trace(W))) for W in solution.W)
    if solution.w is not None:
        return sum(float(np.linalg.norm(w) ** 2) for w in solution.w)
    return 0.0
