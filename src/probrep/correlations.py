"""Bipartite correlation scenarios: joint outcome tables, CHSH, steering
ensembles, and the single-system embedding of a two-qubit measurement.

Outcome sign convention for correlators: the first POVM element of every
binary measurement maps to +1, the second to -1.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import (EIGENVALUE_TOL, NO_STEERING_TOL, SUPPORT_CUT, DimensionMismatch,
                     NotBipartite, WrongArity, WrongDimension)
from .operators import (
    DensityOperator,
    Ket,
    Povm,
    _check_prob_rows,
    _record,
    _shaped,
    _traces,
    born_probabilities,
    make_ket,
    make_povm,
    tensor,
)


@_record
class MeasurementFamily:
    """One POVM per setting label, all in the same dimension."""

    settings: Tuple
    povms: Tuple[Povm, ...]

    def __post_init__(self):
        if not self.settings:
            raise ValueError("a family needs at least one setting")
        if len(self.settings) != len(self.povms):
            raise ValueError("one POVM per setting label required")
        if len(set(self.settings)) != len(self.settings):
            raise ValueError(f"setting labels must be distinct, got {list(self.settings)}")
        dims = {p.dim for p in self.povms}
        if len(dims) != 1:
            raise DimensionMismatch(f"family mixes dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.povms[0].dim


def family(settings: Sequence, povms: Sequence[Povm]) -> MeasurementFamily:
    return MeasurementFamily(tuple(settings), tuple(povms))


def _setting_orders(blocks: Dict[Tuple, np.ndarray]) -> Tuple[Tuple, Tuple]:
    """(settings_a, settings_b) of a block map keyed (a, b): each side's labels in the order
    they first appear. ValueError when the map is empty, or its keys are not these labels'
    product in row-major order (a outer, b inner)."""
    keys = list(blocks)
    if not keys:
        raise ValueError("a table needs at least one setting pair")
    settings_a = tuple(dict.fromkeys(a for a, _ in keys))
    settings_b = tuple(dict.fromkeys(b for _, b in keys))
    if keys != [(a, b) for a in settings_a for b in settings_b]:
        raise ValueError(f"block keys {keys} are not the row-major product of settings "
                         f"{list(settings_a)} and {list(settings_b)}")
    return settings_a, settings_b


@_record
class CorrelationTable:
    """p(x, y | a, b) stored as one (n_x, n_y) block per setting pair, keyed in row-major
    setting order; settings_a and settings_b are read from that order."""

    probs: Dict[Tuple, np.ndarray]

    def __post_init__(self):
        _setting_orders(self.probs)

    @property
    def settings_a(self) -> Tuple:
        return _setting_orders(self.probs)[0]

    @property
    def settings_b(self) -> Tuple:
        return _setting_orders(self.probs)[1]

    def block(self, a, b) -> np.ndarray:
        return self.probs[(a, b)]

    def correlator(self, a, b) -> float:
        """The +1/-1 correlator E(a, b) of a 2x2 block."""
        blk = self.probs[(a, b)]
        if blk.shape != (2, 2):
            raise WrongArity(f"correlator needs a 2x2 block, got {blk.shape}")
        return float(blk[0, 0] - blk[0, 1] - blk[1, 0] + blk[1, 1])


def make_table(settings_a, settings_b, probs: Dict[Tuple, np.ndarray]) -> CorrelationTable:
    """2-d blocks validated (clipped) as make_prob_vector does, keyed in row-major setting
    order. A label repeated on one side: ValueError."""
    for side, labels in (("a", settings_a), ("b", settings_b)):
        if len(set(labels)) != len(labels):
            raise ValueError(f"settings_{side} labels must be distinct, got {list(labels)}")
    out = {}
    for a in settings_a:
        for b in settings_b:
            try:
                blk = _shaped(probs[(a, b)], float, 2)
                rows = _check_prob_rows(blk.reshape(1, -1))
            except ValueError as err:
                raise ValueError(f"block ({a!r}, {b!r}): {err}") from err
            out[(a, b)] = rows.reshape(blk.shape)
    return CorrelationTable(out)


def correlation_table(
    psi: Ket, fam_a: MeasurementFamily, fam_b: MeasurementFamily
) -> CorrelationTable:
    """Joint distribution p(x, y | a, b) = <psi| A^a_x (x) B^b_y |psi>."""
    da, db = fam_a.dim, fam_b.dim
    if psi.dim != da * db:
        raise DimensionMismatch(
            f"state dim {psi.dim} != {da} * {db} for the two families"
        )
    amp = psi.amplitudes.reshape(da, db)
    probs = {}
    for a, pa in zip(fam_a.settings, fam_a.povms):
        # p(x, y) = tr(C_x B_y^T) with C_x = amp^dag A_x amp, and B_y^T = conj(B_y)
        c = amp.conj().T @ pa.elements @ amp
        for b, pb in zip(fam_b.settings, fam_b.povms):
            probs[(a, b)] = _traces(c, pb.elements.conj())
    return make_table(fam_a.settings, fam_b.settings, probs)


def chsh_value(table: CorrelationTable) -> float:
    """|E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2)| for a 2x2-setting table."""
    if len(table.settings_a) != 2 or len(table.settings_b) != 2:
        raise WrongArity(
            f"CHSH needs 2 settings per side, got "
            f"{len(table.settings_a)} x {len(table.settings_b)}"
        )
    a1, a2 = table.settings_a
    b1, b2 = table.settings_b
    e = table.correlator
    return float(abs(e(a1, b1) + e(a1, b2) + e(a2, b1) - e(a2, b2)))


def lhv_chsh_bound() -> float:
    """Deterministic-strategy bound on the CHSH combination.

    Enumerates all 16 local deterministic assignments x = f(a), y = g(b),
    builds each as a correlation table, and takes the maximum CHSH value.
    (This is the exhaustive vertex oracle; the value is exactly 2.)
    """
    best = 0.0
    for fa in range(4):
        for gb in range(4):
            probs = {}
            for ia, a in enumerate(("a1", "a2")):
                for ib, b in enumerate(("b1", "b2")):
                    blk = np.zeros((2, 2))
                    blk[(fa >> ia) & 1, (gb >> ib) & 1] = 1.0
                    probs[(a, b)] = blk
            best = max(best, chsh_value(make_table(("a1", "a2"), ("b1", "b2"), probs)))
    return best


def no_signalling_check(table: CorrelationTable) -> float:
    """Largest spread of one side's marginals across the other side's settings."""
    sa, sb = table.settings_a, table.settings_b
    margs = [np.stack([table.block(a, b).sum(axis=0) for a in sa]) for b in sb]
    margs += [np.stack([table.block(a, b).sum(axis=1) for b in sb]) for a in sa]
    return max(float(np.max(m.max(axis=0) - m.min(axis=0))) for m in margs)


@_record
class SteeringReport:
    """Conditioned ensembles of subsystem B for two measurement choices on A.

    ``ensembles`` holds (probability, conditional state) pairs restricted to
    outcomes with nonzero probability, at least one per ensemble; ``marginals``
    are the two partial traces (equal by no-signalling). ``cross_fidelities``,
    ``overlap``, ``marginal_deviation`` and ``no_steering`` are derived from them.
    """

    ensembles: Tuple[List[Tuple[float, DensityOperator]], List[Tuple[float, DensityOperator]]]
    marginals: Tuple[DensityOperator, DensityOperator]

    def __post_init__(self):
        if not all(self.ensembles):
            raise ValueError("each steering ensemble needs at least one member")

    @property
    def cross_fidelities(self) -> np.ndarray:
        """Read-only [k, l]: the fidelity between member k of the first ensemble and member
        l of the second, tr(rho_k rho_l), since the members are pure."""
        first, second = (np.array([rho.matrix for _, rho in members])
                         for members in self.ensembles)
        fidelities = _traces(first, second)
        fidelities.setflags(write=False)
        return fidelities

    @property
    def overlap(self) -> float:
        """The largest cross fidelity."""
        return float(self.cross_fidelities.max())

    @property
    def marginal_deviation(self) -> float:
        """Largest entry of |marginal 1 - marginal 2|, zero up to rounding by no-signalling."""
        return float(np.max(np.abs(self.marginals[0].matrix - self.marginals[1].matrix)))

    @property
    def no_steering(self) -> bool:
        """True when the two ensembles share a state (maximum fidelity ~ 1)."""
        return self.overlap > 1.0 - NO_STEERING_TOL


def _projective_rank1_vectors(povm: Povm) -> np.ndarray:
    """Extract basis vectors from a projective rank-1 POVM, or raise."""
    d = povm.dim
    if len(povm) != d:
        raise ValueError(f"projective basis in dimension {d} needs {d} elements")
    w, v = np.linalg.eigh(povm.elements)
    bad = (np.abs(w[:, -1] - 1.0) > EIGENVALUE_TOL) | (w[:, -2] > EIGENVALUE_TOL)
    if bad.any():
        raise ValueError(f"element {int(np.argmax(bad))} is not a rank-1 projector")
    return v[:, :, -1]


def steering_ensembles(psi: Ket, basis_1: Povm, basis_2: Povm) -> SteeringReport:
    """Condition subsystem B of a pure bipartite state on two bases for A.

    The subsystem split is inferred from the basis dimension: A has
    dim(basis) and B the remaining factor. Probability-zero outcomes are
    dropped (the ensemble is the support set).
    """
    da = basis_1.dim
    if basis_2.dim != da:
        raise DimensionMismatch("both steering bases must act on subsystem A")
    if psi.dim % da != 0 or psi.dim // da < 2:
        raise NotBipartite(
            f"state dim {psi.dim} does not split as {da} x d_B with d_B >= 2"
        )
    db = psi.dim // da
    # row-major split (i_A, i_B) -> i_A * d_B + i_B, matching tensor()
    amp = psi.amplitudes.reshape(da, db)

    ensembles = []
    marginals = []
    for basis in (basis_1, basis_2):
        vecs = _projective_rank1_vectors(basis)
        members = []
        marginal = np.zeros((db, db), dtype=complex)
        for k in range(da):
            sub = vecs[k].conj() @ amp  # unnormalized conditional ket of B
            prob = float(np.real(sub.conj() @ sub))
            marginal += np.outer(sub, sub.conj())
            if prob > SUPPORT_CUT:
                cond = np.outer(sub, sub.conj()) / prob
                cond = 0.5 * (cond + cond.conj().T)
                members.append((prob, DensityOperator(cond)))
        ensembles.append(members)
        marginal = 0.5 * (marginal + marginal.conj().T)
        marginals.append(DensityOperator(marginal))

    return SteeringReport(
        ensembles=(ensembles[0], ensembles[1]),
        marginals=(marginals[0], marginals[1]),
    )


def spin32_embedding(
    fam_a: MeasurementFamily, fam_b: MeasurementFamily
) -> MeasurementFamily:
    """Embed two qubit families as joint measurements on one 4-level system.

    Uses the basis identification |0>,|1>,|2>,|3> <-> |00>,|01>,|10>,|11>;
    the joint POVM for setting (a, b) has elements A^a_x (x) B^b_y with the
    flat outcome index x * n_y + y.
    """
    if fam_a.dim != 2 or fam_b.dim != 2:
        raise WrongDimension("embedding is defined for a pair of qubit families")
    settings = []
    povms = []
    for a, pa in zip(fam_a.settings, fam_a.povms):
        for b, pb in zip(fam_b.settings, fam_b.povms):
            els = [tensor(ea, eb) for ea in pa.elements for eb in pb.elements]
            settings.append((a, b))
            povms.append(make_povm(np.array(els)))
    return MeasurementFamily(tuple(settings), tuple(povms))


def embedded_correlation_table(
    psi: Ket, fam_a: MeasurementFamily, fam_b: MeasurementFamily
) -> CorrelationTable:
    """Evaluate the spin-3/2 embedding of (fam_a, fam_b) on a 4-level state.

    Accepts the single-system state whose amplitudes match the two-qubit
    state under the basis identification. Blocks are reshaped back to
    (x, y), so the result is directly comparable to correlation_table.
    """
    joint = spin32_embedding(fam_a, fam_b)
    if psi.dim != joint.dim:
        raise DimensionMismatch(f"state dim {psi.dim} != joint dim {joint.dim}")
    rho = psi.density()
    probs = {}
    for (a, b), povm in zip(joint.settings, joint.povms):
        nx = len(fam_a.povms[fam_a.settings.index(a)])
        probs[(a, b)] = born_probabilities(rho, povm).values.reshape(nx, -1)
    return make_table(fam_a.settings, fam_b.settings, probs)


# ---------------------------------------------------------------------------
# stock states and measurement directions
# ---------------------------------------------------------------------------

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: The eigenbases of PAULI_Z, PAULI_X and PAULI_Y (columns), by steer's --basis-a/-b names.
BASES = {
    "z": np.array([[1, 0], [0, 1]], dtype=complex),
    "x": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "y": np.array([[1, 1j], [1, -1j]], dtype=complex) / np.sqrt(2),
}


def phi_plus() -> Ket:
    """(|00> + |11>) / sqrt(2)."""
    return make_ket(np.array([1, 0, 0, 1]) / np.sqrt(2))


def singlet() -> Ket:
    """(|01> - |10>) / sqrt(2)."""
    return make_ket(np.array([0, 1, -1, 0]) / np.sqrt(2))


def direction_povm(theta: float, plane: str = "xy") -> Povm:
    """Binary qubit measurement along a Bloch direction at angle theta.

    plane "xy": direction (cos theta, sin theta, 0) (azimuth from +x);
    plane "zx": direction (sin theta, 0, cos theta) (polar from +z).
    The projector onto the +1 eigenstate comes first.
    """
    if plane == "xy":
        n = np.cos(theta) * PAULI_X + np.sin(theta) * PAULI_Y
    elif plane == "zx":
        n = np.sin(theta) * PAULI_X + np.cos(theta) * PAULI_Z
    else:
        raise ValueError(f"unknown plane {plane!r}")
    eye = np.eye(2, dtype=complex)
    return make_povm(np.array([(eye + n) / 2, (eye - n) / 2]))


def angle_family(thetas: Sequence[float], plane: str = "xy",
                 degrees: Sequence[float] | None = None) -> MeasurementFamily:
    """Direction measurements at the angles thetas (radians), each labeled by its degrees
    to 6 significant digits or, where different angles share that label, by the shortest
    decimal that reads back to its `degrees` (as typed; default np.degrees(thetas))."""
    degrees = [float(v) for v in (np.degrees(thetas) if degrees is None else degrees)]
    short = [f"{np.degrees(t):g}" for t in thetas]
    clash = {s for s in short if len({v for v, other in zip(degrees, short) if other == s}) > 1}
    labels = tuple(repr(v).removesuffix(".0") if s in clash else s for v, s in zip(degrees, short))
    return MeasurementFamily(labels, tuple(direction_povm(t, plane) for t in thetas))


#: Angles (radians) achieving the Tsirelson bound for the singlet with the
#: CHSH combination used by chsh_value: A at 90 and 0 degrees azimuth, B at
#: 45 and 135.
CANONICAL_CHSH_ANGLES = (
    (np.pi / 2, 0.0),
    (np.pi / 4, 3 * np.pi / 4),
)


def canonical_chsh_table(psi: Ket = None) -> CorrelationTable:
    """Joint outcome table at the canonical CHSH settings (default: singlet)."""
    psi = singlet() if psi is None else psi
    fam_a = angle_family(CANONICAL_CHSH_ANGLES[0])
    fam_b = angle_family(CANONICAL_CHSH_ANGLES[1])
    return correlation_table(psi, fam_a, fam_b)
