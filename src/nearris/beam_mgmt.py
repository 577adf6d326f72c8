"""Transceiver side: precoder, combiner set, SNR measurement, hierarchical search.

The BS applies one fixed power-carrying precoder focused on the RIS
center; the MU maximizes over a small unit-norm combiner set. Both are
fixed, so a realization reduces once to a direct term d and an effective
cascade A, one row per combiner, in noise-amplitude units: the SNR under
RIS phases omega is max_i |d_i + A_i exp(j*omega)|^2. Scoring reads the
phasors exp(j*omega), not the phases, so a campaign can exponentiate its
static codewords once. When a beta scales the channels' scattered terms
by one scalar s, (d, A) is a basis of three terms in s
(`cascade_basis`, read at one s by `at_scale`), and a fixed block of
profiles, such as the finest level's table, is scored at every s from its
products with that basis (`basis_products`, `basis_snr`), taken once, one
matrix-vector product per term and combiner row. One "pilot" is one SNR
measurement under one RIS codeword. Every scheme that sounds codewords
scores a block of them, one profile per row, in one call, and takes the
first maximum in row-major cell order, so ties go to the lowest cell
index. The hierarchical search sounds the full first codebook level, then
only the children of each level's winner, asking its caller for just
those codewords. It only reads them, so the caller may hand back a block
that it keeps for later searches.
"""

from dataclasses import dataclass, field

import numpy as np

from .codebook import children
from .geometry import cis, distance


def bs_precoder_focus_ris(bs_positions, p_ris, lambda_m, p_bs_watts):
    """Near-field conjugate precoder toward the RIS center, carrying the
    transmit power: v = sqrt(P) * conj(a)/|a| with steering phases
    +k*|p_m - p_ris|, so the fields of all BS antennas add in phase at the
    RIS through the advance-convention channel. ||v||^2 = P exactly.
    """
    k = 2.0 * np.pi / lambda_m
    a = cis(k * distance(bs_positions, p_ris))
    return np.sqrt(p_bs_watts) * a.conj() / np.linalg.norm(a)


def mu_combiners(n_mu):
    """Unit-norm combiner set, one per row of an (n_mu, n_mu) array.

    Row i is DFT beam i over the MU array; [[1]] when n_mu = 1.
    """
    if n_mu < 1:
        raise ValueError("n_mu must be >= 1")
    f = np.fft.fft(np.eye(n_mu)) / np.sqrt(n_mu)
    return np.ascontiguousarray(f.T)


def cascade_basis(hv, h1v, h2, g, uh, sigma):
    """(d, A) of channels that a beta scales by one scalar s, as polynomials in s.

    hv = H v (N_mu,) and h1v = H1 v (Q,) are the direct and BS-RIS channels
    times the precoder v and h2 the (N_mu, Q) RIS-MU matrix, each a (LOS,
    scattered) pair, the channel at s being LOS + s * scattered; uh = conj(U)
    holds the combiner rows and sigma is the noise amplitude. Row i of
    d + A exp(j*omega) is u_i^H (H + H2 diag(g*exp(j*omega)) H1) v / sigma.
    Returns (D, C), of shapes (3, N_mu) and (3, N_mu, Q): d = D_0 + s D_1
    (D_2 = 0) and A = C_0 + s C_1 + s^2 C_2 (`at_scale`), where D_k and C_k
    are uh / sigma times the s^k coefficients of H v and g * H2 (.) (H1 v).
    """
    if np.size(uh) == 0:
        raise ValueError("combiner set is empty")
    if not sigma > 0:  # also rejects NaN
        raise ValueError("sigma must be positive")
    (l_h, n_h), (l_1, n_1), (l_2, n_2) = hv, h1v, h2
    terms = ((l_h, l_2 * l_1), (n_h, l_2 * n_1 + n_2 * l_1), (np.zeros_like(l_h), n_2 * n_1))
    return (np.stack([uh @ h / sigma for h, _ in terms]),
            np.stack([uh @ (g * x) / sigma for _, x in terms]))


def at_scale(basis, s):
    """basis[0] + s basis[1] + s^2 basis[2], in Horner's form, of a (3, ...) basis."""
    return basis[0] + s * (basis[1] + s * basis[2])


# Bytes of profiles per row block of `basis_products` and BLAS thread: every
# product runs on a block while it sits in the cores' L2 caches (2 MB per core
# on the host of the README's numbers), so a call reads its (K, Q) profiles
# from memory once rather than once per product. The reference's finest table
# is 7 rows a block on one BLAS thread and 15 on two.
_BASIS_BLOCK_BYTES = 1 << 20


def basis_products(e, d, c, threads=1):
    """The (3, N_mu, K) products E C_k^T + D_k of (K, Q) phasor profiles with a basis.

    at_scale of the result is E A^T + d at s, the received amplitudes of
    `received_snr`. Each product is one matrix-vector product per combiner
    row and block of threads x _BASIS_BLOCK_BYTES of rows of E, for `threads`
    BLAS threads. No block of a many-row E has one row: numpy scores a lone
    row with its vector dot, whose last bits may differ, so a tail of one
    joins the block before it. Every entry is then the matrix-vector dot
    product of one profile with that row, so its bits depend neither on the
    blocks nor on the BLAS thread count.
    """
    y = np.empty((3, *c.shape[1:-1], len(e)), dtype=complex)
    rows = max(2, threads * _BASIS_BLOCK_BYTES // (e.itemsize * e.shape[-1]))
    cuts = range(rows, len(e) - 1, rows)  # a tail of one row joins the block before it
    for lo, hi in zip([0, *cuts], [*cuts, len(e)]):
        block, out = e[lo:hi], y[..., lo:hi]
        for k in range(3):
            for u, row in enumerate(c[k]):
                out[k, u] = block @ row
    y += d[:, :, None]
    return y


def basis_snr(y, s):
    """Linear SNR max |at_scale(y, s)|^2 over every profile and combiner of basis products y."""
    return np.max(np.abs(at_scale(y, s)) ** 2)


def received_snr(d, a, e):
    """Linear SNR max_i |d_i + A_i e|^2 of a (d, A) pair in noise units.

    e holds the RIS phasors exp(j*omega), one profile per row, shape
    (..., Q), and the result has shape (...): a 1-D profile gives a scalar.
    """
    y = e @ a.T + d
    return np.max(np.abs(y) ** 2, axis=-1)


@dataclass
class LevelRecord:
    candidates: list    # sounded cells (w_x, w_y)
    snrs: np.ndarray    # linear SNR of each candidate, in the same order
    winner: tuple


@dataclass
class SearchTrace:
    levels: list = field(default_factory=list)

    @property
    def pilot_count(self):
        return sum(len(rec.candidates) for rec in self.levels)

    def pilots_per_level(self):
        return [len(rec.candidates) for rec in self.levels]


def hierarchical_search(d, a, level_shapes, codewords):
    """Coarse-to-fine codeword selection over a hierarchy of (W_x, W_y) level shapes.

    codewords(depth, cells) returns the phasors of the listed cells of
    level `depth` (0-based), one (Q,) row per cell. The search sounds every
    cell of level 1, then per level only the children of the previous
    winner, all candidates of a level in one `received_snr` call; the
    winner is the first maximum in row-major order. Returns the trace,
    whose last level holds the final winner. Total pilots = |level 1| +
    sum of refinement-ratio products.
    """
    trace = SearchTrace()
    for depth, shape in enumerate(level_shapes):
        if depth == 0:
            cands = list(np.ndindex(*shape))
        else:
            cands = children(level_shapes[depth - 1], shape, winner)
        snrs = received_snr(d, a, codewords(depth, cands))
        winner = cands[int(np.argmax(snrs))]
        trace.levels.append(LevelRecord(cands, snrs, winner))
    return trace
