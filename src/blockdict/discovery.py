"""Block spans from samples: a support-span finder, then a Lemma 2 block extractor.

`support_spans` finds support spans: samples sharing a support lie in one s*alpha-dimensional
span up to noise. A seed's hypothesis grows from its unit sample by nearest-subspace-neighbour
steps (Park, Caramanis & Sanghavi, NIPS 2014): restart t's first partner is the t-th best by
|cos|, each next vector the candidate with the most energy in the span, and the last the one
leaving the most samples within the loose cut. Each pick's unit direction is deflated out of the
samples' residuals, and candidates within the screen cut of the span are skipped.

Noise outside a member's span has RMS norm nu = noise_level * sqrt(P - s*alpha), so members lie
within the relative residual DISCOVERY_MEMBER_TOL + 3 nu / ||y|| (tight cut; the loose cut
doubles the noise term). Noiseless, clusters need s*alpha + 2 members. Under noise it is
LO-RANSAC (Chum, Matas & Kittler, 2003): loose members are refit to their top s*alpha singular
vectors at the tight cut until the members repeat, at most three times; a cluster needs
2 s*alpha + 2 members and none between the cuts, and a seed's first hypothesis decides it.
"""

from __future__ import annotations

import math

import numpy as np

from .coding import _CODE_CHUNK
from .core import DEFAULT_RANK_TOL, BlockStructure
from .subspace import _bases, _intersect, _spans_equal_stacked

DISCOVERY_MEMBER_TOL = 1e-7  # relative residual of a verified cluster member
DISCOVERY_RESTARTS = 3  # first partners a seed tries when s*alpha > 2


def _noise_slack(Y: np.ndarray, structure: BlockStructure, noise_level: float):
    """(mask of Y's nonzero columns, their norms, 3 nu / ||y|| on each), or None when no cluster
    can form: s >= K, or fewer than s*alpha + 2 nonzero samples."""
    dim = structure.s * structure.alpha
    norms = np.linalg.norm(Y, axis=0)
    keep = norms > 0
    if structure.s >= structure.K or keep.sum() < dim + 2:
        return None
    return keep, norms[keep], 3 * noise_level * math.sqrt(Y.shape[0] - dim) / norms[keep]


def support_spans(Y: np.ndarray, structure: BlockStructure, noise_level: float = 0.0):
    """Yield each accepted cluster's orthonormal P x r support-span basis, r <= s*alpha, in
    acceptance order, at most min(3 C(K, s), 60): one `_bases` SVD of its refit span or members."""
    if (cut := _noise_slack(Y, structure, noise_level)) is None:
        return
    keep, norms_k, slack = cut
    dim = structure.s * structure.alpha
    Yk = Y[:, keep]
    Yn = Yk / norms_k
    step = max(1, _CODE_CHUNK // Yk.shape[1])  # candidates per last-pick product

    noisy = noise_level > 0
    tight = DISCOVERY_MEMBER_TOL + slack
    loose = DISCOVERY_MEMBER_TOL + 2 * slack
    screen_cut = (10 * DISCOVERY_MEMBER_TOL + 2 * slack) ** 2
    refits = 3 if noisy else 0
    min_members = (2 if noisy else 1) * dim + 2
    unit = np.einsum("ij,ij->j", Yn, Yn)

    unassigned = np.ones(Yk.shape[1], dtype=bool)
    accepted, max_clusters = 0, min(3 * math.comb(structure.K, structure.s), 60)
    while unassigned.sum() >= dim + 2 and accepted < max_clusters:
        cand = np.nonzero(unassigned)[0]
        seed_idx = cand[int(np.argmax(norms_k[cand]))]
        partners = cand[np.argsort(-np.abs(Yn[:, cand].T @ Yn[:, seed_idx]))]
        hit = False  # the seed's first accepted hypothesis; under noise, its first decides
        for first in partners[partners != seed_idx][: DISCOVERY_RESTARTS if dim > 2 else 1]:
            R, left, pick, Q = Yn.copy(), unit, seed_idx, None
            for grown in range(1, dim + 1):  # deflate R by each pick's unit direction
                u = R[:, pick] / np.sqrt(left[pick])
                R -= np.outer(u, u @ R)
                left = np.einsum("ij,ij->j", R, R)  # each unit sample's squared distance to it
                pool = cand[left[cand] > screen_cut[cand]]  # candidates that add a dimension
                if grown == dim or pool.size == 0:
                    break
                if grown < dim - 1:
                    pick = first if grown == 1 and first in pool else pool[np.argmin(left[pool])]
                else:  # adding c leaves y's squared residual left - (u^T R y)^2, u = R c / |R c|
                    U = R[:, pool] / np.sqrt(left[pool])
                    kept = [((U[:, k : k + step].T @ R) ** 2 > left - loose**2).sum(axis=1)
                            for k in range(0, pool.size, step)]
                    pick = pool[np.argmax(np.concatenate(kept))]
            if grown < dim:  # no hypothesis: the candidates ran out
                continue
            r = np.sqrt(left)
            members = r < loose
            for _ in range(refits):
                Q = np.linalg.svd(Yk[:, members], full_matrices=False)[0][:, :dim]
                r = np.linalg.norm(Yk - Q @ (Q.T @ Yk), axis=0) / norms_k
                fitted, members = members, r < tight
                if np.array_equal(members, fitted):  # a fixed point: later refits repeat this one
                    break
            hit = members.sum() >= min_members and np.array_equal(members, r < loose)
            if hit or noisy:
                break
        if not hit:
            unassigned[seed_idx] = False
            continue
        U, rank = _bases(Yk[:, members] if Q is None else Q, DEFAULT_RANK_TOL)[:2]
        yield U[:, : int(rank)]  # noiseless clusters can be rank-deficient
        accepted += 1
        unassigned &= ~members


def extract_blocks(spans, structure: BlockStructure, tol: float) -> list[np.ndarray]:
    """Block spans from orthonormal support spans by Lemma 2: support spans meet in their shared
    blocks' span. A span meets the earlier ones of each width in one stacked `subspace._intersect`
    at tol and each pair's lesser rank; its alpha-dimensional meets, in the earlier spans' order,
    face the kept blocks and each other in one `_spans_equal_stacked` call at max(1e-6, tol), and
    each that no block kept before it spans is kept (P x alpha, orthonormal). Returns once it holds
    K blocks, pulling no further span, or when spans run out."""
    earlier, blocks, alpha, dedupe_tol = [], [], structure.alpha, max(1e-6, tol)
    for Q in spans:
        meets = {}  # earlier span's index -> its alpha-dimensional intersection with Q
        for w in {E.shape[1] for E in earlier}:
            at = [j for j, E in enumerate(earlier) if E.shape[1] == w]
            inter, k = _intersect(np.array([earlier[j] for j in at]), Q, tol, min(w, Q.shape[1]))
            meets.update((j, B[:, :alpha]) for j, B, r in zip(at, inter, k) if r == alpha)
        new, keep = [meets[j] for j in sorted(meets)], list(range(len(blocks)))
        same = new and _spans_equal_stacked(np.array(new)[:, None], np.array(blocks + new),
                                            dedupe_tol, alpha)
        for c, (B, row) in enumerate(zip(new, same), len(blocks)):  # row: B against blocks + new
            if not row[keep].any():
                keep.append(c)
                blocks.append(B)
                if len(blocks) == structure.K:
                    return blocks
        earlier.append(Q)
    return blocks


def _discover_block_spans(Y: np.ndarray, structure: BlockStructure, noise_level: float = 0.0):
    """`extract_blocks` over `support_spans`, at 1 - cos of the tight cut's median angle."""
    if (cut := _noise_slack(Y, structure, noise_level)) is None:
        return []
    tol = DISCOVERY_MEMBER_TOL + float(np.median(cut[2])) ** 2 / 2
    return extract_blocks(support_spans(Y, structure, noise_level), structure, tol)
