"""Random forest of CART classification trees with out-of-bag error.

Each tree is grown on a bootstrap sample (n draws with replacement); at
every node ``mtry`` features are drawn at random and the best Gini split
among them is taken.  Nodes stop splitting when pure, smaller than
2 * ``min_node``, or when no candidate split improves impurity; candidate
thresholds always leave at least ``min_node`` rows on each side, so
impure leaves have at least ``min_node`` rows.  The forest predicts by
majority vote across trees; the reported probability is the fraction of
tree votes.  Out-of-bag rows (never drawn into a tree's bootstrap) give
the internal error estimate.

Tree RNG streams are derived per tree index, so fits are deterministic.
All trees of a forest are grown in lockstep: each step pops the next
splittable node off every tree's own depth-first stack (right child
first) and scores, picks and partitions all of them in a few segmented
numpy passes.  A tree's feature draws and node ids therefore come in the
same order as when it is grown alone, one node at a time, and the forest
equals that one-tree-at-a-time result bit for bit.  Out-of-bag votes and
predictions walk all (tree, row) pairs at once over the stacked node
arrays, a block of trees at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rng import fold, mix_seed

# (tree, row) pairs walked at once when voting; bounds the pair arrays to a few MB
_PAIR_BLOCK = 1 << 16


@dataclass(frozen=True)
class _Tree:
    feature: np.ndarray    # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    vote: np.ndarray       # majority class per node
    counts: np.ndarray     # (nodes, 2) class counts


def _segments(lengths: np.ndarray):
    """Segment id, segment start and offset within the segment of every element."""
    start = np.cumsum(lengths) - lengths
    seg = np.repeat(np.arange(len(lengths)), lengths)
    return seg, start, np.arange(len(seg)) - start[seg]


def _best_splits(xs, ys, segments, seg_n, seg_pos, min_node: int):
    """Best Gini split of every segment of x-sorted rows.

    ``xs``/``ys`` hold the segments back to back, each sorted by x;
    ``segments`` is ``_segments(seg_n)``, and ``seg_n`` (all >= 2) and
    ``seg_pos`` are the segments' sizes and positive counts.  Returns
    (score, threshold) per segment, with score -inf where no valid split
    beats the parent.  A score depends only on the integer class counts at
    a distinct-x boundary, so the order of tied rows cannot change it.
    """
    seg, start, within = segments
    lo = max(min_node, 1)  # rows on each side
    valid = (within >= lo - 1) & (within < (seg_n - lo)[seg])
    valid[:-1] &= xs[1:] != xs[:-1]
    at = np.flatnonzero(valid)
    cum = np.cumsum(ys)
    vseg, vwithin = seg[at], within[at]
    left_n = vwithin + 1  # split size of the left block
    left_pos = cum[at] - (cum[start] - ys[start])[vseg]
    right_n = seg_n[vseg] - left_n
    right_pos = seg_pos[vseg] - left_pos
    # minimize total weighted Gini == maximize sum of squared class counts / size
    score = (left_pos**2 + (left_n - left_pos) ** 2) / left_n + (
        right_pos**2 + (right_n - right_pos) ** 2
    ) / right_n
    table = np.full((len(seg_n), seg_n.max()), -np.inf)
    table[vseg, vwithin] = score
    k = table.argmax(axis=1)  # first maximum per segment
    best = table[np.arange(len(seg_n)), k]
    parent = (seg_pos**2 + (seg_n - seg_pos) ** 2) / seg_n
    best[best <= parent + 1e-12] = -np.inf
    k += start
    return best, 0.5 * (xs[k] + xs[k + 1])


def _grow_forest(X, y01, boots, rngs, mtry: int, min_node: int) -> list[_Tree]:
    """Grow one tree per bootstrap, all trees in lockstep (see module doc)."""
    ntree, n = len(boots), len(y01)
    n_features = X.shape[1]
    columns = X.T.ravel()  # X[r, f] is columns[f * n + r]
    # order[f * block + t * n:][:n] holds tree t's bootstrap rows sorted by
    # feature f, ties in draw order.  A node owns the same slice
    # [start, start + size) of each of these runs, and a split partitions the
    # slices stably, so every node's rows stay sorted as a stable sort of the
    # node's rows in draw order would leave them.
    block = ntree * n
    drawn = np.concatenate(boots)
    tree_key = np.repeat(np.arange(ntree) * n, n)
    order = np.concatenate([
        drawn[np.argsort(tree_key + np.unique(X[:, f], return_inverse=True)[1][drawn],
                         kind="stable")]
        for f in range(n_features)
    ])
    root_pos = y01[drawn].reshape(ntree, n).sum(axis=1)
    # stack entries: (tree, node id, start, size, positives); right child on top
    stacks = [[(t, 0, 0, n, p)] for t, p in enumerate(root_pos.tolist())]
    n_nodes = np.ones(ntree, dtype=np.int64)
    records, thresholds = [], []
    live = list(range(ntree))
    while live:
        popped, cands, still = [], [], []
        for t in live:
            stack = stacks[t]
            while stack:
                entry = stack.pop()
                if entry[3] >= 2 * min_node and 0 < entry[4] < entry[3]:
                    popped.append(entry)
                    cands.append(rngs[t].permutation(n_features)[:mtry])
                    still.append(t)
                    break
        live = still
        if not popped:
            break
        tree, node, start, size, pos = np.array(popped).T
        base = tree * n + start
        # one segment per (node, candidate feature), candidates in draw order
        feat = np.concatenate(cands)
        seg_n = np.repeat(size, mtry)
        segments = seg, first, within = _segments(seg_n)
        rows = order[(feat * block + np.repeat(base, mtry))[seg] + within]
        xs, ys = columns[feat[seg] * n + rows], y01[rows]
        score, thr = _best_splits(xs, ys, segments, seg_n, np.repeat(pos, mtry), min_node)
        go_left = xs <= thr[seg]
        n_left = np.add.reduceat(go_left, first, dtype=np.int64)
        pos_left = np.add.reduceat(go_left * ys, first)
        score = score.reshape(-1, mtry)
        choice = score.argmax(axis=1)  # the first candidate in draw order wins ties
        split = np.flatnonzero(score[np.arange(len(popped)), choice] > -np.inf)
        if not len(split):
            continue
        pick = split * mtry + choice[split]
        f, th, n_left, pos_left = feat[pick], thr[pick], n_left[pick], pos_left[pick]
        tree, node, start, base, size, pos = (a[split] for a in (tree, node, start, base, size, pos))
        # x <= threshold is a prefix of the chosen feature's sorted slice;
        # partition the other features' slices stably to match
        node_ix, g = np.nonzero(np.arange(n_features) != f[:, None])
        if len(node_ix):
            seg, first, within = _segments(size[node_ix])
            j = node_ix[seg]
            slot = (g * block)[seg] + base[j] + within
            rows = order[slot]
            go_left = columns[f[j] * n + rows] <= th[j]
            before = np.cumsum(go_left) - go_left  # exclusive count of left rows
            before -= before[first][seg]
            order[slot - within + np.where(go_left, before, n_left[j] + within - before)] = rows
        left_id = n_nodes[tree]
        n_nodes[tree] += 2
        records.append(np.column_stack([tree, node, f, left_id, size, pos, n_left, pos_left]))
        thresholds.append(th)
        for t, lid, st, sz, ps, nl, pl in zip(*(a.tolist() for a in (
                tree, left_id, start, size, pos, n_left, pos_left))):
            stacks[t].append((t, lid, st, nl, pl))
            stacks[t].append((t, lid + 1, st + nl, sz - nl, ps - pl))
    return _assemble(n, n_nodes, root_pos, records, thresholds)


def _assemble(n, n_nodes, root_pos, records, thresholds) -> list[_Tree]:
    """Scatter the split records into one node array per field and tree."""
    offset = np.cumsum(n_nodes) - n_nodes
    total = int(n_nodes.sum())
    feature = np.full(total, -1, dtype=np.int64)
    threshold = np.zeros(total)
    left = np.full(total, -1, dtype=np.int64)
    right = np.full(total, -1, dtype=np.int64)
    counts = np.zeros((total, 2), dtype=np.int64)
    counts[offset] = np.column_stack([n - root_pos, root_pos])
    if records:
        tree, node, f, left_id, size, pos, n_left, pos_left = np.concatenate(records).T
        at = offset[tree] + node
        feature[at] = f
        threshold[at] = np.concatenate(thresholds)
        left[at] = left_id
        right[at] = left_id + 1
        child = offset[tree] + left_id
        counts[child] = np.column_stack([n_left - pos_left, pos_left])
        counts[child + 1] = np.column_stack([size - n_left - pos + pos_left, pos - pos_left])
    vote = (counts[:, 1] * 2 > counts.sum(axis=1)).astype(np.int64)
    trees = []
    for lo, hi in zip(offset.tolist(), (offset + n_nodes).tolist()):
        trees.append(_Tree(
            feature=feature[lo:hi].copy(), threshold=threshold[lo:hi].copy(),
            left=left[lo:hi].copy(), right=right[lo:hi].copy(), vote=vote[lo:hi].copy(),
            counts=counts[lo:hi].copy(),
        ))
    return trees


class _StackedTrees:
    """All trees' node arrays back to back; child ids point into the stack."""

    def __init__(self, trees):
        sizes = np.array([len(tr.feature) for tr in trees])
        self.root = np.cumsum(sizes) - sizes
        shift = np.repeat(self.root, sizes)
        self.feature = np.concatenate([tr.feature for tr in trees])
        self.threshold = np.concatenate([tr.threshold for tr in trees])
        # child of node i: [2i] when x > threshold (right), [2i + 1] when x <= threshold
        self.child = np.column_stack([np.concatenate([tr.right for tr in trees]),
                                      np.concatenate([tr.left for tr in trees])]).ravel()
        self.child += np.repeat(shift, 2)
        self.vote = np.concatenate([tr.vote for tr in trees])

    def votes(self, X: np.ndarray, tree_ix: np.ndarray, row_ix: np.ndarray) -> np.ndarray:
        """Vote of tree ``tree_ix[i]`` for row ``X[row_ix[i]]``, for every pair i."""
        columns = X.T.ravel()
        col_start = self.feature * len(X)
        node = self.root[tree_ix]
        active = np.flatnonzero(self.feature[node] >= 0)
        while len(active):
            nd = node[active]
            x = columns.take(col_start.take(nd) + row_ix.take(active))
            nd = self.child.take(2 * nd + (x <= self.threshold.take(nd)))
            node[active] = nd
            active = active[self.feature.take(nd) >= 0]
        return self.vote[node]


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[_Tree, ...]
    ntree: int
    mtry: int
    min_node: int
    oob_error: float
    oob_coverage: float  # fraction of training rows with at least one OOB vote


def forest_fit(X, y, ntree: int = 500, mtry: int = 1, min_node: int = 5, seed: int = 0) -> ForestModel:
    X = np.asarray(X, dtype=float)
    y01 = np.asarray(y).astype(bool).astype(np.int64)
    n = len(y01)
    if n < 2:
        raise ValidationError("forest training needs at least 2 rows")
    if X.ndim != 2 or len(X) != n:
        raise ValidationError("X must be 2-D with one row per label")
    if not np.isfinite(X).all():
        # a NaN or inf threshold sends every row one way, and that node would split forever
        raise ValidationError("X must be finite")
    if ntree < 1:
        raise ValidationError("ntree must be >= 1")
    if not 1 <= mtry <= X.shape[1]:
        raise ValidationError("mtry must lie in [1, n_features]")
    keys = fold(mix_seed(seed, 0xF03E57), np.arange(ntree)).tolist()
    rngs = [np.random.default_rng(k) for k in keys]
    boots = [rng.integers(0, n, size=n) for rng in rngs]
    trees = _grow_forest(X, y01, boots, rngs, mtry, min_node)
    stacked = _StackedTrees(trees)
    boots_arr = np.stack(boots)
    oob_votes = np.zeros(2 * n, dtype=np.int64)  # row * 2 + vote
    block = max(1, _PAIR_BLOCK // n)
    for lo in range(0, ntree, block):
        drawn = boots_arr[lo:lo + block]
        out_of_bag = np.ones(drawn.shape, dtype=bool)
        out_of_bag[np.arange(len(drawn))[:, None], drawn] = False
        tree_ix, row_ix = np.nonzero(out_of_bag)
        votes = stacked.votes(X, tree_ix + lo, row_ix)
        oob_votes += np.bincount(row_ix * 2 + votes, minlength=2 * n)
    oob_votes = oob_votes.reshape(n, 2)
    covered = oob_votes.sum(axis=1) > 0
    if covered.any():
        oob_pred = oob_votes.argmax(axis=1)
        oob_error = float((oob_pred[covered] != y01[covered]).mean())
    else:
        oob_error = float("nan")
    return ForestModel(
        trees=tuple(trees),
        ntree=ntree,
        mtry=mtry,
        min_node=min_node,
        oob_error=oob_error,
        oob_coverage=float(covered.mean()),
    )


def forest_predict(model: ForestModel, X) -> np.ndarray:
    """Vote-fraction probabilities, columns [P(class 0), P(class 1)]."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m = len(X)
    stacked = _StackedTrees(model.trees)
    pos_votes = np.zeros(m, dtype=np.int64)
    block = max(1, _PAIR_BLOCK // max(m, 1))
    for lo in range(0, len(model.trees), block):
        hi = min(lo + block, len(model.trees))
        tree_ix = np.repeat(np.arange(lo, hi), m)
        row_ix = np.tile(np.arange(m), hi - lo)
        pos_votes += stacked.votes(X, tree_ix, row_ix).reshape(hi - lo, m).sum(axis=0)
    pos = pos_votes / model.ntree
    return np.column_stack([1.0 - pos, pos])
