"""Independent brute-force reference implementations used only by the tests.

Everything here is written naively on plain dicts and lists, sharing no code
with the package: similarities enumerate co-rated items directly, neighbor
selection sorts the full candidate list, prediction and MAE follow the
formulas term by term, and the evaluation protocol is replayed rating by
rating. Tests compare the package against these. The ratings-file reader
is the plain line-by-line loop.
"""

from __future__ import annotations

import math


def parse_rating_lines(path):
    """Yield (line number, (user, item, value, timestamp)) per non-blank line of
    a ``::`` ratings file; raise ValueError naming the first bad line."""
    found = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("::")
            if len(parts) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 '::' fields, got {len(parts)}")
            try:
                row = tuple(int(p) for p in parts)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer field in {line!r}") from None
            user, item, value, _ts = row
            if not 1 <= value <= 5:
                raise ValueError(
                    f"{path}: line {lineno}: rating out of range: {value} for ({user}, {item})"
                )
            found = True
            yield lineno, row
    if not found:
        raise ValueError(f"{path}: no ratings found")


def by_user(ratings):
    """{user: {item: value}} from (user, item, value) triples."""
    out = {}
    for user, item, value in ratings:
        out.setdefault(user, {})[item] = float(value)
    return out


def user_mean(table, user):
    # Sum in ascending item order: the canonical accumulation order, so exact
    # correlations land on the same float as any other conforming path.
    row = table[user]
    return sum(row[i] for i in sorted(row)) / len(row)


def naive_pearson(table, a, u, weights=None):
    """(raw, overlap) with optional per-item weight scaling of deviations."""
    row_a, row_u = table[a], table[u]
    common = sorted(set(row_a) & set(row_u))
    if not common:
        return 0.0, 0
    ma, mu = user_mean(table, a), user_mean(table, u)
    num = da = du = 0.0
    for i in common:
        w = 1.0 if weights is None else weights[i]
        x = w * (row_a[i] - ma)
        y = w * (row_u[i] - mu)
        num += x * y
        da += x * x
        du += y * y
    if da == 0.0 or du == 0.0:
        return 0.0, len(common)
    raw = num / math.sqrt(da * du)
    return min(1.0, max(-1.0, raw)), len(common)


def naive_cf(overlap):
    return 1.0 if overlap > 50 else overlap / 50.0


def naive_rank(table, a, target, weights=None, min_sim=None):
    """All scored candidates as (user, raw, cf, value, overlap), sorted."""
    scored = []
    for u, row in table.items():
        if u == a or target not in row:
            continue
        raw, overlap = naive_pearson(table, a, u, weights)
        if overlap == 0:
            continue
        cf = naive_cf(overlap)
        value = raw * cf
        if min_sim is not None and value < min_sim:
            continue
        scored.append((u, raw, cf, value, overlap))
    scored.sort(key=lambda s: (-s[3], s[0]))
    return scored


def naive_predict(table, a, target, neighbors, denominator="abs"):
    """(value, fallback) from (user, value-similarity) neighbor pairs."""
    ma = user_mean(table, a)
    num = den = 0.0
    for u, sim in neighbors:
        num += (table[u][target] - user_mean(table, u)) * sim
        den += abs(sim) if denominator == "abs" else sim
    if not neighbors or abs(den) < 1e-9:
        return min(5.0, max(1.0, ma)), True
    return min(5.0, max(1.0, ma + num / den)), False


def naive_mae(pairs):
    return sum(abs(a - p) for a, p in pairs) / len(pairs)


def naive_item_weight(features_m, features_t, max_feature_count, k0_branch="mv"):
    """Weight via explicit vector construction over the trimmed universe.

    features_*: (genres, directors, actors) sets of already-normalized labels.
    """
    g_m, d_m, a_m = features_m
    g_t, d_t, a_t = features_t
    universe = (
        [("g", x) for x in sorted(g_m | g_t)]
        + [("d", x) for x in sorted(d_m | d_t)]
        + [("a", x) for x in sorted(a_m & a_t)]
    )
    vec_m = [
        1 if (ns == "g" and x in g_m) or (ns == "d" and x in d_m) or (ns == "a") else 0
        for ns, x in universe
    ]
    vec_t = [
        1 if (ns == "g" and x in g_t) or (ns == "d" and x in d_t) or (ns == "a") else 0
        for ns, x in universe
    ]
    dot = sum(m * t for m, t in zip(vec_m, vec_t))
    nm = math.sqrt(sum(vec_m))
    nt = math.sqrt(sum(vec_t))
    if dot >= 1:
        return (1 + dot) / (nm * nt)
    if k0_branch == "literal":
        return 1.0 / (nm * nt)
    return 1.0 / max_feature_count


def naive_evaluate(
    ratings,
    fold_of,
    n_folds,
    k_values,
    weights_fn=None,
    denominator="abs",
):
    """Replay the cross-validation protocol rating by rating.

    weights_fn(table_keys...) -> per-target weight dict; None runs the plain
    method. Returns {k: (mae, predictions, fallbacks, skipped)} aggregated
    over folds.
    """
    totals = {k: [0.0, 0, 0, 0] for k in k_values}  # err_sum, preds, fallbacks, skipped
    for f in range(n_folds):
        train = [r for r in ratings if fold_of[(r[0], r[1])] != f]
        test = sorted(
            (r for r in ratings if fold_of[(r[0], r[1])] == f),
            key=lambda r: (r[0], r[1]),
        )
        table = by_user(train)
        for a, target, actual in test:
            if a not in table:
                for k in k_values:
                    totals[k][3] += 1
                continue
            weights = None if weights_fn is None else weights_fn(target)
            ranked = naive_rank(table, a, target, weights)
            for k in k_values:
                top = [(u, value) for u, _raw, _cf, value, _ov in ranked[:k]]
                value, fallback = naive_predict(table, a, target, top, denominator)
                totals[k][0] += abs(actual - value)
                totals[k][1] += 1
                totals[k][2] += int(fallback)
    return {
        k: (err / preds if preds else float("nan"), preds, fb, sk)
        for k, (err, preds, fb, sk) in totals.items()
    }
