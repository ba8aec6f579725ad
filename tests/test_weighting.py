"""Feature vectors, cosine, the smoothed item weight, and the per-target weight rows."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contentcf.data import MovieProfile, ProfileSource
from contentcf.weighting import (
    WeightCalculator,
    build_vectors,
    cosine,
    item_weight,
    weights_for_target,
)
from oracle import naive_item_weight

label = st.text(alphabet="abcdABCD12", min_size=1, max_size=6)


@st.composite
def profiles(draw, item_id="p"):
    return MovieProfile(
        item_id=item_id,
        title=str(item_id),
        genres=draw(st.frozensets(label, min_size=1, max_size=5)),
        directors=draw(st.frozensets(label, max_size=3)),
        actors=draw(st.frozensets(label, max_size=5)),
    )


class TestBuildVectors:
    def test_worked_example(self, worked_example_profiles):
        m, t = worked_example_profiles
        vm, vt = build_vectors(m, t)
        assert vm.components == (1, 1, 0, 1, 1, 0, 1, 1)
        assert vt.components == (1, 1, 1, 0, 0, 1, 1, 1)
        assert vm.universe == vt.universe
        # A1 was trimmed: it appears in only one actor list.
        assert "actor:a1" not in vm.universe

    def test_identical_profiles_all_ones(self):
        p = MovieProfile(item_id=1, title="x", genres={"g"}, directors={"d"}, actors={"a"})
        vm, vt = build_vectors(p, p)
        assert vm.components == vt.components == (1, 1, 1)

    def test_disjoint_profiles(self):
        a = MovieProfile(item_id=1, title="a", genres={"g1"}, actors={"x"})
        b = MovieProfile(item_id=2, title="b", genres={"g2"}, actors={"y"})
        va, vb = build_vectors(a, b)
        assert sum(x * y for x, y in zip(va.components, vb.components)) == 0

    def test_labels_case_folded(self):
        a = MovieProfile(item_id=1, title="a", genres={" Comedy "})
        b = MovieProfile(item_id=2, title="b", genres={"comedy"})
        va, vb = build_vectors(a, b)
        assert va.components == vb.components == (1,)

    def test_director_actor_namespaces_distinct(self):
        a = MovieProfile(item_id=1, title="a", genres={"g"}, directors={"Smith"})
        b = MovieProfile(item_id=2, title="b", genres={"g"}, actors={"Smith"})
        va, vb = build_vectors(a, b)
        # No shared actor, so Smith-the-actor is trimmed; Smith-the-director
        # stays as a separate universe entry owned only by profile a.
        assert va.universe == ("genre:g", "director:smith")
        assert va.components == (1, 1)
        assert vb.components == (1, 0)


class TestCosine:
    def test_worked_example(self, worked_example_profiles):
        vm, vt = build_vectors(*worked_example_profiles)
        assert cosine(vm, vt) == pytest.approx(4 / 6, abs=1e-12)

    def test_identical_vectors(self):
        p = MovieProfile(item_id=1, title="x", genres={"g1", "g2"})
        vm, vt = build_vectors(p, p)
        assert cosine(vm, vt) == 1.0

    def test_disjoint_vectors(self):
        a = MovieProfile(item_id=1, title="a", genres={"g1"})
        b = MovieProfile(item_id=2, title="b", genres={"g2"})
        assert cosine(*build_vectors(a, b)) == 0.0

    def test_universe_mismatch_rejected(self):
        a = MovieProfile(item_id=1, title="a", genres={"g1"})
        b = MovieProfile(item_id=2, title="b", genres={"g2"})
        va, _ = build_vectors(a, a)
        _, vb = build_vectors(b, b)
        with pytest.raises(ValueError, match="universe"):
            cosine(va, vb)


class TestItemWeight:
    def test_worked_example(self, worked_example_profiles):
        m, t = worked_example_profiles
        assert item_weight(m, t, max_feature_count=25) == pytest.approx(5 / 6, abs=1e-12)

    def test_zero_overlap_floor(self):
        a = MovieProfile(item_id=1, title="a", genres={"g1"})
        b = MovieProfile(item_id=2, title="b", genres={"g2"})
        assert item_weight(a, b, max_feature_count=25) == pytest.approx(0.04)

    def test_zero_overlap_literal_branch(self):
        a = MovieProfile(item_id=1, title="a", genres={"g1"})
        b = MovieProfile(item_id=2, title="b", genres={"g2"})
        # The literal formula degenerates to 1.0 for single-feature movies.
        assert item_weight(a, b, 25, k0_branch="literal") == 1.0

    def test_identical_profiles_exceed_one(self):
        p = MovieProfile(item_id=1, title="x", genres={"g1", "g2", "g3"})
        assert item_weight(p, p, 25) == pytest.approx(4 / 3)

    def test_invalid_max_feature_count(self, worked_example_profiles):
        with pytest.raises(ValueError, match="max_feature_count"):
            item_weight(*worked_example_profiles, max_feature_count=0)

    def test_unknown_k0_branch_rejected(self, worked_example_profiles):
        with pytest.raises(ValueError, match="k0_branch"):
            item_weight(*worked_example_profiles, 25, k0_branch="bogus")
        with pytest.raises(ValueError, match="k0_branch"):
            WeightCalculator({}, k0_branch="bogus")

    def test_weight_increases_with_shared_count_at_fixed_norms(self):
        # Three-genre profiles throughout, overlap growing 1 -> 2 -> 3.
        base = MovieProfile(item_id=0, title="t", genres={"a", "b", "c"})
        weights = [
            item_weight(
                MovieProfile(item_id=1, title="m", genres=g), base, 25
            )
            for g in ({"a", "x", "y"}, {"a", "b", "x"}, {"a", "b", "c"})
        ]
        assert weights[0] < weights[1] < weights[2]

    def test_literal_branch_rejects_featureless_profile(self):
        from contentcf.data import ProfileSource

        empty = MovieProfile(
            item_id=1, title="x", genres=frozenset(), source=ProfileSource.OVERRIDE
        )
        other = MovieProfile(item_id=2, title="y", genres={"g"})
        with pytest.raises(ValueError, match="no\\s+features"):
            item_weight(empty, other, 25, k0_branch="literal")
        # The default branch has a well-defined floor even then.
        assert item_weight(empty, other, 25) == pytest.approx(0.04)


@settings(max_examples=300)
@given(profiles("m"), profiles("t"), st.integers(10, 40))
def test_item_weight_matches_vector_oracle(pm, pt, mfc):
    """The set-count fast path equals explicit vector construction."""

    def norm(s):
        return frozenset(x.strip().casefold() for x in s)

    expected = naive_item_weight(
        (norm(pm.genres), norm(pm.directors), norm(pm.actors)),
        (norm(pt.genres), norm(pt.directors), norm(pt.actors)),
        mfc,
    )
    assert item_weight(pm, pt, mfc) == pytest.approx(expected, abs=1e-12)


@settings(max_examples=300)
@given(profiles("m"), profiles("t"), st.integers(10, 40))
def test_item_weight_symmetric_and_positive(pm, pt, mfc):
    w_mt = item_weight(pm, pt, mfc)
    w_tm = item_weight(pt, pm, mfc)
    assert w_mt == pytest.approx(w_tm, abs=1e-15)
    assert w_mt > 0


@settings(max_examples=300)
@given(profiles("m"), profiles("t"))
def test_cosine_in_unit_interval(pm, pt):
    vm, vt = build_vectors(pm, pt)
    c = cosine(vm, vt)
    assert 0.0 <= c <= 1.0
    if vm.components == vt.components:
        assert c == 1.0


def _store(profiles_list):
    class Store:
        pass

    s = Store()
    s.profiles = {p.item_id: p for p in profiles_list}
    return s


def _catalog(n=20, seed=1):
    import random

    rng = random.Random(seed)
    genres = [f"g{i}" for i in range(8)]
    people = [f"p{i}" for i in range(12)]
    out = []
    for i in range(n):
        out.append(
            MovieProfile(
                item_id=100 + i,
                title=f"movie {i}",
                genres=frozenset(rng.sample(genres, rng.randint(1, 3))),
                directors=frozenset(rng.sample(people, rng.randint(0, 2))),
                actors=frozenset(rng.sample(people, rng.randint(0, 4))),
            )
        )
    return out


class TestWeightsForTarget:
    def test_singleton_is_self_weight(self):
        catalog = _catalog()
        store = _store(catalog)
        calc = WeightCalculator(store)
        target = catalog[0].item_id
        wv = calc.weights_for(target, [target])
        assert wv.weights == {
            target: item_weight(catalog[0], catalog[0], calc.max_feature_count)
        }

    def test_repeated_calls_identical(self):
        store = _store(_catalog())
        calc = WeightCalculator(store)
        ids = [p for p in store.profiles][:10]
        first = calc.weights_for(100, ids)
        second = calc.weights_for(100, ids)
        assert first.weights == second.weights

    def test_matches_direct_item_weight(self):
        catalog = _catalog()
        store = _store(catalog)
        calc = WeightCalculator(store)
        target = catalog[3]
        wv = calc.weights_for(target.item_id, [p.item_id for p in catalog])
        for p in catalog:
            assert wv[p.item_id] == item_weight(p, target, calc.max_feature_count)

    def test_unprofiled_candidate_rejected(self):
        store = _store(_catalog())
        calc = WeightCalculator(store)
        with pytest.raises(KeyError, match="999"):
            calc.weights_for(100, [999])
        with pytest.raises(KeyError, match="998"):
            calc.weights_for(998, [100])

    def test_module_level_helper(self):
        catalog = _catalog()
        store = _store(catalog)
        wv = weights_for_target(catalog[0].item_id, store, [catalog[1].item_id])
        calc = WeightCalculator(store)
        assert wv.weights == calc.weights_for(catalog[0].item_id, [catalog[1].item_id]).weights

    def test_max_feature_count_is_catalog_maximum(self):
        catalog = _catalog()
        store = _store(catalog)
        calc = WeightCalculator(store)
        expected = max(
            len(frozenset(x.casefold() for x in p.genres))
            + len(frozenset(x.casefold() for x in p.directors))
            + len(frozenset(x.casefold() for x in p.actors))
            for p in catalog
        )
        assert calc.max_feature_count == expected

    def test_floor_below_any_matching_weight(self):
        """Zero-overlap pairs weigh strictly less than any k >= 1 pair."""
        catalog = _catalog(40, seed=7)
        store = _store(catalog)
        calc = WeightCalculator(store)
        floor = 1.0 / calc.max_feature_count
        for p in catalog:
            for q in catalog:
                w = calc.weight(p.item_id, q.item_id)
                if w != floor:
                    assert w > floor


# -- the posting-list weight rows against the per-pair paths -------------------

# Labels that collide after strip/casefold ("ß" folds to "ss"), drawn for
# directors and actors from one pool so a name can be both.
messy_label = st.sampled_from(["a", "A", " a", "a ", "b", "B ", "ss", "SS", "ß", "c"])
_LITERAL_ERROR = (
    "literal zero-overlap weight is undefined for a movie with no features in the "
    "comparison universe"
)


@st.composite
def messy_catalogs(draw):
    catalog = []
    for item_id in range(draw(st.integers(1, 6))):
        genres = draw(st.frozensets(messy_label, max_size=3))
        catalog.append(
            MovieProfile(
                item_id=item_id,
                title=str(item_id),
                genres=genres,
                directors=draw(st.frozensets(messy_label, max_size=2)),
                actors=draw(st.frozensets(messy_label, max_size=3)),
                # Only an override record may come without genres.
                source=ProfileSource.DATASET if genres else ProfileSource.OVERRIDE,
            )
        )
    return catalog


def _vector_weight(pm, pt, max_feature_count, k0_branch):
    """The weight spelled out over build_vectors' aligned 0/1 vectors."""
    vm, vt = build_vectors(pm, pt)
    dot = sum(x * y for x, y in zip(vm.components, vt.components))
    nm, nt = sum(vm.components), sum(vt.components)
    if nm and nt:
        assert (cosine(vm, vt) > 0) == (dot > 0)
    if dot:
        return (1 + dot) / (math.sqrt(nm) * math.sqrt(nt))
    if k0_branch == "literal":
        return 1.0 / (math.sqrt(nm) * math.sqrt(nt))  # ZeroDivisionError at a zero norm
    return 1.0 / max_feature_count


@settings(max_examples=300, deadline=None)
@given(messy_catalogs(), st.sampled_from(["mv", "literal"]), st.data())
def test_weights_for_has_the_bits_of_the_pair_paths(catalog, k0_branch, data):
    calc = WeightCalculator(_store(catalog), k0_branch=k0_branch)
    mfc = calc.max_feature_count
    target = data.draw(st.sampled_from(catalog))
    # Duplicates, the target itself and the empty list all occur.
    picked = data.draw(st.lists(st.sampled_from(catalog), max_size=8))
    ids = [p.item_id for p in picked]

    expected = {}
    for p in picked:
        try:
            expected[p.item_id] = item_weight(p, target, mfc, k0_branch)
        except ValueError as exc:
            assert str(exc) == _LITERAL_ERROR
            with pytest.raises(ZeroDivisionError):
                _vector_weight(p, target, mfc, k0_branch)
            with pytest.raises(ValueError) as raised:
                calc.weights_for(target.item_id, ids)
            assert str(raised.value) == _LITERAL_ERROR
            with pytest.raises(ValueError):
                calc.weight(p.item_id, target.item_id)
            return
        oracle = _vector_weight(p, target, mfc, k0_branch)
        assert expected[p.item_id].hex() == oracle.hex()

    wv = calc.weights_for(target.item_id, iter(ids))
    assert wv.target_id == target.item_id and wv.max_feature_count == mfc
    assert list(wv.weights) == list(dict.fromkeys(ids))
    for item_id, weight in expected.items():
        assert type(wv.weights[item_id]) is float
        assert wv.weights[item_id].hex() == weight.hex()
        assert calc.weight(item_id, target.item_id).hex() == weight.hex()


def test_unprofiled_ids_are_named_exactly():
    store = _store(_catalog())
    calc = WeightCalculator(store)
    cases = [
        (lambda: calc.weights_for(100, [101, 999]), "item 999 has no profile"),
        (lambda: calc.weights_for(998, [100]), "target item 998 has no profile"),
        (lambda: calc.weights_for("x", []), "target item 'x' has no profile"),
        (lambda: calc.weight(997, 100), "item 997 has no profile"),
        (lambda: calc.weight(100, 996), "item 996 has no profile"),
    ]
    for call, message in cases:
        with pytest.raises(KeyError) as raised:
            call()
        assert raised.value.args == (message,)


def test_weight_vector_row_names_a_missing_item():
    wv = WeightCalculator(_store(_catalog())).weights_for(100, [100, 101])
    assert wv.row([101, 100, 101]).tolist() == [wv[101], wv[100], wv[101]]
    with pytest.raises(KeyError) as raised:
        wv.row([100, 5])
    assert raised.value.args == ("no weight for item 5 relative to target 100",)
