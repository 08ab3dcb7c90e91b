"""Property-based tests: statement splitting and crack kernel invariants.

Uses `hypothesis` when available; otherwise the same property checkers
run over seeded-random cases, so the suite needs no extra dependency.

Properties:

* :func:`repro.sql.split_statements` — round-trips any script assembled
  from statement bodies (including quoted literals with semicolons and
  SQL-style doubled quotes), drops empty fragments, survives trailing
  semicolons;
* crack kernels — every variant (vectorised / swap-loop for
  crack-in-two; one-pass / via-two for crack-in-three) is a
  permutation of the (value, oid) pairs that establishes the partition
  invariant, with the split positions equal to the predicate counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.crack import (
    KIND_LE,
    KIND_LT,
    crack_in_three,
    crack_in_three_via_two,
    crack_in_two,
    crack_in_two_swaps,
)
from repro.sql import split_statements

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on minimal installs
    HAVE_HYPOTHESIS = False

TWO_KERNELS = [crack_in_two, crack_in_two_swaps]
THREE_KERNELS = [crack_in_three, crack_in_three_via_two]
KINDS = [KIND_LT, KIND_LE]

FALLBACK_CASES = 60


# ---------------------------------------------------------------------- #
# Property checkers (shared between hypothesis and the seeded fallback)
# ---------------------------------------------------------------------- #


def check_split_roundtrip(bodies: list[str], empties: list[int], trailing: bool):
    """Scripts assembled from ``bodies`` split back into exactly them."""
    fragments = list(bodies)
    for position in sorted(empties, reverse=True):
        fragments.insert(position % (len(fragments) + 1), "   ")
    script = ";".join(fragments) + (";" if trailing else "")
    assert split_statements(script) == [body.strip() for body in bodies]


def make_body(plains: list[str], literals: list[str]) -> str:
    """A statement body interleaving plain SQL text and quoted literals.

    Literal contents may hold semicolons and quotes; quotes are escaped
    SQL-style by doubling.
    """
    parts = []
    for index, plain in enumerate(plains):
        parts.append(plain)
        if index < len(literals):
            parts.append("'" + literals[index].replace("'", "''") + "'")
    return "".join(parts)


def check_crack_in_two(values, pivot, kind):
    values = np.asarray(values, dtype=np.int64)
    n = len(values)
    for kernel in TWO_KERNELS:
        work = values.copy()
        oids = np.arange(n, dtype=np.int64)
        split = kernel(work, oids, 0, n, pivot, kind=kind)
        predicate = values < pivot if kind == KIND_LT else values <= pivot
        assert split == int(predicate.sum()), kernel.__name__
        # Partition invariant.
        if kind == KIND_LT:
            assert (work[:split] < pivot).all(), kernel.__name__
            assert (work[split:] >= pivot).all(), kernel.__name__
        else:
            assert (work[:split] <= pivot).all(), kernel.__name__
            assert (work[split:] > pivot).all(), kernel.__name__
        # Permutation invariant: the (value, oid) pairing is preserved.
        assert np.array_equal(values[oids], work), kernel.__name__
        assert np.array_equal(np.sort(oids), np.arange(n)), kernel.__name__


def check_crack_in_three(values, low, high, low_kind, high_kind):
    values = np.asarray(values, dtype=np.int64)
    n = len(values)
    for kernel in THREE_KERNELS:
        work = values.copy()
        oids = np.arange(n, dtype=np.int64)
        split_low, split_high = kernel(
            work, oids, 0, n, low, high, low_kind=low_kind, high_kind=high_kind
        )
        left = values < low if low_kind == KIND_LT else values <= low
        below_high = values < high if high_kind == KIND_LT else values <= high
        assert split_low == int(left.sum()), kernel.__name__
        # With low == high and kinds (le, lt) the boundary pair is
        # inverted (the range "x < a <= x" is empty by construction —
        # CrackedColumn answers it without cracking); the kernels then
        # clamp the high split to the low one instead of crossing it.
        assert split_high == max(split_low, int(below_high.sum())), kernel.__name__
        assert 0 <= split_low <= split_high <= n, kernel.__name__
        zone1, zone2, zone3 = (
            work[:split_low],
            work[split_low:split_high],
            work[split_high:],
        )
        if low_kind == KIND_LT:
            assert (zone1 < low).all() and (zone2 >= low).all(), kernel.__name__
        else:
            assert (zone1 <= low).all() and (zone2 > low).all(), kernel.__name__
        if high_kind == KIND_LT:
            assert (zone2 < high).all() and (zone3 >= high).all(), kernel.__name__
        else:
            assert (zone2 <= high).all() and (zone3 > high).all(), kernel.__name__
        assert np.array_equal(values[oids], work), kernel.__name__
        assert np.array_equal(np.sort(oids), np.arange(n)), kernel.__name__


# ---------------------------------------------------------------------- #
# Drivers
# ---------------------------------------------------------------------- #

if HAVE_HYPOTHESIS:
    plain_text = st.text(
        alphabet=st.characters(blacklist_characters=";'", codec="ascii"),
        max_size=12,
    )
    nonempty_plain = plain_text.filter(lambda s: s.strip())
    literal_text = st.text(
        alphabet=st.sampled_from(list("ab;' \n")), max_size=8
    )
    body = st.builds(
        make_body,
        st.lists(nonempty_plain, min_size=1, max_size=3),
        st.lists(literal_text, max_size=2),
    )

    @settings(max_examples=80, deadline=None)
    @given(
        bodies=st.lists(body, max_size=5),
        empties=st.lists(st.integers(0, 10), max_size=3),
        trailing=st.booleans(),
    )
    def test_split_statements_roundtrip(bodies, empties, trailing):
        check_split_roundtrip(bodies, empties, trailing)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.integers(-50, 50), max_size=60),
        pivot=st.integers(-60, 60),
        kind=st.sampled_from(KINDS),
    )
    def test_crack_in_two_properties(values, pivot, kind):
        check_crack_in_two(values, pivot, kind)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.integers(-50, 50), max_size=60),
        low=st.integers(-60, 60),
        width=st.integers(0, 40),
        low_kind=st.sampled_from(KINDS),
        high_kind=st.sampled_from(KINDS),
    )
    def test_crack_in_three_properties(values, low, width, low_kind, high_kind):
        check_crack_in_three(values, low, low + width, low_kind, high_kind)

else:  # seeded-random fallback: same checkers, deterministic cases

    def _fallback_rng(case: int) -> np.random.Generator:
        return np.random.default_rng(10_000 + case)

    @pytest.mark.parametrize("case", range(FALLBACK_CASES))
    def test_split_statements_roundtrip(case):
        rng = _fallback_rng(case)
        plain_alphabet = list("SELECT abc*, =<>()0123 \n")
        literal_alphabet = list("ab;' \n")

        def text(alphabet, max_size):
            size = int(rng.integers(0, max_size + 1))
            return "".join(rng.choice(alphabet) for _ in range(size))

        bodies = []
        for _ in range(int(rng.integers(0, 5))):
            plains = [
                text(plain_alphabet, 12).replace(";", "").replace("'", "") or "x"
                for _ in range(int(rng.integers(1, 4)))
            ]
            literals = [
                text(literal_alphabet, 8) for _ in range(int(rng.integers(0, 3)))
            ]
            bodies.append(make_body(plains, literals))
        empties = [int(rng.integers(0, 11)) for _ in range(int(rng.integers(0, 3)))]
        check_split_roundtrip(bodies, empties, trailing=bool(rng.integers(0, 2)))

    @pytest.mark.parametrize("case", range(FALLBACK_CASES))
    def test_crack_in_two_properties(case):
        rng = _fallback_rng(case)
        values = rng.integers(-50, 51, int(rng.integers(0, 61)))
        check_crack_in_two(
            values, int(rng.integers(-60, 61)), KINDS[case % 2]
        )

    @pytest.mark.parametrize("case", range(FALLBACK_CASES))
    def test_crack_in_three_properties(case):
        rng = _fallback_rng(case)
        values = rng.integers(-50, 51, int(rng.integers(0, 61)))
        low = int(rng.integers(-60, 61))
        check_crack_in_three(
            values,
            low,
            low + int(rng.integers(0, 41)),
            KINDS[case % 2],
            KINDS[(case // 2) % 2],
        )


# ---------------------------------------------------------------------- #
# Deterministic edge cases (always run, independent of the driver)
# ---------------------------------------------------------------------- #


class TestSplitStatementsEdges:
    def test_doubled_quote_escape_keeps_semicolon(self):
        script = "INSERT INTO r VALUES ('it''s; fine'); SELECT 1"
        assert split_statements(script) == [
            "INSERT INTO r VALUES ('it''s; fine')",
            "SELECT 1",
        ]

    def test_empty_and_whitespace_fragments_dropped(self):
        assert split_statements(";;  ; SELECT 1 ; ;") == ["SELECT 1"]

    def test_trailing_semicolon(self):
        assert split_statements("SELECT 1;") == ["SELECT 1"]

    def test_semicolon_inside_literal(self):
        assert split_statements("SELECT 'a;b'") == ["SELECT 'a;b'"]

    def test_empty_script(self):
        assert split_statements("") == []
        assert split_statements("   \n ;") == []


class TestKernelEdges:
    @pytest.mark.parametrize("kernel", TWO_KERNELS)
    def test_empty_region(self, kernel):
        values = np.array([], dtype=np.int64)
        oids = np.array([], dtype=np.int64)
        assert kernel(values, oids, 0, 0, 5, kind=KIND_LT) == 0

    @pytest.mark.parametrize("kernel", TWO_KERNELS)
    def test_all_duplicates(self, kernel):
        for pivot, expected in [(7, 0), (8, 6)]:
            values = np.full(6, 7, dtype=np.int64)
            oids = np.arange(6, dtype=np.int64)
            assert kernel(values, oids, 0, 6, pivot, kind=KIND_LT) == expected

    @pytest.mark.parametrize("kernel", THREE_KERNELS)
    def test_point_range(self, kernel):
        values = np.array([5, 1, 5, 9, 5, 0], dtype=np.int64)
        oids = np.arange(6, dtype=np.int64)
        split_low, split_high = kernel(
            values, oids, 0, 6, 5, 5, low_kind=KIND_LT, high_kind=KIND_LE
        )
        assert (values[split_low:split_high] == 5).all()
        assert split_high - split_low == 3
