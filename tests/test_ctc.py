"""Alphabet/matrix validation, best path and the path-sum oracle."""

import pickle
import string

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordbeam import Alphabet, InputValidationError, PosteriorMatrix, best_path_decode
from wordbeam.ctc import best_path_batch, posterior_matrices

from _support import (
    CapacityError,
    itertools_distribution,
    labeling_distribution,
    labeling_probability,
    naive_best_path,
    random_matrix,
    reference_best_path,
)

AB = Alphabet("ab")  # columns: a=0, b=1, blank=2


class TestAlphabet:
    @pytest.mark.parametrize("characters", [
        "xyz",
        "zyx",
        string.ascii_letters,  # 52 characters
        string.digits + string.ascii_letters + "".join(chr(0xC0 + i) for i in range(18)),  # 80
    ], ids=["xyz", "zyx", "52", "80"])
    def test_layout(self, characters):
        # Base characters in order, then the separator, then the blank.
        n = len(characters)
        a = Alphabet(characters, separator="|")
        assert a.characters == characters
        assert a.symbols == characters + "|"
        assert a.num_classes == n + 2
        assert a.symbols.index("|") == n
        assert a.blank_index == n + 1
        assert Alphabet(characters).num_classes == n + 1

    def test_derived_values_leave_equality_hash_repr_and_pickle_as_they_were(self):
        # ``symbols``, ``num_classes``, ``blank_index`` and the mapping
        # ``column_map()`` returns are kept once read; an alphabet still
        # compares, hashes, prints and pickles by its two fields alone, to the
        # bytes it pickled to before they were kept.
        read, fresh = Alphabet("ab", "|"), Alphabet("ab", "|")
        assert (read.symbols, read.num_classes, read.blank_index) == ("ab|", 4, 3)
        assert read.column_map() == {"a": 0, "b": 1, "|": 2}
        assert read.column_map() is read.column_map()  # one mapping per alphabet
        with pytest.raises(TypeError):
            read.column_map()["c"] = 3  # read-only
        assert read == fresh and hash(read) == hash(fresh) == hash(("ab", "|"))
        assert repr(read) == "Alphabet(characters='ab', separator='|')"
        assert pickle.dumps(read, protocol=4) == pickle.dumps(fresh, protocol=4) == (
            b"\x80\x04\x95G\x00\x00\x00\x00\x00\x00\x00\x8c\x0cwordbeam.ctc\x94\x8c\x08"
            b"Alphabet\x94\x93\x94)\x81\x94}\x94(\x8c\ncharacters\x94\x8c\x02ab\x94\x8c\t"
            b"separator\x94\x8c\x01|\x94ub.")
        copy = pickle.loads(pickle.dumps(read))
        assert copy == read and (copy.symbols, copy.blank_index) == ("ab|", 3)
        assert copy.column_map() == read.column_map()
        assert Alphabet("xy") != Alphabet("xy", "|")

    def test_duplicate_characters_rejected(self):
        with pytest.raises(InputValidationError):
            Alphabet("aba")

    def test_separator_collision_rejected(self):
        with pytest.raises(InputValidationError):
            Alphabet("ab|", separator="|")

    def test_separator_of_two_characters_rejected(self):
        with pytest.raises(InputValidationError, match="separator must be a single character"):
            Alphabet("ab", separator="||")


class TestPosteriorMatrix:
    def test_row_sum_enforced(self):
        with pytest.raises(InputValidationError, match="not renormalized"):
            PosteriorMatrix([[0.5, 0.4]])

    def test_tolerance_is_tight(self):
        PosteriorMatrix([[0.5, 0.5 + 5e-7]])
        with pytest.raises(InputValidationError):
            PosteriorMatrix([[0.5, 0.5 + 5e-6]])

    def test_negative_rejected(self):
        with pytest.raises(InputValidationError):
            PosteriorMatrix([[1.2, -0.2]])

    def test_non_finite_rejected(self):
        with pytest.raises(InputValidationError):
            PosteriorMatrix([[np.inf, 0.0]])

    def test_shape_bounds(self):
        with pytest.raises(InputValidationError):
            PosteriorMatrix(np.ones((0, 2)))
        with pytest.raises(InputValidationError):
            PosteriorMatrix(np.ones((2, 1)))

    def test_read_only(self):
        m = PosteriorMatrix([[0.5, 0.5]])
        with pytest.raises(ValueError):
            m.probs[0, 0] = 0.0


def _made(make):
    """Each block's bits, or the error that making them raised (its message and row)."""
    try:
        return [m.probs.tobytes() for m in make()]
    except InputValidationError as exc:
        return (str(exc), getattr(exc, "row", None))


_VALUES = [0.0, -0.0, 0.25, 0.5, 1.0, 5e-324, -0.5, 1.5, np.inf, -np.inf, np.nan, 0.5 + 5e-7,
           0.5 + 5e-6]


class TestPosteriorMatrices:
    """``posterior_matrices`` checks a stack of blocks once and makes what
    ``PosteriorMatrix`` makes of each block, errors included."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(c=st.integers(1, 4), frames=st.lists(st.integers(0, 3), max_size=4), data=st.data())
    def test_matches_one_matrix_per_block(self, c, frames, data):
        rows = []
        for _ in range(sum(frames)):
            row = data.draw(st.lists(st.sampled_from(_VALUES), min_size=c, max_size=c))
            if data.draw(st.booleans()):  # mostly valid rows
                row = [1.0 / c] * c
            rows.append(row)
        stack = np.array(rows, dtype=np.float64).reshape(sum(frames), c)
        ends = np.cumsum(frames)
        want = _made(lambda: [PosteriorMatrix(stack[e - t:e]) for e, t in zip(ends, frames)])
        assert _made(lambda: posterior_matrices(stack.copy(), frames)) == want

    def test_blocks_are_read_only_views_of_the_stack(self):
        stack = np.full((5, 4), 0.25)
        a, b = posterior_matrices(stack, [2, 3])
        assert a.probs.base is stack and b.probs.base is stack
        assert (a.num_frames, b.num_frames, b.num_classes) == (2, 3, 4)
        with pytest.raises(ValueError):
            b.probs[0, 0] = 0.0

    def test_first_faulty_block_raises_its_own_error(self):
        stack = np.full((4, 2), 0.5)
        stack[2] = [0.9, 0.9]  # the second block's second row
        stack[3] = [np.nan, 1.0]
        with pytest.raises(InputValidationError, match="row 1 sums to 1.8") as err:
            posterior_matrices(stack, [1, 2, 1])
        assert err.value.row == 1

    def test_a_sum_that_overflows_is_the_block_check(self):
        stack = np.array([[0.5, 0.5], [1e308, 1e308]])
        with pytest.warns(RuntimeWarning, match="overflow"):  # PosteriorMatrix's own sum
            with pytest.raises(InputValidationError, match="sums to inf"):
                posterior_matrices(stack, [1, 1])

    def test_no_blocks(self):
        assert posterior_matrices(np.zeros((0, 3)), []) == []


class TestCollapse:
    """Best path's labeling rule: adjacent repeats merge, then blanks go."""

    @staticmethod
    def _labeling(path: list[int]) -> str:
        # Each frame puts 0.9 on its path column, so the path is the argmax.
        rows = np.full((len(path), AB.num_classes), 0.1 / (AB.num_classes - 1))
        rows[np.arange(len(path)), path] = 0.9
        m = PosteriorMatrix(rows)
        found = best_path_decode(m, AB)
        assert found == naive_best_path(m, AB)
        return found[0]

    def test_merge_then_blank_removal(self):
        assert self._labeling([0, 0, 2, 1]) == "ab"

    def test_all_blank(self):
        assert self._labeling([2, 2]) == ""

    def test_blank_separates_repeat(self):
        assert self._labeling([0, 2, 0]) == "aa"

    def test_reexpansion_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            path = rng.integers(0, 3, size=rng.integers(1, 12)).tolist()
            labeling = self._labeling(path)
            # the canonical expansion (blank between equal neighbors, so the
            # labeling stays reachable) collapses back to itself
            expanded: list[int] = []
            for ch in labeling:
                idx = AB.symbols.index(ch)
                if expanded and expanded[-1] == idx:
                    expanded.append(AB.blank_index)
                expanded.append(idx)
            if expanded:
                assert self._labeling(expanded) == labeling
            # without blanks the round trip holds whenever no repeat exists
            if labeling and all(x != y for x, y in zip(labeling, labeling[1:])):
                assert self._labeling([AB.symbols.index(ch) for ch in labeling]) == labeling


class TestBestPath:
    def test_single_frame(self):
        a = Alphabet("a")
        m = PosteriorMatrix([[0.9, 0.1]])
        assert best_path_decode(m, a) == ("a", 0.9)

    def test_two_frames(self):
        a = Alphabet("a")
        m = PosteriorMatrix([[0.6, 0.4], [0.3, 0.7]])
        label, likelihood = best_path_decode(m, a)
        assert label == "a"
        assert likelihood == pytest.approx(0.42)

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(42)
        a = Alphabet("abc")
        for _ in range(25):
            m = random_matrix(rng, 5, 4)
            assert best_path_decode(m, a) == naive_best_path(m, a)

    def test_shape_mismatch(self):
        m = PosteriorMatrix([[0.5, 0.5]])
        with pytest.raises(InputValidationError):
            best_path_decode(m, Alphabet("ab"))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(c=st.integers(2, 5), data=st.data())
    def test_matches_row_loop_bit_for_bit(self, c, data):
        # Quantised rows tie often: the first maximal column must win, and
        # the likelihood must be the same running product, bit for bit.
        weights = data.draw(st.lists(
            st.lists(st.integers(0, 3), min_size=c, max_size=c).filter(any),
            min_size=1, max_size=40))
        m = PosteriorMatrix([[w / sum(row) for w in row] for row in weights])
        alphabet = Alphabet("abcd"[: c - 1])
        label, likelihood = best_path_decode(m, alphabet)
        ref_label, ref_likelihood = reference_best_path(m, alphabet)
        assert label == ref_label
        assert likelihood.hex() == ref_likelihood.hex()


class TestBestPathBatch:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(symbols=st.lists(st.sampled_from("ab|é\U0001d11e"), min_size=1, max_size=5,
                            unique=True),
           data=st.data())
    def test_equals_each_matrix_decoded_alone(self, symbols, data):
        # Against each matrix decoded alone, row by row. Quantised rows tie
        # often and repeat columns across the boundary of two matrices, which
        # must not merge their labelings.
        alphabet = Alphabet("".join(symbols))
        c = alphabet.num_classes
        rows = st.lists(st.integers(0, 2), min_size=c, max_size=c).filter(any)
        matrices = [PosteriorMatrix([[w / sum(row) for w in row] for row in weights])
                    for weights in data.draw(st.lists(st.lists(rows, min_size=1, max_size=12),
                                                      min_size=1, max_size=6))]
        got = best_path_batch(matrices, alphabet)
        want = [reference_best_path(m, alphabet) for m in matrices]
        assert [(label, p.hex()) for label, p in got] == [(label, p.hex()) for label, p in want]

    def test_empty_and_mismatched(self):
        assert best_path_batch([], AB) == []
        good, bad = PosteriorMatrix([[0.5, 0.2, 0.3]]), PosteriorMatrix([[0.5, 0.5]])
        with pytest.raises(InputValidationError):
            best_path_batch([good, bad], AB)


class TestLabelingProbability:
    def test_longer_than_frames_is_zero(self):
        m = PosteriorMatrix([[0.5, 0.5]])
        assert labeling_probability(m, "aa", Alphabet("a")) == 0.0

    def test_single_frame_empty_labeling(self):
        m = PosteriorMatrix([[0.9, 0.1]])
        assert labeling_probability(m, "", Alphabet("a")) == pytest.approx(0.1)

    def test_matches_itertools_enumeration(self):
        rng = np.random.default_rng(7)
        m = random_matrix(rng, 3, 3)
        expected = itertools_distribution(m, AB)
        got = labeling_distribution(m, AB)
        assert set(got) == set(expected)
        for labeling, prob in expected.items():
            assert got[labeling] == pytest.approx(prob, abs=1e-15)
            assert labeling_probability(m, labeling, AB) == pytest.approx(prob, abs=1e-15)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = int(rng.integers(1, 7))
            c = int(rng.integers(2, 5))
            m = random_matrix(rng, t, c)
            dist = labeling_distribution(m, Alphabet("abcdef"[: c - 1]))
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_cap_enforced(self):
        m = PosteriorMatrix(np.full((30, 3), 1 / 3))
        with pytest.raises(CapacityError):
            labeling_distribution(m, AB)

    def test_bad_labeling_character(self):
        m = PosteriorMatrix([[0.5, 0.5]])
        with pytest.raises(InputValidationError):
            labeling_probability(m, "z", Alphabet("a"))
