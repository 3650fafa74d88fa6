"""Synthetic recognizer determinism, validity, noise behaviour and the
batched emitter's bit identity with the one-row-at-a-time reference."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordbeam import (
    Alphabet,
    InputValidationError,
    PrefixTree,
    RecognizerSim,
    best_path_decode,
    decode,
    decode_label,
    make_ensemble,
)
from wordbeam import synth
from _support import reference_emit, reference_row

def test_noiseless_emission_recovers_label():
    a = Alphabet("abdefgiln")
    sim = RecognizerSim(alphabet=a, noise_level=0.0)
    label, _ = best_path_decode(sim.emit("abba"), a)
    assert label == "abba"  # repeated letter survives via transition blanks


def test_noiseless_extra_separator_round_trip():
    a = Alphabet("acdotv", separator="|")
    sim = RecognizerSim(alphabet=a, noise_level=0.0)
    label, _ = best_path_decode(sim.emit("advocaat"), a)
    assert label == "advocaat|"
    assert decode_label(label, a) == "advocaat"


def test_emission_is_deterministic():
    a = Alphabet("abc")
    sim = RecognizerSim(alphabet=a, noise_level=0.4, seed=99)
    m1 = sim.emit("abc")
    m2 = sim.emit("abc")
    assert m1.probs.tobytes() == m2.probs.tobytes()


def test_emission_depends_on_seed():
    a = Alphabet("abc")
    m1 = RecognizerSim(alphabet=a, noise_level=0.4, seed=1).emit("abc")
    m2 = RecognizerSim(alphabet=a, noise_level=0.4, seed=2).emit("abc")
    assert m1.probs.tobytes() != m2.probs.tobytes()


def test_frame_layout():
    a = Alphabet("ab")
    sim = RecognizerSim(alphabet=a, frames_per_char=3, noise_level=0.0)
    m = sim.emit("ab")
    assert m.num_frames == 3 * 2 + 1  # one blank transition frame between chars


def test_rows_are_valid_distributions():
    a = Alphabet("abcde")
    for noise in (0.1, 0.5, 0.9):
        sim = RecognizerSim(alphabet=a, noise_level=noise, seed=5)
        m = sim.emit("beadcabbed")
        assert np.all(m.probs >= 0)
        assert np.allclose(m.probs.sum(axis=1), 1.0, atol=1e-12)


def test_out_of_alphabet_character_rejected():
    sim = RecognizerSim(alphabet=Alphabet("ab"))
    with pytest.raises(InputValidationError):
        sim.emit("abz")


def test_empty_label_rejected():
    sim = RecognizerSim(alphabet=Alphabet("ab"))
    with pytest.raises(InputValidationError):
        sim.emit("")


def test_parameter_validation():
    with pytest.raises(InputValidationError):
        RecognizerSim(alphabet=Alphabet("ab"), noise_level=1.5)
    with pytest.raises(InputValidationError):
        RecognizerSim(alphabet=Alphabet("ab"), frames_per_char=0)


@pytest.mark.parametrize("fpc", [2.5, 3.0, "3", None])
def test_non_integer_frames_per_char_rejected(fpc):
    with pytest.raises(InputValidationError, match="frames_per_char"):
        RecognizerSim(alphabet=Alphabet("ab"), frames_per_char=fpc)


def test_numpy_integer_frames_per_char_accepted():
    a = Alphabet("ab")
    sim = RecognizerSim(alphabet=a, frames_per_char=np.int64(2), noise_level=0.3, seed=1)
    assert sim.emit("ab").probs.tobytes() == reference_emit(sim, "ab").probs.tobytes()


def test_separator_region_is_reliable():
    # Separator frames carry scaled-down noise, and no other frame leaks
    # mass onto the separator column.
    a = Alphabet("abcde", separator="|")
    sim = RecognizerSim(alphabet=a, noise_level=0.5, seed=8, frames_per_char=3)
    m = sim.emit("abcde")
    sep_col = a.symbols.index("|")
    sep_frames = m.probs[-3:, sep_col]
    assert np.all(sep_frames > 0.5)
    assert np.all(m.probs[:-3, sep_col] == 0.0)


class TestMakeEnsemble:
    def test_singleton(self):
        base = RecognizerSim(alphabet=Alphabet("ab"), noise_level=0.3, seed=4)
        sims = make_ensemble(base, 1)
        assert len(sims) == 1

    def test_distinct_seeds_and_bounded_jitter(self):
        base = RecognizerSim(alphabet=Alphabet("ab"), noise_level=0.3, seed=4)
        sims = make_ensemble(base, 8, jitter=0.05)
        assert len({s.seed for s in sims}) == 8
        assert all(abs(s.noise_level - 0.3) <= 0.05 + 1e-12 for s in sims)

    def test_reproducible(self):
        base = RecognizerSim(alphabet=Alphabet("ab"), noise_level=0.3, seed=4)
        assert make_ensemble(base, 3) == make_ensemble(base, 3)

    def test_bad_count(self):
        base = RecognizerSim(alphabet=Alphabet("ab"))
        with pytest.raises(InputValidationError):
            make_ensemble(base, 0)

    @pytest.mark.parametrize("jitter", [-0.05, -1.0, float("nan"), float("inf")])
    def test_bad_jitter(self, jitter):
        # A negative jitter would draw from uniform(j, -j), acting as its
        # absolute value; a NaN or infinite one makes no noise level.
        base = RecognizerSim(alphabet=Alphabet("ab"), noise_level=0.3)
        with pytest.raises(InputValidationError, match="jitter"):
            make_ensemble(base, 2, jitter=jitter)

    def test_zero_jitter_keeps_the_noise_level(self):
        base = RecognizerSim(alphabet=Alphabet("ab"), noise_level=0.3)
        assert {s.noise_level for s in make_ensemble(base, 4, jitter=0.0)} == {0.3}

    @pytest.mark.parametrize("spread", [-1.0, float("nan"), float("inf")])
    def test_bad_confusion_spread(self, spread):
        with pytest.raises(InputValidationError, match="confusion_spread"):
            RecognizerSim(alphabet=Alphabet("ab"), confusion_spread=spread)


def _accuracy(decoder, sim, words, *decoder_args):
    hits = 0
    for w in words:
        label = decoder(sim.emit(w), *decoder_args)
        hits += label == w
    return hits / len(words)


def test_accuracy_non_increasing_in_noise():
    import random

    rng = random.Random(31)
    a = Alphabet("abcdefgh")
    words = ["".join(rng.choice(a.characters) for _ in range(4)) for _ in range(60)]
    inversions = 0
    for seed in range(5):
        accs = []
        for noise in (0.05, 0.3, 0.6):
            sim = RecognizerSim(alphabet=a, noise_level=noise, seed=seed)
            accs.append(
                _accuracy(lambda m: best_path_decode(m, a)[0], sim, words)
            )
        inversions += sum(hi > lo + 1e-9 for lo, hi in zip(accs, accs[1:]))
    assert inversions <= 1


def test_dictionary_decoding_beats_best_path_at_noise_04():
    import random

    rng = random.Random(17)
    a = Alphabet("abcdefgh")
    dictionary = sorted(
        {"".join(rng.choice(a.characters) for _ in range(rng.randint(3, 5))) for _ in range(120)}
    )
    tree = PrefixTree(dictionary, set(a.characters))
    words = [rng.choice(dictionary) for _ in range(150)]
    sim = RecognizerSim(alphabet=a, noise_level=0.4, seed=12, frames_per_char=3)
    bp = wbs = 0
    for w in words:
        m = sim.emit(w)
        bp += best_path_decode(m, a)[0] == w
        wbs += decode(m, a, tree, width=8)[0] == w
    assert wbs > bp


# With and without a separator, and one-symbol alphabets, where a confusion
# column takes the most tries (one column of four values is allowed).
_ALPHABETS = [
    Alphabet("abcdefghij", "|"),
    Alphabet("abcdefghij"),
    Alphabet("a"),
    Alphabet("a", "|"),
    Alphabet("xyz", "#"),
]


@st.composite
def _emit_jobs(draw):
    alphabet = draw(st.sampled_from(_ALPHABETS))
    sim = RecognizerSim(
        alphabet=alphabet,
        frames_per_char=draw(st.integers(1, 4)),
        noise_level=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        confusion_spread=draw(st.sampled_from([0.0, 1.5]) | st.floats(0.0, 20.0)),
        seed=draw(st.integers(0, 2**48)),
    )
    return sim, draw(st.text(alphabet.characters, min_size=1, max_size=8))


class TestBatchedEmission:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(_emit_jobs(), min_size=1, max_size=30))
    def test_bit_identical_to_the_reference(self, jobs):
        expected = [reference_emit(sim, word).probs.tobytes() for sim, word in jobs]
        assert [m.probs.tobytes() for m in synth.emit_many(jobs)] == expected
        sim, word = jobs[0]
        assert sim.emit(word).probs.tobytes() == expected[0]

    @staticmethod
    def _trend_jobs() -> list:
        """A batch as a trend lane makes: ten members, jittered noise, 100 jobs."""
        base = RecognizerSim(Alphabet("abcdefghij", "|"), frames_per_char=3,
                             noise_level=0.37, confusion_spread=1.5, seed=5)
        words = ["abc", "jihgf", "aaaa", "bead", "cafe", "jab", "hide", "fig", "dig", "ace"]
        return [(sim, word) for sim in make_ensemble(base, 10) for word in words]

    def test_trend_sized_batch(self):
        jobs = self._trend_jobs()
        got = [m.probs.tobytes() for m in synth.emit_many(jobs)]
        assert got == [reference_emit(sim, word).probs.tobytes() for sim, word in jobs]

    @pytest.mark.parametrize("bound", [None, 1, 7])
    def test_a_batch_is_emitted_in_parts_of_at_most_emit_jobs(self, monkeypatch, bound):
        if bound is not None:
            monkeypatch.setattr(synth, "EMIT_JOBS", bound)
        parts: list[int] = []
        emit_width = synth._emit_width

        def recorded(plans, c_max):
            parts.append(len(plans))
            return emit_width(plans, c_max)

        monkeypatch.setattr(synth, "_emit_width", recorded)
        # Every third job codes without the separator: two widths, one part list each.
        jobs = [(replace(sim, alphabet=Alphabet("abcdefghij")) if not i % 3 else sim, word)
                for i, (sim, word) in enumerate(self._trend_jobs())]
        got = [m.probs.tobytes() for m in synth.emit_many(jobs)]
        assert got == [reference_emit(sim, word).probs.tobytes() for sim, word in jobs]
        assert max(parts) == synth.EMIT_JOBS
        assert sum(parts) == len(jobs)

    def test_empty_batch(self):
        assert synth.emit_many([]) == []

    def test_a_bad_job_fails_the_batch(self):
        sim = RecognizerSim(alphabet=Alphabet("ab"), noise_level=0.3)
        with pytest.raises(InputValidationError, match="not in the recognizer alphabet"):
            synth.emit_many([(sim, "ab"), (sim, "abz")])

    def test_a_faulty_row_raises_the_error_of_its_own_matrix(self, monkeypatch):
        # No stream draws a faulty row, so one is forced: row 2 of the second
        # job, after the 9 rows of the first ("ab": 4 + 1 blank + 4 frames).
        noisy_rows = synth._noisy_rows

        def faulty(*args):
            rows = noisy_rows(*args)
            rows[9 + 2, 0] = np.nan
            return rows

        monkeypatch.setattr(synth, "_noisy_rows", faulty)
        sim = RecognizerSim(alphabet=Alphabet("ab"), noise_level=0.3)
        with pytest.raises(InputValidationError,
                           match="^posterior matrix contains non-finite entries$") as err:
            synth.emit_many([(sim, "ab"), (sim, "ba"), (sim, "a")])
        assert err.value.row == 2

    @pytest.mark.parametrize("separator", [None, "|"])
    def test_all_zero_weights_spread_the_leak_evenly(self, separator):
        # Every allowed weight drawing 0.0 is far too rare to meet in a
        # stream, so the rows are built from scripted draws.
        class Scripted:
            def expovariate(self, lambd):
                return 0.75

            def randrange(self, n):
                return 1

            def random(self):
                return 0.0

        alphabet = Alphabet("abc", separator)
        sim = RecognizerSim(alphabet=alphabet, noise_level=0.4, confusion_spread=1.5)
        c_max = alphabet.num_classes
        sep_col = None if separator is None else alphabet.symbols.index(separator)
        targets = [0, 2, c_max - 1] + ([] if sep_col is None else [sep_col])
        expected = [reference_row(Scripted(), sim, c_max, t, 0.4, sep_col) for t in targets]
        got = synth._noisy_rows(
            np.full(len(targets), 0.75), np.ones(len(targets), dtype=int),
            np.zeros((len(targets), c_max)), np.array(targets),
            np.full(len(targets), -1 if sep_col is None else sep_col),
            np.full(len(targets), 0.4), np.full(len(targets), 1.5 / 2.5),
        )
        assert got.tobytes() == np.array(expected).tobytes()
