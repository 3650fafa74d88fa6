"""File formats and end-to-end command behaviour."""

import gc
import itertools
import json
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordbeam import (
    Alphabet,
    DataFormatError,
    InputValidationError,
    NGRAMS,
    NGRAMS_FORECAST,
    NgramModel,
    PosteriorMatrix,
    RecognizerSim,
    WORDS,
    WordbeamError,
    forecast_sample,
)
from wordbeam import cli, files, synth, trends
from wordbeam.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from wordbeam.files import (
    escape_alphabet,
    load_word_list,
    parse_matrices,
    parse_matrix,
    read_matrix_file,
    serialize_matrix,
    unescape_alphabet,
    write_matrix_file,
)

from _support import (
    FIRST_FAULTS,
    random_matrix,
    reference_load_word_list,
    reference_parse_matrix,
    words_50k,
)


class TestMatrixFile:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        m = random_matrix(rng, 7, 5)
        symbols, parsed = parse_matrix(serialize_matrix(m, "ab|c"))
        assert symbols == "ab|c"
        assert np.array_equal(parsed.probs, m.probs)

    def test_alphabet_escapes(self):
        tricky = "a b\tc\\d"
        assert unescape_alphabet(escape_alphabet(tricky)) == tricky
        m = PosteriorMatrix(np.full((2, 8), 1 / 8))
        symbols, _ = parse_matrix(serialize_matrix(m, tricky))
        assert symbols == tricky

    def test_header_mismatch_reports_line(self):
        with pytest.raises(DataFormatError) as err:
            parse_matrix("2 3\nabc\n" + "0.5 0.25 0.25\n" * 2, path="x.mat")
        assert err.value.line == 2  # alphabet implies C=4, header says 3

    def test_malformed_float_reports_line(self):
        text = "2 3\nab\n0.5 0.25 0.25\n0.5 oops 0.25\n"
        with pytest.raises(DataFormatError) as err:
            parse_matrix(text, path="x.mat")
        assert err.value.line == 4

    def test_wrong_row_count(self):
        with pytest.raises(DataFormatError):
            parse_matrix("3 3\nab\n0.5 0.25 0.25\n")

    def test_symbols_must_match_the_columns(self):
        with pytest.raises(InputValidationError,
                           match="alphabet of 3 symbols does not match 3 columns"):
            serialize_matrix(PosteriorMatrix(np.full((2, 3), 1 / 3)), "abc")

    def test_row_sum_failure_becomes_data_error(self):
        with pytest.raises(DataFormatError):
            parse_matrix("1 3\nab\n0.9 0.9 0.9\n")

    def test_file_io(self, tmp_path):
        rng = np.random.default_rng(4)
        m = random_matrix(rng, 3, 4)
        path = tmp_path / "m.mat"
        write_matrix_file(path, m, "abc")
        [(symbols, parsed)], fault = read_matrix_file([path])
        assert fault is None
        assert symbols == "abc"
        assert np.array_equal(parsed.probs, m.probs)


def _outcome(parse, text):
    """What a parser makes of ``text``: its symbols and the bits of its
    values, or its error's message, path and line."""
    try:
        symbols, m = parse(text, path="m.mat")
    except DataFormatError as exc:
        return ("error", str(exc), exc.path, exc.line)
    return ("ok", symbols, m.probs.shape, m.probs.view(np.int64).tolist())


_FORMATS = [repr, lambda v: format(v, ".17g"), lambda v: format(v, ".25f"),
            lambda v: "+" + repr(v), lambda v: format(v, ".17e").upper()]


@st.composite
def _matrix_texts(draw):
    """Serialized matrices whose rows sum to 1, with quantised rows (so
    ties occur) and several spellings of each value."""
    t, c = draw(st.integers(1, 6)), draw(st.integers(2, 5))
    rows = []
    for _ in range(t):
        weights = draw(st.lists(st.integers(0, 3), min_size=c, max_size=c)
                       .filter(lambda w: sum(w) > 0))
        rows.append([w / sum(weights) for w in weights])
    fmt = draw(st.sampled_from(_FORMATS))
    body = [" ".join(fmt(v) for v in row) for row in rows]
    return "\n".join([f"{t} {c}", "abcd"[: c - 1], *body]) + "\n"


def _corrupt(text, fault, row):
    """Apply one fault to value row ``row`` (0-based) of a matrix text."""
    lines = text.split("\n")
    if len(lines) < 4:  # no value row
        return text
    i = 2 + row % (len(lines) - 3)
    fields = lines[i].split(" ")
    if fault == "drop field":
        lines[i] = " ".join(fields[:-1])
    elif fault == "extra field":
        lines[i] += " 0"
    elif fault == "bad float":
        lines[i] = " ".join(["0.x"] + fields[1:])
    elif fault == "tab":
        lines[i] = lines[i].replace(" ", "\t", 1)
    elif fault == "trailing space":
        lines[i] += " "
    elif fault == "blank row":
        lines[i] = ""
    elif fault in ("nan", "inf", "-0.5", "1e400"):
        lines[i] = " ".join([fault] + fields[1:])
    elif fault == "crlf":
        return "\r\n".join(lines)
    elif fault == "leading space":
        lines[i] = " " + lines[i]
    elif fault == "double space":
        lines[i] = lines[i].replace(" ", "  ", 1)
    elif fault == "ragged":  # the row's last field moves to the next row: equal totals
        if i + 1 < len(lines) - 1:
            lines[i] = " ".join(fields[:-1])
            lines[i + 1] = fields[-1] + " " + lines[i + 1]
    elif fault == "no rows":  # a T=0 header
        return f"0 {lines[0].split()[1]}\n{lines[1]}\n"
    # The rest keep the row valid in float() syntax, which loadtxt may not read.
    elif fault == "underscore":
        sign = fields[0][:1] if fields[0][:1] in "+-" else ""
        lines[i] = " ".join([sign + "0_0" + fields[0][len(sign):]] + fields[1:])
    elif fault == "arabic zero":
        lines[i] = " ".join([fields[0].replace("0", "\u0660")] + fields[1:])
    elif fault == "vertical tab":
        lines[i] = " ".join([fields[0] + "\x0b"] + fields[1:])
    elif fault in ("-0.0", "5e-324"):  # a zero field becomes -0.0 or a subnormal
        zeros = [k for k, f in enumerate(fields) if f.strip("+-0.eE") == ""]
        if zeros:
            fields[zeros[0]] = fault
            lines[i] = " ".join(fields)
    return "\n".join(lines)


_FAULTS = ["drop field", "extra field", "bad float", "tab", "trailing space", "blank row",
           "nan", "inf", "-0.5", "1e400", "crlf"]
# Faults for groups of files: the above, whitespace, row layout, a T=0
# header, and valid fields that only float() reads or that read as -0.0
# or a subnormal.
_GROUP_FAULTS = _FAULTS + ["leading space", "double space", "ragged", "no rows", "underscore",
                           "arabic zero", "vertical tab", "-0.0", "5e-324"]


class TestBulkParse:
    """``parse_matrix`` parses the body row by row and checks the rows as
    one matrix; the reference parser is the specification."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=_matrix_texts())
    def test_valid_texts_give_the_same_bits(self, text):
        got = _outcome(parse_matrix, text)
        assert got[0] == "ok"
        assert got == _outcome(reference_parse_matrix, text)

    def test_random_matrices_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for t, c in ((1, 2), (30, 11), (200, 27)):
            text = serialize_matrix(random_matrix(rng, t, c), "abcdefghijklmnopqrstuvwxyz"[: c - 1])
            assert _outcome(parse_matrix, text) == _outcome(reference_parse_matrix, text)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(text=_matrix_texts(),
           faults=st.lists(st.tuples(st.sampled_from(_FAULTS), st.integers(0, 5)),
                           min_size=1, max_size=3))
    def test_faulty_texts_raise_the_reference_error(self, text, faults):
        for fault, row in faults:
            text = _corrupt(text, fault, row)
        got = _outcome(parse_matrix, text)
        assert got[0] == "error"
        assert got == _outcome(reference_parse_matrix, text)

    @pytest.mark.parametrize("text, message", FIRST_FAULTS)
    def test_first_fault_names_its_line(self, text, message):
        with pytest.raises(DataFormatError) as err:
            parse_matrix(text, path="m.mat")
        assert str(err.value) == message
        assert _outcome(parse_matrix, text) == _outcome(reference_parse_matrix, text)

    @pytest.mark.parametrize("row, values", [
        ("1_0e-1 0", [1.0, 0.0]), ("٠.5 0.5", [0.5, 0.5]), ("0.5\x0b .5", [0.5, 0.5]),
        ("+.5 0.5\r", [0.5, 0.5]), ("5e-1 5E-1", [0.5, 0.5]),
    ])
    def test_fields_take_python_float_syntax(self, row, values):
        # A field is whatever float() accepts, surrounding whitespace included.
        _, m = parse_matrix(f"1 2\na\n{row}\n")
        assert m.probs.tolist() == [values]


def _group_outcome(read, texts):
    """What a reader's ``(found, fault)`` of a group of matrix texts is:
    each file's symbols, shape and bits, in order, up to the first fault,
    and that fault's type, message and line."""
    found, fault = read(texts)
    files = [(symbols, m.probs.shape, m.probs.tobytes()) for symbols, m in found]
    if fault is None:
        return ("ok", files)
    return ("error", files, type(fault), str(fault), getattr(fault, "line", None))


def _one_by_one(parse, items):
    """``(found, fault)``: ``parse(item)`` of each of ``items`` up to the
    first that raises, and its error, or None."""
    found = []
    for item in items:
        try:
            found.append(parse(item))
        except WordbeamError as exc:
            return found, exc
    return found, None


def _names(texts):
    return [f"m{i}.mat" for i in range(len(texts))]


def _per_file(texts):
    return _one_by_one(lambda item: parse_matrix(*item), zip(texts, _names(texts)))


def _grouped(texts):
    return parse_matrices(texts, _names(texts))


@st.composite
def _faulty_groups(draw):
    """Groups of 1-4 matrix texts of mixed C, each with up to two faults."""
    texts = []
    for _ in range(draw(st.integers(1, 4))):
        text = draw(_matrix_texts())
        for fault, row in draw(st.lists(st.tuples(st.sampled_from(_GROUP_FAULTS),
                                                  st.integers(0, 5)), max_size=2)):
            text = _corrupt(text, fault, row)
        texts.append(text)
    return texts


_A = "2 2\na\n0.5 0.5\n0.25 0.75\n"  # a valid file, C=2
_B = "1 3\nab\n0.5 0.25 0.25\n"  # a valid file, C=3


class TestGroupedParse:
    """``parse_matrices`` converts a group of files at once; ``parse_matrix``
    file by file is the specification, values and first fault alike."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(texts=st.lists(_matrix_texts(), min_size=1, max_size=4))
    def test_valid_groups_convert_as_one_group(self, texts):
        assert files._parse_group(texts) is not None  # not the file-by-file fallback
        assert _group_outcome(_grouped, texts) == _group_outcome(_per_file, texts)

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(texts=_faulty_groups())
    def test_faulty_groups_match_file_by_file(self, texts):
        assert _group_outcome(_grouped, texts) == _group_outcome(_per_file, texts)

    @pytest.mark.parametrize("texts, outcome", [
        ([_A, "2 2\na\n0.5 0.5\n\n"], "error"),  # loadtxt skips a blank row
        ([_A, "2 2\na\n0.5 0.5 0.0\n1.0\n"], "error"),  # ragged rows, equal totals
        ([_A, "1 2\na\n 0.5 0.5\n"], "error"),
        ([_A, "1 2\na\n0.5  0.5\n"], "error"),
        ([_A, "1 2\na\n0.5 0.5 \n"], "error"),
        ([_A, "1 2\na\n0.5\t0.5\n"], "error"),
        ([_A, "1 2\na\n0.5\t 0.5\n"], "ok"),  # float() strips the tab
        ([_A, "1 2\na\n1_0e-1 0\n"], "ok"),  # float() syntax that loadtxt rejects
        ([_A, "1 2\na\n\u0660.5 0.5\n", _B], "ok"),
        ([_B, "1 2\na\n0.5\x0b 0.5\n"], "ok"),
        (["1 2\r\na\r\n0.5 0.5\r\n"], "error"),  # CRLF: the alphabet is "a\r"
        (["1 3\r\na\r\n0.5 0.5 0.0\r\n", _A], "ok"),  # ... which C=3 allows
        ([_A, "2 2\na\n-0.0 1\n5e-324 1\n"], "ok"),
        ([_A, "1 2\na\ninf 0\n"], "error"),
        ([_A, "1 2\na\nnan 0.5\n"], "error"),
        (["0 2\na\n", _A], "error"),  # T=0: loadtxt would warn of no data
        ([_A, _B, _A, _B], "ok"),  # mixed C
        ([_A, "1 2\na\n0.5 0.5\n", _B, "1 3\nab\n0.5 x 0.5\n"], "error"),
        ([_A, "1 2\na\\\n0.5 0.5\n"], "error"),  # a dangling escape
        ([_A, "2 2\na\n0.5 0.5\n"], "error"),  # a missing row
    ])
    def test_named_cases_match_file_by_file(self, texts, outcome):
        got = _group_outcome(_grouped, texts)
        assert got[0] == outcome
        assert got == _group_outcome(_per_file, texts)

    def test_files_that_cannot_be_read_are_faults_in_file_order(self, tmp_path):
        places = {"good": "1 2\na\n0.5 0.5\n", "other": _B,
                  "bad row": "1 2\na\n0.5 x\n", "latin-1": b"1 2\n\xe9\n0.5 0.5\n"}
        for name, body in places.items():
            path = tmp_path / f"{name}.mat"
            if isinstance(body, bytes):
                path.write_bytes(body)
            else:
                path.write_text(body, encoding="utf-8")
        paths = [str(tmp_path / f"{name}.mat") for name in places] + [str(tmp_path)]

        def one_by_one(group):
            return _one_by_one(lambda path: parse_matrix(files.read_text(path), path), group)

        for group in itertools.permutations(paths, 3):
            assert (_group_outcome(read_matrix_file, list(group))
                    == _group_outcome(one_by_one, list(group)))
        assert _group_outcome(read_matrix_file, paths[:2])[0] == "ok"


class TestWordList:
    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "dict.txt"
        p.write_text("# header\n\nalpha\nbeta\n  gamma  \n", encoding="utf-8")
        assert load_word_list(p) == ["alpha", "beta", "gamma"]

    def test_embedded_whitespace_rejected(self, tmp_path):
        p = tmp_path / "dict.txt"
        p.write_text("two words\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            load_word_list(p)
        assert err.value.line == 1

    # Whitespace that ``str.strip`` and ``str.split`` see (the information
    # separators, NEL, no-break, line separator and ideographic spaces) at
    # a word's ends and inside it, among comment, blank and CRLF lines.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lines=st.lists(st.text("ab#é \t\r\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000", max_size=6),
                          max_size=12),
           end=st.sampled_from(["\n", "\r\n"]))
    def test_matches_the_line_by_line_reader(self, tmp_path_factory, lines, end):
        p = tmp_path_factory.mktemp("words") / "dict.txt"
        p.write_bytes(end.join(lines).encode("utf-8"))
        outcomes = []
        for read in (load_word_list, reference_load_word_list):
            try:
                outcomes.append(("ok", read(p)))
            except DataFormatError as exc:
                outcomes.append(("error", str(exc), exc.line))
        assert outcomes[0] == outcomes[1]

    def test_fifty_thousand_words_keep_little_memory(self, tmp_path):
        # The words of the trie's memory test, one per line: the lines, the
        # words and one joined string of them, and no more.
        words, _ = words_50k()
        p = tmp_path / "words50k.txt"
        p.write_text("\n".join(words) + "\n", encoding="utf-8")
        tracemalloc.start()
        try:
            got = load_word_list(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == words
        assert peak <= 4.5 * 2**20


@pytest.fixture
def synth_setup(tmp_path):
    """Noiseless matrices for 'advocaat' under extra-separator coding."""
    alphabet = Alphabet("acdotv", separator="|")
    sim = RecognizerSim(alphabet=alphabet, noise_level=0.0)
    paths = []
    for i, word in enumerate(["advocaat", "data", "toccata"]):
        m = sim.emit(word)
        path = tmp_path / f"w{i}.mat"
        write_matrix_file(path, m, alphabet.symbols)
        paths.append(str(path))
    dict_path = tmp_path / "dict.txt"
    dict_path.write_text("advocaat\ndata\ntoccata\n", encoding="utf-8")
    return paths, str(dict_path)


class TestDecodeCommand:
    def test_empty_separator_means_the_default(self, synth_setup, capsys):
        paths, _ = synth_setup
        command = ["decode", paths[0], "--mode", "bestpath", "--scheme", "extrasep"]
        assert main(command) == EXIT_OK
        default = capsys.readouterr().out
        assert main(command + ["--sep", ""]) == EXIT_OK
        assert capsys.readouterr().out == default

    def test_bestpath_noiseless(self, synth_setup, capsys):
        paths, _ = synth_setup
        rc = main(["decode", paths[0], "--mode", "bestpath", "--scheme", "extrasep"])
        assert rc == EXIT_OK
        fields = capsys.readouterr().out.strip().split("\t")
        assert fields[0] == paths[0]
        assert fields[1] == "advocaat"

    def test_words_mode_with_dictionary(self, synth_setup, capsys):
        paths, dict_path = synth_setup
        rc = main(
            ["decode", *paths, "--dict", dict_path, "--mode", "words",
             "--scheme", "extrasep", "--width", "16"]
        )
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        labels = [line.split("\t")[1] for line in lines]
        assert labels == ["advocaat", "data", "toccata"]
        for line in lines:
            assert 0.0 < float(line.split("\t")[2]) <= 1.0

    def test_tiny_matrix_matches_library_oracle(self, tmp_path, capsys):
        from wordbeam import PrefixTree, decode
        from _support import constrained_argmax, labeling_distribution, reference_trie

        m = PosteriorMatrix([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        path = tmp_path / "tiny.mat"
        write_matrix_file(path, m, "ab")
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("ab\n", encoding="utf-8")
        rc = main(
            ["decode", str(path), "--dict", str(dict_path), "--mode", "words",
             "--width", "10000"]
        )
        assert rc == EXIT_OK
        _, label, likelihood = capsys.readouterr().out.strip().split("\t")
        tree = PrefixTree(["ab"], {"a", "b"})
        exp_label, exp_p = constrained_argmax(
            labeling_distribution(m, Alphabet("ab")), reference_trie(["ab"]), tree.word_chars
        )
        assert label == exp_label
        assert float(likelihood) == pytest.approx(exp_p, abs=1e-12)
        assert (label, float(likelihood)) == decode(
            m, Alphabet("ab"), tree, width=10000
        )

    def test_ngram_mode_flags(self, synth_setup, tmp_path, capsys):
        paths, dict_path = synth_setup
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("advocaat\nadvocaat\ndata\ntoccata\n", encoding="utf-8")
        for mode in ("ngrams", "ngrams-forecast", "ngrams-forecast-sample"):
            rc = main(
                ["decode", *paths, "--dict", dict_path, "--mode", mode,
                 "--scheme", "extrasep", "--order", "3", "--smoothing-k", "0.5",
                 "--sample-size", "2", "--seed", "9", "--lm-corpus", str(corpus)]
            )
            assert rc == EXIT_OK
            labels = [
                line.split("\t")[1]
                for line in capsys.readouterr().out.strip().split("\n")
            ]
            assert labels == ["advocaat", "data", "toccata"]

    def test_model_is_trained_once_for_every_alphabet(self, synth_setup, tmp_path, capsys,
                                                      monkeypatch):
        # The model depends on the corpus and the flags alone, so files with
        # another alphabet decode with the model the first one trained: the
        # same rows as one command per file, each training its own.
        paths, dict_path = synth_setup
        wide = RecognizerSim(alphabet=Alphabet("acdotvx", separator="|"), noise_level=0.3, seed=2)
        for i, word in enumerate(["data", "advocaat"]):
            path = tmp_path / f"x{i}.mat"
            write_matrix_file(path, wide.emit(word), wide.alphabet.symbols)
            paths.insert(2 * i + 1, str(path))
        flags = ["--dict", dict_path, "--mode", "ngrams", "--scheme", "extrasep", "--order", "3"]
        alone = []
        for path in paths:
            assert main(["decode", path, *flags]) == EXIT_OK
            alone.append(capsys.readouterr().out)
        train, calls = NgramModel.train, []

        def counted(*args, **kwargs):
            calls.append(args)
            return train(*args, **kwargs)

        monkeypatch.setattr(NgramModel, "train", counted)
        assert main(["decode", *paths, *flags]) == EXIT_OK
        assert capsys.readouterr().out == "".join(alone)
        assert len(calls) == 1

    def test_missing_dict_is_usage_error(self, synth_setup, capsys):
        paths, _ = synth_setup
        rc = main(["decode", paths[0], "--mode", "words", "--scheme", "extrasep"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "wordbeam decode: error: --dict is required unless --mode bestpath\n")

    def test_malformed_matrix_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("1 2\na\n0.5 x\n", encoding="utf-8")
        rc = main(["decode", str(bad), "--mode", "bestpath"])
        assert rc == EXIT_DATA
        assert "bad.mat:3" in capsys.readouterr().err

    def test_word_outside_alphabet_names_dictionary_line(self, tmp_path, capsys):
        write_matrix_file(tmp_path / "x.mat", PosteriorMatrix([[0.25, 0.25, 0.5]]), "ab")
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("# words\nab\n\n  ba\nnaïve\nbna\n", encoding="utf-8")
        rc = main(["decode", str(tmp_path / "x.mat"), "--dict", str(dict_path)])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == (
            f"wordbeam: data format error: {dict_path}:5: word 'naïve' has character 'n', "
            "which is not a word character of the matrix alphabet 'ab'\n")

    @pytest.mark.parametrize("symbols, scheme, message", [
        ("aab", "plain", "alphabet characters must be pairwise distinct"),
        ("|a|", "extrasep", "separator '|' collides with the alphabet"),
    ])
    def test_alphabet_fault_names_the_matrix_line(self, tmp_path, capsys, symbols, scheme,
                                                  message):
        path = tmp_path / "m.mat"
        path.write_text(f"1 4\n{symbols}\n0.25 0.25 0.25 0.25\n", encoding="utf-8")
        assert main(["decode", str(path), "--mode", "bestpath", "--scheme", scheme]) == EXIT_DATA
        assert capsys.readouterr().err == f"wordbeam: data format error: {path}:2: {message}\n"

    def test_extrasep_alphabet_without_the_separator_names_the_matrix_line(self, tmp_path,
                                                                             capsys):
        path = tmp_path / "m.mat"
        write_matrix_file(path, PosteriorMatrix([[0.25, 0.25, 0.5]]), "ab")
        command = ["decode", str(path), "--mode", "bestpath", "--scheme", "extrasep"]
        assert main(command) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"wordbeam: data format error: {path}:2: expected separator '|' as the last "
            "alphabet symbol\n")

    def test_nonword_chars_outside_the_alphabet(self, tmp_path, capsys):
        # A configuration error where a tree is built; best path builds none.
        path = tmp_path / "x.mat"
        write_matrix_file(path, PosteriorMatrix([[0.25, 0.25, 0.5]]), "ab")
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("ab\n", encoding="utf-8")
        command = ["decode", str(path), "--dict", str(dict_path), "--nonword-chars", "x"]
        assert main(command + ["--mode", "words"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "wordbeam: configuration error: --nonword-chars ['x'] are not symbols of the "
            "matrix alphabet 'ab'\n")
        assert main(command + ["--mode", "bestpath"]) == EXIT_OK
        ignored = capsys.readouterr().out
        assert main(command[:-2] + ["--mode", "bestpath"]) == EXIT_OK
        assert capsys.readouterr().out == ignored

    def test_unusable_configuration_exit_code(self, synth_setup, tmp_path, capsys):
        # The empty dictionary cannot start a beam over the first file's
        # alphabet: that is reported, though a words-mode batch would decode
        # the first file only after reading the malformed second one.
        paths, _ = synth_setup
        empty_dict = tmp_path / "empty.txt"
        empty_dict.write_text("# nothing\n", encoding="utf-8")
        bad = tmp_path / "bad.mat"
        bad.write_text("1 2\na\n0.5 x\n", encoding="utf-8")
        rc = main(
            ["decode", paths[0], str(bad), "--dict", str(empty_dict), "--mode", "words",
             "--scheme", "plain"]
        )
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "wordbeam: configuration error: no beam can ever extend: the dictionary is "
            "empty and there are no non-word characters\n")


def _per_file_lines(paths, dict_path, width, nonword="", lm=None, mode=WORDS):
    """The ``decode`` output lines of plain-coded matrix files in ``mode``
    (``words`` by default), each file decoded on its own by ``decoder.decode``."""
    from wordbeam import PrefixTree, decode

    lines = []
    for path in paths:
        [(symbols, m)], _ = read_matrix_file([path])
        alphabet = Alphabet(symbols)
        tree = PrefixTree(load_word_list(dict_path), set(symbols) - set(nonword))
        label, likelihood = decode(m, alphabet, tree, lm, width, mode)
        lines.append(f"{path}\t{label}\t{likelihood!r}")
    return lines


@pytest.fixture
def batch_spy(monkeypatch, one_process):
    """The sizes of the CLI's ``decode`` calls, with two matrices to a batch
    and three files to a read group, all in this process: the first file
    alone, then the batches of the other files as one share."""
    sizes = []
    batch = cli.decode

    def spy(matrices, *args):
        sizes.append(len(matrices))
        return batch(matrices, *args)

    monkeypatch.setattr(cli, "decode", spy)
    monkeypatch.setattr(cli, "DECODE_BATCH", 2)
    monkeypatch.setattr(cli, "READ_FILES", 3)
    return sizes


class TestWordsModeBatches:
    """Dictionary modes decode files in batches, with the bytes of one decode per file."""

    def test_interleaved_alphabets_match_per_file_decodes(self, tmp_path, capsys, batch_spy):
        # Files of alphabets "ab " and "abc " alternate irregularly: "ab "
        # has five files (the first alone, then batches of 2 and 2), "abc "
        # two, one in the first read group (files 0-2) and one after it,
        # which make one batch.
        rng = np.random.default_rng(21)
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("ab\nba\naab\nb\n", encoding="utf-8")
        paths = []
        for i, symbols in enumerate(["ab ", "abc ", "ab ", "ab ", "abc ", "ab ", "ab "]):
            path = tmp_path / f"m{i}.mat"
            write_matrix_file(path, random_matrix(rng, 4 + 3 * i, len(symbols) + 1), symbols)
            paths.append(str(path))
        command = ["decode", *paths, "--dict", str(dict_path), "--mode", "words",
                   "--nonword-chars", " ", "--width", "4"]
        assert main(command) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "\n".join(_per_file_lines(paths, dict_path, 4, " ")) + "\n"
        assert sorted(batch_spy) == [1, 2, 2, 2]

    @pytest.mark.parametrize("name, mode", [("ngrams", NGRAMS),
                                            ("ngrams-forecast", NGRAMS_FORECAST),
                                            ("ngrams-forecast-sample", forecast_sample(3, 5))],
                             ids=["ngrams", "forecast", "sample"])
    def test_language_model_modes_match_per_file_decodes(self, tmp_path, capsys, batch_spy,
                                                         name, mode):
        # Four files of alphabet "ab " and three of "abc ", interleaved, more
        # than a batch of two each: file 0 alone, then batches of 2, 2, 1
        # and 1; the model is trained on the dictionary.
        rng = np.random.default_rng(24)
        dict_path = tmp_path / "dict.txt"
        words = ["ab", "ba", "aab", "b", "abba", "bab"]
        dict_path.write_text("\n".join(words) + "\n", encoding="utf-8")
        paths = []
        for i, symbols in enumerate(["ab ", "abc ", "abc ", "ab ", "ab ", "abc ", "ab "]):
            path = tmp_path / f"m{i}.mat"
            write_matrix_file(path, random_matrix(rng, 3 + 2 * i, len(symbols) + 1), symbols)
            paths.append(str(path))
        assert main(["decode", *paths, "--dict", str(dict_path), "--mode", name,
                     "--nonword-chars", " ", "--width", "3", "--order", "3",
                     "--sample-size", "3", "--seed", "5"]) == EXIT_OK
        lm = NgramModel.train(words, order=3)
        want = _per_file_lines(paths, dict_path, 3, " ", lm, mode)
        assert capsys.readouterr().out == "\n".join(want) + "\n"
        assert sorted(batch_spy) == [1, 1, 1, 2, 2]

    def test_ensemble_over_directories_matches_per_file_decodes(self, tmp_path, capsys,
                                                                 batch_spy):
        rng = np.random.default_rng(22)
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("ab\nba\naab\nb\n", encoding="utf-8")
        dirs, tsvs = [], []
        for k in range(3):
            d = tmp_path / f"member{k}"
            d.mkdir()
            paths = []
            for i in range(5):
                write_matrix_file(d / f"s{i}.mat", random_matrix(rng, 6 + i, 4), "ab ")
                paths.append(str(d / f"s{i}.mat"))
            lines = _per_file_lines(paths, dict_path, 3, " ")
            tsv = tmp_path / f"member{k}.tsv"
            tsv.write_text("".join(line.replace(f"{d}/", "") + "\n" for line in lines),
                           encoding="utf-8")
            dirs.append(str(d))
            tsvs.append(str(tsv))
        assert main(["ensemble", *tsvs]) == EXIT_OK
        want = capsys.readouterr().out
        assert main(["ensemble", *dirs, "--dict", str(dict_path), "--mode", "words",
                     "--nonword-chars", " ", "--width", "3"]) == EXIT_OK
        assert capsys.readouterr().out == want
        # 15 files: the first alone, then the other fourteen.
        assert batch_spy == [1] + [2] * 7

    def test_a_batch_spans_several_read_groups(self, tmp_path, capsys, monkeypatch, batch_spy):
        # Groups of at most two files and two small files' bytes (file 3 is
        # large, a group alone); batches of five matrices. The first file
        # is read and decoded alone, and a batch spans the rest of its group
        # and the three groups after it.
        rng = np.random.default_rng(23)
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("ab\nba\naab\nb\n", encoding="utf-8")
        paths = []
        for i in range(7):
            path = tmp_path / f"{i}.mat"
            write_matrix_file(path, random_matrix(rng, 40 if i == 3 else 5 + i % 2, 4), "ab ")
            paths.append(str(path))
        groups = []
        reader = cli.read_matrix_file

        def spy(group):
            groups.append([Path(p).stem for p in group])
            return reader(group)

        monkeypatch.setattr(cli, "read_matrix_file", spy)
        monkeypatch.setattr(cli, "DECODE_BATCH", 5)
        monkeypatch.setattr(cli, "READ_FILES", 2)
        monkeypatch.setattr(cli, "READ_BYTES", 2 * Path(paths[1]).stat().st_size)
        assert main(["decode", *paths, "--dict", str(dict_path), "--mode", "words",
                     "--nonword-chars", " ", "--width", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "\n".join(_per_file_lines(paths, dict_path, 4, " ")) + "\n"
        assert batch_spy == [1, 5, 1]
        assert groups == [["0"], ["1"], ["2"], ["3"], ["4", "5"], ["6"]]

    def test_new_alphabet_fault_is_reported_before_a_later_parse_fault(self, tmp_path, capsys):
        # File 2's alphabet cannot spell "cab"; file 3 does not parse.
        write_matrix_file(tmp_path / "1.mat", PosteriorMatrix([[0.2, 0.2, 0.2, 0.4]]), "abc")
        write_matrix_file(tmp_path / "2.mat", PosteriorMatrix([[0.25, 0.25, 0.5]]), "ab")
        (tmp_path / "3.mat").write_text("1 3\nab\n0.5 x 0.25\n", encoding="utf-8")
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("ab\ncab\n", encoding="utf-8")
        rc = main(["decode", *(str(tmp_path / f"{i}.mat") for i in (1, 2, 3)),
                   "--dict", str(dict_path), "--mode", "words"])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == (
            f"wordbeam: data format error: {dict_path}:2: word 'cab' has character 'c', "
            "which is not a word character of the matrix alphabet 'ab'\n")


class TestBestPathGroups:
    """Best path decodes the matrices of each group read, an alphabet at a
    time, with the bytes of one ``ctc.best_path_decode`` per file."""

    @staticmethod
    def _per_file_lines(paths, scheme="plain"):
        from wordbeam import best_path_decode
        from wordbeam.coding import decode_label

        lines = []
        for path in paths:
            [(symbols, m)], _ = read_matrix_file([path])
            alphabet = Alphabet(symbols) if scheme == "plain" else Alphabet(symbols[:-1], "|")
            label, likelihood = best_path_decode(m, alphabet)
            lines.append(f"{path}\t{decode_label(label, alphabet)}\t{likelihood!r}")
        return lines

    @pytest.fixture
    def group_spy(self, monkeypatch, one_process):
        """The alphabets and sizes of the CLI's ``best_path_decode`` calls, with
        three files to a read group, all in this process."""
        calls = []
        decode = cli.best_path_decode

        def spy(matrices, alphabet):
            calls.append((alphabet.symbols, len(matrices)))
            return decode(matrices, alphabet)

        monkeypatch.setattr(cli, "best_path_decode", spy)
        monkeypatch.setattr(cli, "READ_FILES", 3)
        return calls

    def _files(self, tmp_path, alphabets, seed):
        rng = np.random.default_rng(seed)
        paths = []
        for i, symbols in enumerate(alphabets):
            path = tmp_path / f"m{i}.mat"
            c = len(symbols) + 1
            # Rows of few levels tie, and a file of one frame is a labeling of one frame.
            arr = rng.integers(1, 3, (1 + 4 * i % 9, c)).astype(float)
            write_matrix_file(path, PosteriorMatrix(arr / arr.sum(axis=1, keepdims=True)), symbols)
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("scheme", ["plain", "extrasep"])
    def test_groups_of_mixed_alphabets_match_per_file_decodes(self, tmp_path, capsys,
                                                              group_spy, scheme):
        alphabets = ["ab|", "abc|", "ab|", "b\U0001d11e|", "abc|", "ab|", "ab|", "abc|"]
        paths = self._files(tmp_path, alphabets, 31)
        assert main(["decode", *paths, "--mode", "bestpath", "--scheme", scheme]) == EXIT_OK
        assert capsys.readouterr().out == "\n".join(self._per_file_lines(paths, scheme)) + "\n"
        # The first file alone, then the rest of its group and the groups of
        # three files after it, each decoded an alphabet at a time, in order
        # of first file.
        assert group_spy == [("ab|", 1), ("abc|", 1), ("ab|", 1), ("b\U0001d11e|", 1),
                             ("abc|", 1), ("ab|", 1), ("ab|", 1), ("abc|", 1)]

    def test_the_file_by_file_parse_matches_per_file_decodes(self, tmp_path, capsys,
                                                             monkeypatch, group_spy):
        # A field that only float() reads sends the second group down the
        # file-by-file parse, so its matrices are no views of one stack.
        paths = self._files(tmp_path, ["ab", "ab", "abc", "ab", "ab", "abc", "ab"], 32)
        text = Path(paths[4]).read_text(encoding="utf-8").split("\n")
        text[2] = text[2].replace("0.", "0_0.", 1)
        assert "0_0." in text[2]
        Path(paths[4]).write_text("\n".join(text), encoding="utf-8")
        parsed = []
        parse = files.parse_matrix
        monkeypatch.setattr(files, "parse_matrix", lambda text, path: parsed.append(path)
                            or parse(text, path))
        assert main(["decode", *paths, "--mode", "bestpath"]) == EXIT_OK
        assert parsed == paths[3:6]
        assert capsys.readouterr().out == "\n".join(self._per_file_lines(paths)) + "\n"
        assert group_spy == [("ab", 1), ("ab", 1), ("abc", 1), ("ab", 2), ("abc", 1), ("ab", 1)]


class TestGroupedReads:
    """``decode`` and ``ensemble`` read matrix files in groups, and report the
    first fault in file order, whether a read or a set-up."""

    @staticmethod
    def _faulty_files(tmp_path, faults, folder=""):
        """Matrix files 1-3 in ``folder`` and a dictionary; file 1 is sound,
        and files 2 and 3 have the named faults: a malformed row, or an
        alphabet that cannot spell the dictionary's "cab"."""
        bodies = {"row": "1 3\nab\n0.5 x 0.25\n",
                  "alphabet": serialize_matrix(PosteriorMatrix([[0.25, 0.25, 0.5]]), "ab")}
        where = tmp_path / folder
        where.mkdir(exist_ok=True)
        write_matrix_file(where / "1.mat", PosteriorMatrix([[0.2, 0.2, 0.2, 0.4]]), "abc")
        for i, fault in enumerate(faults, start=2):
            (where / f"{i}.mat").write_text(bodies[fault], encoding="utf-8")
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("ab\ncab\n", encoding="utf-8")
        return [str(where / f"{i}.mat") for i in (1, 2, 3)], str(dict_path)

    @staticmethod
    def _first_fault(faults, paths, dict_path, mode):
        """The message of the first fault in file order."""
        if faults[0] == "alphabet" and mode != "bestpath":  # best path reads no dictionary
            return (f"{dict_path}:2: word 'cab' has character 'c', which is not a word "
                    "character of the matrix alphabet 'ab'")
        return f"{paths[faults.index('row') + 1]}:3: malformed float in row '0.5 x 0.25'"

    @pytest.mark.parametrize("mode", ["words", "ngrams", "bestpath"])
    @pytest.mark.parametrize("faults", [("row", "alphabet"), ("alphabet", "row")])
    def test_first_fault_in_file_order(self, tmp_path, capsys, mode, faults):
        paths, dict_path = self._faulty_files(tmp_path, faults)
        rc = main(["decode", *paths, "--dict", dict_path, "--mode", mode])
        assert rc == EXIT_DATA
        want = self._first_fault(faults, paths, dict_path, mode)
        assert capsys.readouterr() == ("", f"wordbeam: data format error: {want}\n")

    @pytest.mark.parametrize("mode", ["words", "bestpath"])
    @pytest.mark.parametrize("faults", [("row", "alphabet"), ("alphabet", "row")])
    def test_first_fault_in_file_order_over_directories(self, tmp_path, capsys, mode, faults):
        paths, dict_path = self._faulty_files(tmp_path, faults, "member0")
        self._faulty_files(tmp_path, faults, "member1")
        rc = main(["ensemble", str(tmp_path / "member0"), str(tmp_path / "member1"),
                   "--dict", dict_path, "--mode", mode])
        assert rc == EXIT_DATA
        want = self._first_fault(faults, paths, dict_path, mode)
        assert capsys.readouterr() == ("", f"wordbeam: data format error: {want}\n")

    def test_groups_keep_to_the_file_and_byte_budget(self, tmp_path, capsys, monkeypatch,
                                                     one_process):
        rng = np.random.default_rng(8)
        small = random_matrix(rng, 3, 4)
        paths = []
        for i in range(9):  # file 3 is large, the others alike
            path = tmp_path / f"{i}.mat"
            write_matrix_file(path, random_matrix(rng, 40, 4) if i == 3 else small, "abc")
            paths.append(str(path))
        groups = []
        reader = cli.read_matrix_file

        def spy(group):
            groups.append([Path(p).stem for p in group])
            return reader(group)

        monkeypatch.setattr(cli, "read_matrix_file", spy)
        command = ["decode", *paths, "--mode", "bestpath"]
        monkeypatch.setattr(cli, "READ_FILES", 1)
        assert main(command) == EXIT_OK
        one_by_one = capsys.readouterr().out
        assert len(groups) == 9

        groups.clear()
        monkeypatch.setattr(cli, "READ_FILES", 20)
        monkeypatch.setattr(cli, "READ_BYTES", 2 * Path(paths[0]).stat().st_size)
        assert main(command) == EXIT_OK
        assert capsys.readouterr().out == one_by_one
        # The first file is read alone, before the rest of its group.
        assert groups == [["0"], ["1"], ["2"], ["3"], ["4", "5"], ["6", "7"], ["8"]]

        groups.clear()
        monkeypatch.setattr(cli, "READ_FILES", 4)
        monkeypatch.setattr(cli, "READ_BYTES", 1 << 20)
        assert main(command) == EXIT_OK
        assert capsys.readouterr().out == one_by_one
        assert groups == [["0"], ["1", "2", "3"], ["4", "5", "6", "7"], ["8"]]

    @pytest.mark.parametrize("mode", ["bestpath", "words", "ngrams"])
    @pytest.mark.parametrize("command", ["decode", "ensemble"])
    def test_every_read_is_inside_a_group_read_before_the_first_decode(
            self, synth_setup, capsys, monkeypatch, mode, command):
        # The benchmark's set-up clock counts the time inside
        # ``cli.read_matrix_file`` as reading, and stops at the first decode.
        paths, dict_path = synth_setup
        events = []
        read_text, reader = files.read_text, cli.read_matrix_file

        def logged_read(path):
            if str(path).endswith(".mat"):
                events.append(("read", reading))
            return read_text(path)

        def group(group):
            nonlocal reading
            events.append("group")
            reading = True
            try:
                return reader(group)
            finally:
                reading = False

        def decoder(fn):
            def logged(*args, **kwargs):
                events.append("decode")
                return fn(*args, **kwargs)

            return logged

        reading = False
        monkeypatch.setattr(files, "read_text", logged_read)
        monkeypatch.setattr(cli, "read_matrix_file", group)
        for name in ("decode", "best_path_decode"):
            monkeypatch.setattr(cli, name, decoder(getattr(cli, name)))
        if command == "decode":
            inputs = paths
        else:
            member = Path(paths[0]).parent / "member"
            member.mkdir()
            for path in paths:
                (member / Path(path).name).write_bytes(Path(path).read_bytes())
            inputs = [str(member)] * 2
        assert main([command, *inputs, "--dict", dict_path, "--mode", mode,
                     "--scheme", "extrasep"]) == EXIT_OK
        reads = [e for e in events if e != "group" and e != "decode"]
        assert reads and all(inside for _, inside in reads)
        assert events[0] == "group" and events[1][0] == "read"
        assert "decode" in events and "decode" not in events[:events.index("decode")]
        first_decode = events.index("decode")
        assert first_decode > events.index(("read", True))


class TestEnsembleCommand:
    def _write(self, tmp_path, name, rows):
        p = tmp_path / name
        p.write_text("".join(f"{i}\t{t}\t{l}\n" for i, t, l in rows), encoding="utf-8")
        return str(p)

    def test_majority_vote(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.tsv", [("s0", "cat", 0.9), ("s1", "dog", 0.4)])
        b = self._write(tmp_path, "b.tsv", [("s0", "cat", 0.2), ("s1", "fox", 0.9)])
        c = self._write(tmp_path, "c.tsv", [("s0", "cow", 0.8), ("s1", "dog", 0.3)])
        rc = main(["ensemble", a, b, c])
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "s0\tcat\t2"
        assert lines[1] == "s1\tdog\t2"

    def test_all_distinct_uses_likelihood(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.tsv", [("s0", "cat", 0.1)])
        b = self._write(tmp_path, "b.tsv", [("s0", "dog", 0.8)])
        c = self._write(tmp_path, "c.tsv", [("s0", "cow", 0.3)])
        main(["ensemble", a, b, c])
        assert capsys.readouterr().out.strip() == "s0\tdog\t1"

    @pytest.mark.parametrize("inputs", ["tsv", "directories"])
    def test_no_samples_print_nothing(self, tmp_path, capsys, inputs):
        # One line per sample: members without samples give no output at all.
        if inputs == "tsv":
            args = [self._write(tmp_path, name, []) for name in ("a.tsv", "b.tsv")]
        else:
            (tmp_path / "dict.txt").write_text("ab\n", encoding="utf-8")
            args = ["--dict", str(tmp_path / "dict.txt")]
            for d in ("d1", "d2"):
                (tmp_path / d).mkdir()
                args.append(str(tmp_path / d))
        assert main(["ensemble", *args]) == EXIT_OK
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("likelihood", ["nan", "-1"])
    def test_bad_likelihood_names_line(self, tmp_path, capsys, likelihood):
        a = self._write(tmp_path, "a.tsv", [("s0", "cat", 0.1), ("s1", "dog", likelihood)])
        b = self._write(tmp_path, "b.tsv", [("s0", "cat", 0.1), ("s1", "dog", 0.2)])
        assert main(["ensemble", a, b]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"wordbeam: data format error: {a}:2: likelihood must be finite and "
            f"non-negative, got {likelihood!r}\n")

    @pytest.mark.parametrize("row, message", [
        ("s1\tdog", "expected 'id<TAB>label<TAB>likelihood', got 's1\\tdog'"),
        ("s1\tdog\t0.2\t0.3",
         "expected 'id<TAB>label<TAB>likelihood', got 's1\\tdog\\t0.2\\t0.3'"),
        ("s1\tdog\tlikely", "malformed likelihood 'likely'"),
    ], ids=["two fields", "four fields", "malformed likelihood"])
    def test_bad_row_names_line(self, tmp_path, capsys, row, message):
        a = tmp_path / "a.tsv"
        a.write_text(f"s0\tcat\t0.1\n{row}\n", encoding="utf-8")
        b = self._write(tmp_path, "b.tsv", [("s0", "cat", 0.1), ("s1", "dog", 0.2)])
        assert main(["ensemble", str(a), b]) == EXIT_DATA
        assert capsys.readouterr().err == f"wordbeam: data format error: {a}:2: {message}\n"

    @pytest.mark.parametrize("short_first", [False, True])
    def test_prefix_of_another_tsv_names_the_first_missing_id(self, tmp_path, capsys,
                                                              short_first):
        # Misaligned outputs have no line to name: the error names the file.
        long = self._write(tmp_path, "long.tsv", [("s0", "cat", 0.1), ("s1", "dog", 0.2)])
        short = self._write(tmp_path, "short.tsv", [("s0", "cat", 0.1)])
        files = [short, long] if short_first else [long, short]
        assert main(["ensemble", *files]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"wordbeam: data format error: {files[1]}: recognizer outputs are misaligned, "
            "first mismatch at 's1'\n")

    def test_misaligned_ids_named(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.tsv", [("s0", "cat", 0.1), ("s1", "dog", 0.2)])
        b = self._write(tmp_path, "b.tsv", [("s0", "cat", 0.1), ("zz", "dog", 0.2)])
        rc = main(["ensemble", a, b])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert "s1" in err or "zz" in err

    def test_misaligned_directories_name_smallest_mismatch(self, tmp_path, capsys):
        for d, prefix in (("a", "x"), ("b", "y")):
            (tmp_path / d).mkdir()
            for i in range(1, 6):
                (tmp_path / d / f"{prefix}{i}.mat").write_text("", encoding="utf-8")
        rc = main(["ensemble", str(tmp_path / "a"), str(tmp_path / "b"), "--mode", "bestpath"])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == (
            f"wordbeam: data format error: {tmp_path / 'b'}: matrix directories are "
            "misaligned, first mismatch at 'x1.mat'\n")

    def test_directories_without_dict_is_usage_error(self, tmp_path, capsys):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
        rc = main(["ensemble", str(tmp_path / "a"), str(tmp_path / "b"), "--mode", "words"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "wordbeam ensemble: error: --dict is required unless --mode bestpath\n")

    def test_directory_mixed_with_tsv_is_usage_error(self, tmp_path, capsys):
        member = tmp_path / "member"
        member.mkdir()
        tsv = self._write(tmp_path, "h.tsv", [("s0", "cat", 0.9)])
        rc = main(["ensemble", str(member), tsv])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == ("wordbeam ensemble: error: inputs must be all decode TSV files or all "
                       "matrix directories\n")

    def test_single_recognizer_matches_decode(self, synth_setup, tmp_path, capsys):
        paths, dict_path = synth_setup
        args = ["--dict", dict_path, "--mode", "words", "--scheme", "extrasep"]
        main(["decode", *paths, *args])
        decode_labels = [
            line.split("\t")[1] for line in capsys.readouterr().out.strip().split("\n")
        ]
        member = tmp_path / "member"
        member.mkdir()
        for p in paths:
            (member / p.split("/")[-1]).write_bytes(Path(p).read_bytes())
        rc = main(["ensemble", str(member), *args])
        assert rc == EXIT_OK
        voted = [
            line.split("\t")[1] for line in capsys.readouterr().out.strip().split("\n")
        ]
        assert voted == decode_labels

    def test_directory_voting(self, tmp_path, capsys):
        alphabet = Alphabet("acdotv", separator="|")
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("advocaat\ndata\ntoccata\n", encoding="utf-8")
        for k, noise in enumerate((0.25, 0.3, 0.35)):
            d = tmp_path / f"m{k}"
            d.mkdir()
            sim = RecognizerSim(alphabet=alphabet, noise_level=noise, seed=k)
            for i, word in enumerate(["advocaat", "toccata"]):
                write_matrix_file(d / f"s{i}.mat", sim.emit(word), alphabet.symbols)
        rc = main(
            ["ensemble", str(tmp_path / "m0"), str(tmp_path / "m1"), str(tmp_path / "m2"),
             "--dict", str(dict_path), "--mode", "words", "--scheme", "extrasep"]
        )
        assert rc == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split("\t")[1] for line in lines] == ["advocaat", "toccata"]


class TestEvalCommand:
    def test_stdout_report(self, tmp_path, capsys):
        (tmp_path / "pred.txt").write_text("aa\nbb\ncc\n", encoding="utf-8")
        (tmp_path / "gt.txt").write_text("aa\nbx\ncc\n", encoding="utf-8")
        rc = main(["eval", str(tmp_path / "pred.txt"), str(tmp_path / "gt.txt")])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "word_accuracy=66.666667" in out

    def test_report_files_and_tsv_inputs(self, tmp_path, capsys):
        (tmp_path / "pred.tsv").write_text(
            "s0\tAa\t0.5\ns1\tbb\t0.25\n", encoding="utf-8"
        )
        (tmp_path / "gt.tsv").write_text("s0\taa\ns1\tbb\n", encoding="utf-8")
        (tmp_path / "vocab.txt").write_text("aa\n", encoding="utf-8")
        rc = main(
            ["eval", str(tmp_path / "pred.tsv"), str(tmp_path / "gt.tsv"),
             "--train-vocab", str(tmp_path / "vocab.txt"), "--case-insensitive",
             "--out-dir", str(tmp_path / "report")]
        )
        assert rc == EXIT_OK
        kv = (tmp_path / "report" / "report.kv").read_text(encoding="utf-8")
        assert "word_accuracy=100.000000" in kv
        assert "inv_accuracy=100.000000" in kv
        assert "oov_accuracy=100.000000" in kv
        assert (tmp_path / "report" / "report.txt").exists()

    def test_plain_lists_skip_comment_lines(self, tmp_path, capsys):
        (tmp_path / "pred.txt").write_text("# predictions\naa\n#\nbb\n", encoding="utf-8")
        (tmp_path / "gt.txt").write_text("aa\n# truth\nbb\n", encoding="utf-8")
        assert main(["eval", str(tmp_path / "pred.txt"), str(tmp_path / "gt.txt")]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "word_accuracy=100.000000" in out
        assert err == ""

    @pytest.mark.parametrize("preds, gts, message", [
        ("aa\nbb\n", "aa\n", "prediction/ground-truth length mismatch: 2 vs 1"),
        ("", "", "word_accuracy needs at least one pair"),
    ])
    def test_unpaired_inputs_make_no_out_dir(self, tmp_path, capsys, preds, gts, message):
        (tmp_path / "pred.txt").write_text(preds, encoding="utf-8")
        (tmp_path / "gt.txt").write_text(gts, encoding="utf-8")
        out = tmp_path / "report"
        assert main(["eval", str(tmp_path / "pred.txt"), str(tmp_path / "gt.txt"),
                     "--out-dir", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"wordbeam: invalid input: {message}\n"
        assert not out.exists()


class TestSynthCommand:
    def test_dictionary_of_comments_only_is_configuration_error(self, tmp_path, capsys):
        (tmp_path / "dict.txt").write_text("# no words\n#\n", encoding="utf-8")
        command = ["synth", "--dict", str(tmp_path / "dict.txt"),
                   "--out-dir", str(tmp_path / "out")]
        assert main(command) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "wordbeam: configuration error: the dictionary file holds no words\n")
        assert not (tmp_path / "out").exists()

    def test_words_holding_every_separator_candidate_are_invalid_input(self, tmp_path, capsys):
        # Each of coding.SEPARATOR_CANDIDATES occurs, so none is left to pick.
        (tmp_path / "dict.txt").write_text("a|\nb#\nc~\nd\u00a4\n", encoding="utf-8")
        command = ["synth", "--dict", str(tmp_path / "dict.txt"), "--scheme", "extrasep",
                   "--out-dir", str(tmp_path / "out")]
        assert main(command) == EXIT_DATA
        assert capsys.readouterr().err == (
            "wordbeam: invalid input: all candidate separators ('|', '#', '~', '\u00a4') "
            "occur in the dataset\n")
        assert not (tmp_path / "out").exists()

    def test_layout_and_determinism(self, tmp_path, capsys):
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("cat\ndog\ncow\n", encoding="utf-8")
        common = [
            "synth", "--dict", str(dict_path), "--n-words", "4", "--members", "2",
            "--noise", "0.3", "--seed", "11", "--scheme", "extrasep",
        ]
        assert main([*common, "--out-dir", str(tmp_path / "run1")]) == EXIT_OK
        assert main([*common, "--out-dir", str(tmp_path / "run2")]) == EXIT_OK
        manifest = (tmp_path / "run1" / "ground_truth.tsv").read_text(encoding="utf-8")
        assert len(manifest.strip().split("\n")) == 4
        for member in ("member_00", "member_01"):
            files = sorted((tmp_path / "run1" / member).iterdir())
            assert len(files) == 4
        a = (tmp_path / "run1" / "member_00" / "sample_0000.mat").read_bytes()
        b = (tmp_path / "run2" / "member_00" / "sample_0000.mat").read_bytes()
        assert a == b

    def test_output_does_not_depend_on_the_emission_batch(self, tmp_path, monkeypatch):
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("cat\ndog\ncow\n", encoding="utf-8")
        common = ["synth", "--dict", str(dict_path), "--n-words", "10", "--members", "2",
                  "--noise", "0.3", "--seed", "5"]
        assert main([*common, "--out-dir", str(tmp_path / "one")]) == EXIT_OK
        monkeypatch.setattr("wordbeam.cli.SYNTH_BATCH", 3)  # the last batch of a member runs short
        assert main([*common, "--out-dir", str(tmp_path / "threes")]) == EXIT_OK
        files = sorted(p.relative_to(tmp_path / "one")
                       for p in (tmp_path / "one").rglob("*") if p.is_file())
        assert len(files) == 2 * 10 + 1
        for name in files:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "threes" / name).read_bytes()

    def test_decode_eval_round_trip(self, tmp_path, capsys):
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("cat\ndog\ncow\n", encoding="utf-8")
        out = tmp_path / "data"
        main(
            ["synth", "--dict", str(dict_path), "--n-words", "6", "--members", "1",
             "--noise", "0.0", "--seed", "3", "--scheme", "extrasep",
             "--out-dir", str(out)]
        )
        capsys.readouterr()
        matrices = sorted(str(p) for p in (out / "member_00").iterdir())
        rc = main(
            ["decode", *matrices, "--dict", str(dict_path), "--mode", "words",
             "--scheme", "extrasep"]
        )
        assert rc == EXIT_OK
        pred_path = tmp_path / "pred.tsv"
        pred_path.write_text(capsys.readouterr().out, encoding="utf-8")
        rc = main(["eval", str(pred_path), str(out / "ground_truth.tsv")])
        assert rc == EXIT_OK
        assert "word_accuracy=100.000000" in capsys.readouterr().out


class TestReproduceTrendsCommand:
    def test_tiny_run_smoke(self, tmp_path):
        out = tmp_path / "report.txt"
        rc = main(
            ["reproduce-trends", "--seed", "5", "--seeds", "1", "--n-words", "20",
             "--members", "2", "--out", str(out)]
        )
        assert rc == EXIT_OK
        text = out.read_text(encoding="utf-8")
        assert "ensemble" in text and "word-beam" in text


class TestTreeLifetime:
    """A command's trees, with their scorers and extension arrays, are gone
    when ``main`` returns, without the cyclic collector."""

    @staticmethod
    def _record_trees(monkeypatch, owner) -> list:
        """Weak references to every tree ``owner`` builds from now on."""
        trees = []
        build = owner.PrefixTree

        def recorded(*args, **kwargs):
            tree = build(*args, **kwargs)
            trees.append(weakref.ref(tree))
            return tree

        monkeypatch.setattr(owner, "PrefixTree", recorded)
        return trees

    @staticmethod
    def _alive_after(argv: list[str], trees: list) -> list:
        """Run ``argv`` with the collector off; the recorded trees still alive
        when ``main`` returns, read before the collector is back on."""
        gc.disable()
        try:
            assert main(argv) == EXIT_OK
            assert trees
            return [tree for tree in trees if tree() is not None]
        finally:
            gc.enable()

    @pytest.mark.parametrize("mode", ["words", "ngrams", "ngrams-forecast",
                                      "ngrams-forecast-sample"])
    def test_decode_trees_die_when_main_returns(self, synth_setup, capsys, monkeypatch,
                                                mode):
        paths, dict_path = synth_setup
        trees = self._record_trees(monkeypatch, cli)
        for files_of in (paths[:1], paths):  # one matrix, then a batch
            argv = ["decode", *files_of, "--dict", dict_path, "--mode", mode,
                    "--sample-size", "1", "--scheme", "extrasep"]
            assert self._alive_after(argv, trees) == []
            trees.clear()
        assert "toccata" in capsys.readouterr().out

    def test_trend_trees_die_when_main_returns(self, capsys, monkeypatch):
        trees = self._record_trees(monkeypatch, trends)
        argv = ["reproduce-trends", "--seeds", "1", "--n-words", "20", "--members", "2"]
        assert self._alive_after(argv, trees) == []
        assert "word-beam" in capsys.readouterr().out


class TestWrappedLayers:
    """A tracer wraps layers where their callers look them up: each module
    or class attribute below becomes a plain ``*args, **kwargs`` function. A
    process that runs the same commands before and after must print the
    same bytes and exit the same way."""

    WRAPPED = [(cli, "decode"), (cli, "best_path_decode"), (cli, "read_matrix_file"),
               (cli, "PrefixTree"), (trends, "PrefixTree"), (trends, "best_path_decode"),
               (trends, "vote"), (synth, "PosteriorMatrix"), (files, "PosteriorMatrix"),
               (NgramModel, "train")]

    @staticmethod
    def _wrapper(fn):
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)

        return wrapper

    def test_wrapped_layers_print_the_same(self, synth_setup, capsys, monkeypatch):
        paths, dict_path = synth_setup
        member = Path(paths[0]).parent / "member"
        member.mkdir()
        for path in paths:
            (member / Path(path).name).write_bytes(Path(path).read_bytes())
        # A field that only float() reads sends its group down the per-file parse.
        text = Path(paths[0]).read_text(encoding="utf-8").replace("\n0 ", "\n0_0 ", 1)
        assert "0_0" in text
        (member / "w3.mat").write_text(text, encoding="utf-8")
        commands = [
            ["reproduce-trends", "--seeds", "1", "--n-words", "30", "--members", "10",
             "--width", "8"],
            ["decode", *paths, "--dict", dict_path, "--mode", "ngrams-forecast",
             "--scheme", "extrasep"],
            ["decode", *paths, "--dict", dict_path, "--mode", "ngrams", "--order", "3",
             "--scheme", "extrasep"],
            ["decode", *paths, "--dict", dict_path, "--mode", "ngrams-forecast-sample",
             "--sample-size", "1", "--scheme", "extrasep"],
            ["decode", *paths, "--mode", "bestpath", "--scheme", "extrasep"],
            ["ensemble", str(member), str(member), "--dict", dict_path, "--mode", "words",
             "--scheme", "extrasep"],
        ]

        def run():
            outs = []
            for argv in commands:
                code = main(argv)
                outs.append((code, capsys.readouterr().out))
            return outs

        plain = run()
        assert [code for code, _ in plain] == [EXIT_OK] * len(commands)
        for owner, name in self.WRAPPED:
            monkeypatch.setattr(owner, name, self._wrapper(getattr(owner, name)))
        assert run() == plain


class TestUnreadableInputs:
    @pytest.mark.parametrize("command, bad, reason", [
        (["decode", "{missing}", "--mode", "bestpath"], "missing", "No such file or directory"),
        (["decode", "{dir}", "--mode", "bestpath"], "dir", "Is a directory"),
        (["decode", "{mat}", "--mode", "words", "--dict", "{missing}"], "missing",
         "No such file or directory"),
        (["ensemble", "{missing}", "{missing}"], "missing", "No such file or directory"),
        (["eval", "{missing}", "{mat}"], "missing", "No such file or directory"),
    ])
    def test_unreadable_path_is_usage_error(self, tmp_path, capsys, command, bad, reason):
        write_matrix_file(tmp_path / "x.mat", PosteriorMatrix([[0.5, 0.5]]), "a")
        places = {"missing": str(tmp_path / "missing.txt"), "dir": str(tmp_path),
                  "mat": str(tmp_path / "x.mat")}
        assert main([arg.format(**places) for arg in command]) == EXIT_USAGE
        assert capsys.readouterr().err == f"wordbeam: cannot read {places[bad]}: {reason}\n"

    def test_non_utf8_bytes_are_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_bytes(b"1 2\na\n0.5 0.5\n\xff\n")
        assert main(["decode", str(bad), "--mode", "bestpath"]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"wordbeam: data format error: {bad}: not UTF-8 text: invalid start byte at byte 14\n")


class TestUnwritableOutputs:
    @pytest.mark.parametrize("command, bad, reason", [
        (["eval", "{file}", "{file}", "--out-dir", "{file}"], "file", "File exists"),
        (["synth", "--dict", "{file}", "--n-words", "2", "--out-dir", "{file}"], "file",
         "File exists"),
        (["reproduce-trends", "--seeds", "1", "--n-words", "5", "--members", "1",
          "--out", "{nested}"], "nested", "No such file or directory"),
    ])
    def test_output_path_is_usage_error(self, tmp_path, capsys, monkeypatch, command, bad,
                                        reason):
        (tmp_path / "words.txt").write_text("abc\n", encoding="utf-8")
        places = {"file": str(tmp_path / "words.txt"),
                  "nested": str(tmp_path / "missing" / "report.txt")}

        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before checking its output path")

        for name in ("build_report", "write_matrix_file", "run_trend_experiment"):
            monkeypatch.setattr(f"wordbeam.cli.{name}", no_work)
        assert main([arg.format(**places) for arg in command]) == EXIT_USAGE
        assert capsys.readouterr().err == f"wordbeam: cannot write {places[bad]}: {reason}\n"


_PARSER_OUTCOMES = json.loads((Path(__file__).parent / "parser_outcomes.json")
                              .read_text(encoding="utf-8"))
_COMMAND_FUNCTIONS = ["cmd_decode", "cmd_ensemble", "cmd_eval", "cmd_synth",
                      "cmd_reproduce_trends"]


def _parse_outcome(argv, capsys, monkeypatch):
    """What ``main(argv)`` makes of its arguments: exit code, stdout, stderr,
    and the parsed arguments with the name of the command function that
    gets them (which is not run)."""
    seen = {}

    def recorder(name):
        def record(args):
            seen.update({k: v for k, v in vars(args).items() if k != "func"}, func=name)
            return 0

        return record

    with monkeypatch.context() as patch:
        for name in _COMMAND_FUNCTIONS:
            patch.setattr(cli, name, recorder(name))
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    out, err = capsys.readouterr()
    return json.loads(json.dumps({"argv": argv, "code": code, "stdout": out, "stderr": err,
                                  "args": seen or None}))


class TestParser:
    """``main`` builds only the subcommand it runs; help, usage, errors and
    parsed arguments stay those of the parser with every subcommand built."""

    @pytest.mark.parametrize("pinned", _PARSER_OUTCOMES, ids=lambda r: " ".join(r["argv"]))
    def test_outcome_of_the_full_parser(self, capsys, monkeypatch, pinned):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
        got = _parse_outcome(pinned["argv"], capsys, monkeypatch)
        build = cli.build_parser
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", lambda commands: build())
            assert got == _parse_outcome(pinned["argv"], capsys, monkeypatch)
        # Pinned from the parser that built every subcommand on each call;
        # argparse's wording and layout differ between Python versions.
        if sys.version_info[:2] == (3, 11):
            assert got == pinned

    def test_only_the_named_subcommand_is_built(self, capsys, monkeypatch):
        built = []
        for name, (text, add_arguments) in cli._COMMANDS.items():
            def spy(p, name=name, add_arguments=add_arguments):
                built.append(name)
                add_arguments(p)

            monkeypatch.setitem(cli._COMMANDS, name, (text, spy))
        _parse_outcome(["eval", "decode", "synth"], capsys, monkeypatch)
        assert built == ["eval"]


class TestUsage:
    def test_unknown_mode_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["decode", "x.mat", "--mode", "viterbi"])
        assert err.value.code == EXIT_USAGE

    @pytest.mark.parametrize("command, flag", [
        (["decode", "{mat}", "--dict", "{dict}"], "--width"),
        (["ensemble", "{mat}", "{mat}", "--dict", "{dict}"], "--width"),
        (["reproduce-trends"], "--width"),
        (["reproduce-trends"], "--seeds"),
        (["reproduce-trends"], "--members"),
        (["reproduce-trends"], "--n-words"),
        (["decode", "{mat}", "--dict", "{dict}", "--mode", "ngrams"], "--order"),
        (["ensemble", "{mat}", "{mat}", "--dict", "{dict}"], "--order"),
        (["decode", "{mat}", "--dict", "{dict}", "--mode", "ngrams-forecast-sample"],
         "--sample-size"),
        (["ensemble", "{mat}", "{mat}", "--dict", "{dict}"], "--sample-size"),
        (["synth", "--dict", "{dict}", "--out-dir", "{out}"], "--n-words"),
        (["synth", "--dict", "{dict}", "--out-dir", "{out}"], "--members"),
        (["synth", "--dict", "{dict}", "--out-dir", "{out}"], "--frames-per-char"),
    ])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_counts_below_one_are_usage_errors(self, tmp_path, capsys, monkeypatch, command,
                                               flag, value):
        # Rejected by the parser, before any file is read or input made.
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before checking its arguments")

        for name in ("read_text", "read_matrix_file", "load_word_list", "run_trend_experiment"):
            monkeypatch.setattr(f"wordbeam.cli.{name}", no_work)
        places = {"mat": str(tmp_path / "x.mat"), "dict": str(tmp_path / "dict.txt"),
                  "out": str(tmp_path / "out")}
        with pytest.raises(SystemExit) as err:
            main([arg.format(**places) for arg in command] + [flag, value])
        assert err.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: must be at least 1, got {int(value)}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, value, reason", [
        (["synth", "--dict", "{dict}", "--out-dir", "{out}"], "--noise", "1.5",
         "must lie in [0, 1], got 1.5"),
        (["synth", "--dict", "{dict}", "--out-dir", "{out}"], "--noise", "-0.1",
         "must lie in [0, 1], got -0.1"),
        (["synth", "--dict", "{dict}", "--out-dir", "{out}"], "--noise", "nan",
         "must lie in [0, 1], got nan"),
        (["reproduce-trends"], "--noise", "1.5", "must lie in [0, 1], got 1.5"),
        (["reproduce-trends"], "--noise", "inf", "must lie in [0, 1], got inf"),
        (["synth", "--dict", "{dict}", "--out-dir", "{out}"], "--confusion-spread", "-1",
         "must be non-negative and finite, got -1.0"),
        (["synth", "--dict", "{dict}", "--out-dir", "{out}"], "--confusion-spread", "inf",
         "must be non-negative and finite, got inf"),
        (["synth", "--dict", "{dict}", "--out-dir", "{out}", "--members", "2"], "--jitter", "-1",
         "must be non-negative and finite, got -1.0"),
        (["synth", "--dict", "{dict}", "--out-dir", "{out}"], "--jitter", "nan",
         "must be non-negative and finite, got nan"),
        (["synth", "--dict", "{dict}", "--out-dir", "{out}"], "--jitter", "x",
         "invalid float value: 'x'"),
    ])
    def test_out_of_range_floats_are_usage_errors(self, tmp_path, capsys, monkeypatch, command,
                                                  flag, value, reason):
        # Rejected by the parser, before any file is read or input made.
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before checking its arguments")

        for name in ("read_text", "read_matrix_file", "load_word_list", "run_trend_experiment"):
            monkeypatch.setattr(f"wordbeam.cli.{name}", no_work)
        places = {"dict": str(tmp_path / "dict.txt"), "out": str(tmp_path / "out")}
        with pytest.raises(SystemExit) as err:
            main([arg.format(**places) for arg in command] + [f"{flag}={value}"])
        assert err.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: {reason}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["decode", "{mat}", "--dict", "{dict}", "--scheme", "extrasep"],
        ["ensemble", "{mat}", "{mat}", "--dict", "{dict}", "--scheme", "extrasep"],
        ["synth", "--dict", "{dict}", "--out-dir", "{out}", "--scheme", "extrasep"],
    ])
    def test_separator_longer_than_one_character_is_usage_error(self, tmp_path, capsys,
                                                                monkeypatch, command):
        # Rejected by the parser, before any file is read.
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before checking its arguments")

        for name in ("read_text", "read_matrix_file", "load_word_list"):
            monkeypatch.setattr(f"wordbeam.cli.{name}", no_work)
        places = {"mat": str(tmp_path / "x.mat"), "dict": str(tmp_path / "dict.txt"),
                  "out": str(tmp_path / "out")}
        with pytest.raises(SystemExit) as err:
            main([arg.format(**places) for arg in command] + ["--sep", "ab"])
        assert err.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "error: argument --sep: must be a single character, got 'ab'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["decode", "{mat}", "--dict", "{dict}", "--mode", "ngrams-forecast"],
        ["ensemble", "{mat}", "{mat}", "--dict", "{dict}", "--mode", "ngrams"],
    ])
    @pytest.mark.parametrize("value, shown", [
        ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("0", "0.0"), ("-0.5", "-0.5"),
    ])
    def test_smoothing_k_must_be_positive_and_finite(self, tmp_path, capsys, monkeypatch,
                                                     command, value, shown):
        # A NaN or infinite k would make every probability NaN; rejected by the
        # parser, before any file is read.
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before checking its arguments")

        for name in ("read_text", "read_matrix_file", "load_word_list"):
            monkeypatch.setattr(f"wordbeam.cli.{name}", no_work)
        places = {"mat": str(tmp_path / "x.mat"), "dict": str(tmp_path / "dict.txt")}
        with pytest.raises(SystemExit) as err:
            main([arg.format(**places) for arg in command] + [f"--smoothing-k={value}"])
        assert err.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            f"error: argument --smoothing-k: must be positive and finite, got {shown}\n")

    def test_non_float_smoothing_k_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["decode", "x.mat", "--smoothing-k", "half"])
        assert err.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "error: argument --smoothing-k: invalid float value: 'half'\n")

    def test_non_integer_count_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["reproduce-trends", "--seeds", "two"])
        assert err.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "error: argument --seeds: invalid int value: 'two'\n")
