"""File formats and end-to-end command behaviour."""

import numpy as np
import pytest

from wordbeam import (
    Alphabet,
    DataFormatError,
    PosteriorMatrix,
    RecognizerSim,
    extra_separator,
)
from wordbeam.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from wordbeam.files import (
    escape_alphabet,
    load_word_list,
    parse_matrix,
    read_matrix_file,
    serialize_matrix,
    unescape_alphabet,
    write_matrix_file,
)

from _support import random_matrix


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

    def test_row_sum_failure_becomes_data_error(self):
        with pytest.raises(DataFormatError):
            parse_matrix("1 3\nab\n0.9 0.9 0.9\n")

    def test_file_io(self, tmp_path):
        rng = np.random.default_rng(4)
        m = random_matrix(rng, 3, 4)
        path = tmp_path / "m.mat"
        write_matrix_file(path, m, "abc")
        symbols, parsed = read_matrix_file(path)
        assert symbols == "abc"
        assert np.array_equal(parsed.probs, m.probs)


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


@pytest.fixture
def synth_setup(tmp_path):
    """Noiseless matrices for 'advocaat' under the extra-separator scheme."""
    alphabet = Alphabet("acdotv", separator="|")
    scheme = extra_separator("|")
    sim = RecognizerSim(alphabet=alphabet, noise_level=0.0)
    paths = []
    for i, word in enumerate(["advocaat", "data", "toccata"]):
        m = sim.emit(word, scheme)
        path = tmp_path / f"w{i}.mat"
        write_matrix_file(path, m, alphabet.symbols)
        paths.append(str(path))
    dict_path = tmp_path / "dict.txt"
    dict_path.write_text("advocaat\ndata\ntoccata\n", encoding="utf-8")
    return paths, str(dict_path)


class TestDecodeCommand:
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
        from wordbeam import PrefixTree, decode, labeling_distribution
        from _support import constrained_argmax

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
            labeling_distribution(m, Alphabet("ab")), tree
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

    def test_unusable_configuration_exit_code(self, synth_setup, tmp_path, capsys):
        paths, _ = synth_setup
        empty_dict = tmp_path / "empty.txt"
        empty_dict.write_text("# nothing\n", encoding="utf-8")
        rc = main(
            ["decode", paths[0], "--dict", str(empty_dict), "--mode", "words",
             "--scheme", "plain"]
        )
        assert rc == EXIT_CONFIG


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
            (member / p.split("/")[-1]).write_bytes(open(p, "rb").read())
        rc = main(["ensemble", str(member), *args])
        assert rc == EXIT_OK
        voted = [
            line.split("\t")[1] for line in capsys.readouterr().out.strip().split("\n")
        ]
        assert voted == decode_labels

    def test_directory_voting(self, tmp_path, capsys):
        alphabet = Alphabet("acdotv", separator="|")
        scheme = extra_separator("|")
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("advocaat\ndata\ntoccata\n", encoding="utf-8")
        for k, noise in enumerate((0.25, 0.3, 0.35)):
            d = tmp_path / f"m{k}"
            d.mkdir()
            sim = RecognizerSim(alphabet=alphabet, noise_level=noise, seed=k)
            for i, word in enumerate(["advocaat", "toccata"]):
                write_matrix_file(d / f"s{i}.mat", sim.emit(word, scheme), alphabet.symbols)
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


class TestSynthCommand:
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


class TestUsage:
    def test_unknown_mode_exits_one(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["decode", "x.mat", "--mode", "viterbi"])
        assert err.value.code == EXIT_USAGE
