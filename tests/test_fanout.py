"""Fan-out over processes: the share plan, faults in input order, workers
that are always reaped, and outputs that do not depend on the process count."""

import errno
import os
import pickle
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wordbeam import Alphabet, RecognizerSim, cli, errors, fanout
from wordbeam.cli import EXIT_DATA, EXIT_OK, main
from wordbeam.files import write_matrix_file

from _support import FIRST_FAULTS


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count ``fanout.run`` plans for; no child may outlive the test."""

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(fanout, "available_cpus", lambda: n)

    yield set_cpus
    assert _no_child_left()


class TestAvailableCpus:
    """The affinity's CPUs, at most the cgroup v2 quota rounded up."""

    @pytest.mark.parametrize("text, want", [("max 100000\n", 4), ("150000 100000\n", 2),
                                            ("50000 100000\n", 1), (None, 4)],
                             ids=["no quota", "one and a half", "one half", "no file"])
    def test_a_quota_caps_the_cpus(self, tmp_path, monkeypatch, text, want):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        cpu_max = tmp_path / "cpu.max"
        if text is not None:
            cpu_max.write_text(text, encoding="ascii")
        assert fanout.available_cpus(str(cpu_max)) == want


class TestPlan:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(weights=st.lists(st.integers(0, 100), max_size=30), cpus=st.integers(1, 40))
    def test_shares_are_contiguous_non_empty_and_one_per_cpu(self, weights, cpus):
        shares = fanout.plan(weights, cpus)
        assert [i for share in shares for i in share] == list(range(len(weights)))
        assert len(shares) == max(1, min(cpus, len(weights)))
        assert all(shares) or not weights

    def test_an_over_large_cpu_count_is_capped_at_the_units(self):
        # No process is started to plan: the workers are the shares but one.
        shares = fanout.plan([3, 1, 4, 1, 5], 10**6)
        assert shares == [range(i, i + 1) for i in range(5)]
        assert _no_child_left()

    @pytest.mark.parametrize("weights, cpus, cuts", [
        ([1] * 5, 2, [3]),  # ties go to the first share
        ([5, 1, 1, 1, 1, 1], 2, [1]),
        ([1, 1, 1, 1, 1, 5], 2, [5]),
        ([1] * 9, 3, [3, 6]),
        ([0, 0, 0], 2, [1]),
    ])
    def test_cuts_fall_nearest_to_equal_weights(self, weights, cpus, cuts):
        assert [share.start for share in fanout.plan(weights, cpus)[1:]] == cuts


def _units(share):
    return [(os.getpid(), unit) for unit in share]


class TestRun:
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_results_come_back_in_input_order(self, cpus, n):
        cpus(n)
        out = fanout.run(list(range(7)), _units)
        assert [unit for _, unit in out] == list(range(7))
        assert len({pid for pid, _ in out}) == min(n, 7)
        assert len(fanout.worker_peaks) == min(n, 7) - 1
        assert all(0 < start <= peak for start, peak in fanout.worker_peaks)

    def test_a_worker_never_forks(self, cpus):
        cpus(4)

        def nested(share):
            return [len({pid for pid, _ in fanout.run(list(range(6)), _units)})]

        # Here the inner run has four processes; in the worker, one.
        assert fanout.run([0, 1], nested) == [4, 1]

    @pytest.mark.parametrize("bad", [(1,), (4,), (1, 4), (4, 5)],
                             ids=["first share", "second share", "both", "second twice"])
    def test_the_first_fault_in_input_order_is_raised(self, cpus, bad):
        cpus(2)

        def work(share):
            for unit in share:
                if unit in bad:
                    raise errors.DataFormatError(f"unit {unit}", path=f"{unit}.mat", line=unit)
            return list(share)

        with pytest.raises(errors.DataFormatError) as err:
            fanout.run(list(range(6)), work)
        assert (str(err.value), err.value.path, err.value.line) == (
            f"{bad[0]}.mat:{bad[0]}: unit {bad[0]}", f"{bad[0]}.mat", bad[0])

    def test_a_fault_here_kills_the_workers(self, cpus):
        cpus(3)

        def work(share):
            if 0 in share:
                raise KeyboardInterrupt
            time.sleep(60)
            return list(share)

        began = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            fanout.run([0, 1, 2], work)
        assert time.perf_counter() - began < 30

    def test_a_worker_that_exits_without_a_result_raises(self, cpus):
        cpus(3)

        def work(share):
            if 1 in share:
                os._exit(3)
            time.sleep(60 if 2 in share else 0)
            return list(share)

        began = time.perf_counter()
        with pytest.raises(RuntimeError, match="exited with code 3 without a result"):
            fanout.run([0, 1, 2], work)
        assert time.perf_counter() - began < 30

    def test_a_result_that_does_not_pickle_is_a_fault(self, cpus):
        cpus(2)
        with pytest.raises(RuntimeError, match="cannot be sent back"):
            fanout.run([0, 1], lambda share: [lambda: share])


def _open_fds() -> list[str]:
    return sorted(os.listdir("/dev/fd"))


@pytest.fixture
def forks(monkeypatch):
    """Let the first ``n`` forks succeed and fail the others as a process
    limit does."""
    fork = os.fork

    def set_forks(n: int) -> None:
        calls = []

        def limited():
            calls.append(None)
            if len(calls) > n:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", limited)

    return set_forks


class TestAFailedFork:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_the_shares_not_forked_run_here(self, cpus, forks, n):
        cpus(4)
        forks(n)
        fds = _open_fds()
        out = fanout.run(list(range(8)), _units)
        assert [unit for _, unit in out] == list(range(8))
        assert {pid for pid, unit in out if unit < 2 or unit >= 2 * (n + 1)} == {os.getpid()}
        assert len({pid for pid, _ in out}) == n + 1
        assert len(fanout.worker_peaks) == n
        assert _open_fds() == fds

    @pytest.mark.parametrize("bad", [(5,), (3, 5), (1, 5)],
                             ids=["here after the worker", "worker first", "here first"])
    def test_the_first_fault_in_input_order_is_raised(self, cpus, forks, bad):
        # Shares [0, 1], [2, 3] and [4, 5]: the second is forked, the third is not.
        cpus(3)
        forks(1)

        def work(share):
            for unit in share:
                if unit in bad:
                    raise errors.DataFormatError(f"unit {unit}")
            return list(share)

        fds = _open_fds()
        with pytest.raises(errors.DataFormatError, match=f"unit {bad[0]}"):
            fanout.run(list(range(6)), work)
        assert _open_fds() == fds

    def test_a_warning_of_threads_at_the_fork_is_no_fault(self, cpus, monkeypatch):
        # Python 3.12 and later warn in the parent of a fork while the
        # process has other threads, after the child is running.
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn("This process is multi-threaded, use of fork() may lead "
                              "to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        cpus(2)
        out = fanout.run([0, 1], _units)
        assert [unit for _, unit in out] == [0, 1]
        assert len({pid for pid, _ in out}) == 2


@pytest.mark.parametrize("error", [
    errors.WordbeamError("base"),
    errors.InputValidationError("width must be at least 1"),
    errors.ConfigurationError("nothing to decode"),
    errors.UnreadableFileError("cannot read x.mat: No such file or directory"),
    errors.UnwritablePathError("cannot write out/: Permission denied"),
    errors.DataFormatError("malformed float", path="m.mat", line=3),
    errors.DataFormatError("misaligned", path="member1"),
    errors.DataFormatError("bare"),
], ids=lambda e: type(e).__name__)
def test_package_errors_survive_a_pickle_round_trip(error):
    # Worker faults come back to the parent pickled.
    back = pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
    assert type(back) is type(error)
    assert str(back) == str(error)
    assert (getattr(back, "path", None), getattr(back, "line", None)) == (
        getattr(error, "path", None), getattr(error, "line", None))


WORDS = ["bad", "cab", "dab", "abc", "cad", "bead", "ace"]


@pytest.fixture
def matrix_files(tmp_path, monkeypatch):
    """Eight noisy matrix files of each coding, read two files to a group."""
    monkeypatch.setattr(cli, "READ_FILES", 2)
    (tmp_path / "dict.txt").write_text("\n".join(WORDS) + "\n", encoding="utf-8")
    schemes = {"plain": Alphabet("abcde"), "extrasep": Alphabet("abcde", "|")}
    return ({scheme: _write_files(tmp_path / scheme, alphabet, 8)
             for scheme, alphabet in schemes.items()}, str(tmp_path / "dict.txt"))


def _write_files(folder: Path, alphabet: Alphabet, count: int) -> list[str]:
    """The paths of ``count`` noisy matrix files of ``WORDS`` in ``folder``."""
    folder.mkdir(exist_ok=True)
    paths = []
    for i in range(count):
        sim = RecognizerSim(alphabet, noise_level=0.5, seed=i)
        write_matrix_file(folder / f"m{i}.mat", sim.emit(WORDS[i % len(WORDS)]), alphabet.symbols)
        paths.append(str(folder / f"m{i}.mat"))
    return paths


def _outputs(capsys, cpus, argv) -> list[str]:
    """``main(argv)``'s stdout with one, two and three processes."""
    outs = []
    for n in (1, 2, 3):
        cpus(n)
        fanout.worker_peaks.clear()
        assert main(argv) == EXIT_OK
        assert len(fanout.worker_peaks) == n - 1
        outs.append(capsys.readouterr().out)
    return outs


class TestOutputsDoNotDependOnTheProcessCount:
    @pytest.mark.parametrize("mode", ["bestpath", "words", "ngrams", "ngrams-forecast",
                                      "ngrams-forecast-sample"])
    @pytest.mark.parametrize("scheme", ["plain", "extrasep"])
    def test_decode(self, matrix_files, capsys, cpus, mode, scheme):
        files, dict_path = matrix_files
        outs = _outputs(capsys, cpus, ["decode", *files[scheme], "--mode", mode,
                                       "--scheme", scheme, "--dict", dict_path, "--width", "4",
                                       "--sample-size", "3"])
        assert outs[0].count("\n") == 8
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_ensemble_over_directories(self, matrix_files, capsys, cpus, tmp_path):
        files, dict_path = matrix_files
        members = []
        for k in range(3):
            member = tmp_path / f"member{k}"
            member.mkdir()
            for path in files["extrasep"][k:] + files["extrasep"][:k]:
                (member / f"s{len(list(member.iterdir()))}.mat").write_bytes(
                    Path(path).read_bytes())
            members.append(str(member))
        outs = _outputs(capsys, cpus, ["ensemble", *members, "--mode", "words", "--scheme",
                                       "extrasep", "--dict", dict_path, "--width", "4"])
        assert outs[0].count("\n") == 8
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_reproduce_trends(self, capsys, cpus):
        outs = _outputs(capsys, cpus, ["reproduce-trends", "--seeds", "3", "--n-words", "40",
                                       "--members", "5"])
        assert outs[1] == outs[0] and outs[2] == outs[0]


@pytest.fixture
def call_spy(monkeypatch):
    """The CLI's ``decode`` calls, as ``("decode", matrices)``, and the forks
    of ``fanout.run``, as ``"fork"``, in the order this process makes them."""
    events = []
    decode, fork = cli.decode, fanout._fork

    def spy_decode(matrices, *args):
        events.append(("decode", len(matrices)))
        return decode(matrices, *args)

    def spy_fork(*args):
        events.append("fork")
        return fork(*args)

    monkeypatch.setattr(cli, "decode", spy_decode)
    monkeypatch.setattr(fanout, "_fork", spy_fork)
    return events


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_first_file_alone_is_decoded_before_any_fork(matrix_files, capsys, cpus, call_spy,
                                                         n):
    # Eight files of one alphabet, two to a read group: the first file is
    # decoded, then the other seven are split over the CPUs.
    files, dict_path = matrix_files
    cpus(n)
    assert main(["decode", *files["plain"], "--mode", "words", "--dict", dict_path]) == EXIT_OK
    assert call_spy[:n] == [("decode", 1)] + ["fork"] * (n - 1)
    assert call_spy.count("fork") == n - 1
    capsys.readouterr()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_files_of_one_read_group_are_one_batch_in_one_process(tmp_path, capsys, cpus, call_spy,
                                                              n):
    (tmp_path / "dict.txt").write_text("\n".join(WORDS) + "\n", encoding="utf-8")
    paths = _write_files(tmp_path, Alphabet("abcde"), 15)
    cpus(n)
    assert main(["decode", *paths, "--mode", "ngrams", "--dict", str(tmp_path / "dict.txt"),
                 "--width", "4"]) == EXIT_OK
    assert call_spy == [("decode", 15)]
    assert capsys.readouterr().out.count("\n") == 15


class TestFirstFaultInFileOrder:
    """A fault in a matrix file is reported as without workers, whether it
    lies in the first file, which is decoded before any fork, in the rest of
    the first read group, which begins the share this process decodes, in
    both parts of that group, later in that share, in the share a worker
    decodes, or in both shares."""

    WHERE = pytest.mark.parametrize("where", [(0,), (1,), (0, 1), (3,), (8,), (3, 8)],
                                    ids=["first file", "rest of the first group",
                                         "first group", "first share", "second share",
                                         "both shares"])

    @staticmethod
    def _files(tmp_path, monkeypatch, faults: dict[int, str]) -> list[str]:
        """Ten files, read two to a group, the faulty ones with ``faults``;
        after the first file, the rest of its group and the four groups
        after it split into shares of three units and two."""
        monkeypatch.setattr(cli, "READ_FILES", 2)
        paths = []
        for i in range(10):
            path = tmp_path / f"{i}.mat"
            if i in faults:
                path.write_text(faults[i], encoding="utf-8")
            else:
                sim = RecognizerSim(Alphabet("abc"), seed=i)
                write_matrix_file(path, sim.emit("cab"), "abc")
            paths.append(str(path))
        sizes = [size for _, size in cli._read_groups(paths)]
        sizes[0] -= Path(paths[0]).stat().st_size
        assert [list(s) for s in fanout.plan(sizes, 2)] == [[0, 1, 2], [3, 4]]
        return paths

    @pytest.mark.parametrize("text, message", FIRST_FAULTS)
    @WHERE
    def test_read_fault(self, tmp_path, capsys, cpus, monkeypatch, text, message, where):
        paths = self._files(tmp_path, monkeypatch, {i: text for i in where})
        cpus(2)
        assert main(["decode", *paths, "--mode", "bestpath"]) == EXIT_DATA
        want = message.replace("m.mat", paths[where[0]])
        assert capsys.readouterr() == ("", f"wordbeam: data format error: {want}\n")

    @WHERE
    def test_set_up_fault(self, tmp_path, capsys, cpus, monkeypatch, where):
        # An alphabet that cannot spell the dictionary's "cab".
        paths = self._files(tmp_path, monkeypatch,
                            {i: "1 3\nab\n0.25 0.25 0.5\n" for i in where})
        dict_path = tmp_path / "dict.txt"
        dict_path.write_text("a\ncab\n", encoding="utf-8")
        cpus(2)
        assert main(["decode", *paths, "--mode", "words", "--dict", str(dict_path)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"wordbeam: data format error: {dict_path}:2: word 'cab' has character 'c', "
            "which is not a word character of the matrix alphabet 'ab'\n")
