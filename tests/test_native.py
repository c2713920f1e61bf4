"""The compiled module's entry points check their buffers before any
kernel runs and take the arguments of the fake module in ``twins``, its
build cache is keyed to the interpreter, and the package's SHA-256 is
hashlib's."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lpplab import _native, lattice, make_lattice_field, make_poisson_cloud
from lpplab.model import Region

import twins


def entry_calls():
    """{entry point: (arguments it accepts, indices of the buffers it
    writes, indices of the buffers whose size the others fix)}."""
    f = make_lattice_field(1, 5, 6, "geometric")
    w = f.weights[::-1, ::-1]  # a reflected view: negative strides
    B = lattice.backward_values(f, (4, 5))
    cloud = make_poisson_cloud(0, 2.0, Region(-2, 2, 0, 4))
    tu, tv = np.array([1.0, 2.0, 4.0]), np.array([3.0, 2.0, 4.0])
    n = len(cloud)
    return {
        "pile_counts": ((np.array([0.5, 0.25, 0.75]), 2, np.array([1, 3]), np.array([0.5, 1.0]),
                         np.empty(6), np.empty(2, np.int64), np.empty((2, 2), np.int64)),
                        {4, 5, 6}, {3, 4, 5, 6}),
        "row_pass": ((cloud.xs, cloud.ts, 0, n, 0.0, 0.0, 4.0, 4.0, tu, tv, np.empty(2 * n),
                      np.empty((3, 2), np.int64)), {10, 11}, {1, 9, 10, 11}),
        "path_table": ((w, 1, 2, np.array([[4, 2], [3, 4], [0, 5]]), np.empty((6, 7))), {4}, {4}),
        "pair_sweep": ((w, 0, 1, 0, 1, 7, 0, np.array([[1, 3], [2, 5]]), np.empty((2, 7, 7)),
                        np.empty(7)), {8, 9}, {8, 9}),
        "walk": ((B, f.weights, 0, 0, 4, 5, 1, np.empty((2, 10), np.int64)), {7}, {0, 7}),
        "philox_uniforms": ((3, 4, np.empty(9)), {2}, set()),
    }


def broken(arg, writes):
    """(what, replacement) for a buffer argument: another element type, one
    dimension more, and a read-only copy of an output."""
    other = np.int64 if arg.dtype == np.float64 else np.float64
    yield "same width, other type", np.ascontiguousarray(arg, dtype=other)
    yield "narrower type", arg.astype(np.float32 if arg.dtype == np.float64 else np.int32)
    yield "one dimension more", arg[np.newaxis]
    if writes:
        frozen = arg.copy()
        frozen.flags.writeable = False
        yield "read-only output", frozen


def shorter(arg):
    """A buffer like arg, one entry shorter on its last axis."""
    return np.zeros(arg.shape[:-1] + (arg.shape[-1] - 1,), dtype=arg.dtype)


def assert_refused(name, args, error=(TypeError, ValueError), what=""):
    """The call raises before its kernel runs: no writable buffer changes."""
    buffers = [a for a in args if isinstance(a, np.ndarray) and a.flags.writeable]
    before = [a.tobytes() for a in buffers]
    with pytest.raises(error):
        getattr(_native.library(), name)(*args)
        pytest.fail(f"{name} took {what}")
    assert [a.tobytes() for a in buffers] == before, (name, what)


@pytest.mark.parametrize("name", list(entry_calls()))
def test_entry_points_accept_their_buffers(name):
    """The compiled module and the fake one in ``twins`` both take the
    call, so neither can drop or add an argument alone."""
    assert _native.library() is not None
    getattr(_native.library(), name)(*entry_calls()[name][0])
    getattr(twins.twin_kernels(), name)(*entry_calls()[name][0])


@pytest.mark.parametrize("name", list(entry_calls()))
def test_entry_points_refuse_a_wrong_buffer_before_the_kernel(name):
    """Every buffer argument, given the wrong element type, the wrong number
    of dimensions, as a read-only output, or one entry too short where the
    other arguments fix its size, raises TypeError or ValueError and
    leaves every output as it was."""
    assert _native.library() is not None
    args, writes, sized = entry_calls()[name]
    refused = 0
    for k, arg in enumerate(args):
        if not isinstance(arg, np.ndarray):
            continue
        cases = list(broken(arg, k in writes))
        if k in sized:
            cases.append(("too short", shorter(arg)))
        for what, bad in cases:
            assert_refused(name, args[:k] + (bad,) + args[k + 1:], what=f"{what} at {k}")
            refused += 1
    assert refused >= 3 * sum(isinstance(a, np.ndarray) for a in args)


def test_entry_points_refuse_bad_counts_cells_and_indices():
    calls = entry_calls()
    for name, (args, _, _) in calls.items():
        assert_refused(name, args[:-1], TypeError)  # one argument short
    pile = calls["pile_counts"][0]
    assert_refused("pile_counts", pile[:1] + (-1,) + pile[2:])
    assert_refused("pile_counts", pile[:1] + (3,) + pile[2:])  # rows fit k = 2 only
    row = calls["row_pass"][0]
    n = row[0].size
    # the slab is a range 0 <= lo <= hi <= N of integer bounds; the scratch
    # rows hold 2 (N + 2) slots, more than any range tried needs
    roomy = row[:10] + (np.empty(2 * (n + 2)),) + row[11:]
    for lo, hi in ((-1, n), (0, n + 1), (2, 1)):
        assert_refused("row_pass", roomy[:2] + (lo, hi) + roomy[4:], what=str((lo, hi)))
    assert_refused("row_pass", row[:2] + (0.0, n) + row[4:], TypeError)
    assert_refused("row_pass", row[:4] + ("x",) + row[5:], TypeError)
    table = calls["path_table"][0]
    for corner in ((5, 0), (0, 6), (-1, 0)):
        assert_refused("path_table", table[:1] + corner + table[3:])
    assert_refused("path_table", table[:1] + (1.0, 2) + table[3:], TypeError)
    # read cells on the grid, in a (k, 2) buffer
    for cell in ((5, 0), (0, 6), (-1, 2), (2, -1)):
        reads = np.array([[4, 2], cell])
        assert_refused("path_table", table[:3] + (reads,) + table[4:], what=str(cell))
    assert_refused("path_table", table[:3] + (np.zeros((2, 3), np.int64),) + table[4:])
    pair = calls["pair_sweep"][0]
    assert_refused("pair_sweep", pair[:3] + (5, 1) + pair[5:])
    # read states are column pairs 0 <= j1 < j2 < cols, in a (k, 2) buffer
    for state in ((-1, 2), (2, 6), (3, 3), (4, 2)):
        reads = np.array([[1, 3], state])
        assert_refused("pair_sweep", pair[:7] + (reads,) + pair[8:], what=str(state))
    assert_refused("pair_sweep", pair[:7] + (np.zeros((2, 1), np.int64),) + pair[8:])
    assert_refused("pair_sweep", pair[:8] + (np.empty((0, 7, 7)),) + pair[9:])
    walk = calls["walk"][0]
    for cells in ((0, 0, 5, 5), (1, 0, 0, 5), (0, 3, 4, 2)):
        assert_refused("walk", walk[:2] + cells + walk[6:])


def test_build_cache_is_keyed_to_the_interpreter(monkeypatch, tmp_path):
    """The cache file changes with the extension suffix and with the
    include directory, so two interpreters never load each other's build."""
    here = _native._build()
    monkeypatch.setattr(_native, "_CACHE", tmp_path / "cache")
    assert _native._build().name == here.name
    monkeypatch.setattr(_native, "_SUFFIX", ".cpython-399-x86_64-linux-gnu.so")
    other_suffix = _native._build()
    monkeypatch.undo()
    monkeypatch.setattr(_native, "_CACHE", tmp_path / "cache")
    headers = tmp_path / "include"
    headers.symlink_to(_native._include(), target_is_directory=True)
    monkeypatch.setattr(_native, "_include", lambda: str(headers))
    other_include = _native._build()
    assert other_suffix.name.endswith(".cpython-399-x86_64-linux-gnu.so")
    assert len({here.name, other_suffix.name, other_include.name}) == 3
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == sorted(
        [here.name, other_suffix.name, other_include.name])


def test_include_directory_is_sysconfigs(monkeypatch, tmp_path):
    """The include directory is sysconfig's, found under ``sys.base_prefix``
    here and asked of sysconfig when no ``Python.h`` is there."""
    import sysconfig
    want = sysconfig.get_path("include")
    assert _native._include() == want
    monkeypatch.setattr(sys, "base_prefix", str(tmp_path))
    assert _native._include() == want


def test_a_build_removes_the_builds_it_supersedes(monkeypatch, tmp_path):
    """A build deletes the builds of its own environment and suffix made
    from another source, and the single-hash and ``_patience-*`` names of
    earlier cache layouts; builds for another environment or suffix stay."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(_native, "_CACHE", cache)
    built = _native._build()
    source, env = built.name[len("_kernels-"):-len(_native._SUFFIX)].split("-")
    built.unlink()
    stale = [f"_kernels-{'0' * 16}-{env}{_native._SUFFIX}",
             f"_kernels-{'1' * 16}-{env}{_native._SUFFIX}", "_patience-695bcf4752b31dbc.so",
             "_kernels-17b4411ec11d8506.so", f"_kernels-2c1f9634e010d140{_native._SUFFIX}"]
    kept = [f"_kernels-{'0' * 16}-{'f' * 16}{_native._SUFFIX}",  # another include directory
            f"_kernels-{source}-{'f' * 16}{_native._SUFFIX}",
            f"_kernels-{'0' * 16}-{env}.cpython-399-x86_64-linux-gnu.so",  # another interpreter
            f"_kernels-{'0' * 16}-{env}.so"]
    for name in stale + kept:
        (cache / name).write_bytes(b"")
    assert _native._build() == built
    assert sorted(p.name for p in cache.iterdir()) == sorted(kept + [built.name])
    assert _native._build() == built  # a cached build prunes nothing
    assert len(list(cache.iterdir())) == len(kept) + 1


def test_sha256_is_hashlibs_on_every_length_to_300():
    """Every length from 0 to 300 bytes, whole and in two updates: the
    55/56 and 119/120-byte edges change the padding's block count, and
    63/64 and 127/128 the message's."""
    for length in range(301):
        data = bytes((7 * i + length) % 256 for i in range(length))
        want = hashlib.sha256(data).hexdigest()
        assert _native.sha256(data).hexdigest() == want, length
        h = _native.sha256()
        h.update(data[:length // 3])
        h.update(data[length // 3:])
        assert h.hexdigest() == want, length


def test_sha256_of_a_multi_mib_buffer_is_hashlibs():
    data = np.random.default_rng(5).bytes(5 * 2 ** 20 + 77)
    assert _native.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_sha256_falls_back_to_hashlib_without_the_builtin_module():
    """On an interpreter built without ``_sha2`` and ``_sha256`` the
    digests come from hashlib, and are the same."""
    code = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from lpplab import _native\n"
            "h = _native.sha256(b'abc'); h.update(bytes(range(256)) * 300)\n"
            "print(type(h).__module__, 'hashlib' in sys.modules, h.hexdigest())")
    env = dict(os.environ, PYTHONPATH=str(Path(_native.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    module, loaded, digest = done.stdout.split()
    assert module not in ("_sha2", "_sha256") and loaded == "True"
    assert digest == hashlib.sha256(b"abc" + bytes(range(256)) * 300).hexdigest()


def test_build_cache_name_is_the_hashlib_key():
    """The cache file is named by the first 16 hex digits of hashlib's
    SHA-256 of the source and of the build environment, so a build made
    with the hashlib key is reused."""
    include = _native._include()
    key = [hashlib.sha256(part).hexdigest()[:16] for part in
           (_native._SOURCE.read_bytes(), "\0".join([*_native._BUILD, include]).encode())]
    assert _native._build().name == f"_kernels-{key[0]}-{key[1]}{_native._SUFFIX}"
