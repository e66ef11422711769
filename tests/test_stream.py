"""NormalStream returns its generator's own standard normals, whoever
draws them, and its helper process never outlives it."""

import os
import select
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from splitsim.numeric import make_rng
from splitsim.stream import NormalStream

_BLOCK = NormalStream.BLOCK


def _draw_chunked(stream, chooser, total: int) -> np.ndarray:
    """`total` values from `stream` in random chunks: small ints, (n, d)
    tuples and draws that span several blocks; each keeps its shape."""
    parts, n = [], 0
    while n < total:
        kind = chooser.integers(3)
        if kind == 0:
            size = int(chooser.integers(1, 500))
        elif kind == 1:
            size = (int(chooser.integers(1, 300)), int(chooser.integers(1, 400)))
        else:
            size = int(chooser.integers(_BLOCK, 4 * _BLOCK))
        if np.prod(size) > total - n:
            size = total - n
        part = stream.standard_normal(size)
        assert part.shape == np.empty(size).shape and part.dtype == np.float64
        parts.append(part.reshape(-1))
        n += part.size
    return np.concatenate(parts)


@pytest.mark.parametrize("chunking", range(3))
def test_normal_stream_matches_its_generator(chunking):
    want = make_rng(8, chunking).standard_normal(40 * _BLOCK)
    with NormalStream(make_rng(8, chunking)) as stream:
        got = _draw_chunked(stream, np.random.default_rng(chunking), want.size)
    assert np.array_equal(got, want)


def test_normal_stream_matches_while_its_helper_is_stopped():
    # stopped, the helper delivers nothing and the parent draws each
    # block itself; resumed, it skips to the parent's frontier and
    # delivers the blocks after it
    want = make_rng(9).standard_normal(60 * _BLOCK)
    chooser = np.random.default_rng(9)
    with NormalStream(make_rng(9)) as stream:
        parts = [_draw_chunked(stream, chooser, 10 * _BLOCK)]
        os.kill(stream.pid, signal.SIGSTOP)
        parts.append(_draw_chunked(stream, chooser, 20 * _BLOCK))
        assert stream.parent_blocks > 0
        os.kill(stream.pid, signal.SIGCONT)
        time.sleep(0.5)
        delivered = stream.helper_blocks
        parts.append(_draw_chunked(stream, chooser, 30 * _BLOCK))
        assert stream.helper_blocks > delivered
    assert np.array_equal(np.concatenate(parts), want)


def test_normal_stream_matches_after_its_helper_dies():
    # a helper that dies (say, of a ^C) leaves the parent to draw the rest
    want = make_rng(10).standard_normal(20 * _BLOCK)
    chooser = np.random.default_rng(10)
    with NormalStream(make_rng(10)) as stream:
        parts = [_draw_chunked(stream, chooser, 5 * _BLOCK)]
        os.kill(stream.pid, signal.SIGKILL)
        parts.append(_draw_chunked(stream, chooser, 15 * _BLOCK))
        assert stream.parent_blocks > 0
    assert np.array_equal(np.concatenate(parts), want)


def test_normal_stream_close_reaps_its_helper():
    stream = NormalStream(make_rng(1))
    pid = stream.pid
    stream.standard_normal(3 * _BLOCK)
    stream.close()
    stream.close()  # idempotent
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_normal_stream_helper_exits_with_its_parent(module_env, tmp_path):
    # the child interpreter exits without close(), once its helper has
    # filled the ring and waits for the parent; the helper holds the
    # inherited write end of `keep` until it exits, so the read end sees
    # end-of-file once both processes are gone
    keep_r, keep_w = os.pipe()
    script = (
        "import os, time\n"
        "from splitsim.numeric import make_rng\n"
        "from splitsim.stream import NormalStream\n"
        "stream = NormalStream(make_rng(2))\n"
        "stream.standard_normal(10)\n"
        "print(stream.pid, flush=True)\n"
        "time.sleep(0.2)\n"
        "os._exit(0)\n"
    )
    # the output goes to a file: the helper would hold a pipe open
    out = tmp_path / "out.txt"
    try:
        with open(out, "w") as fh:
            proc = subprocess.run([sys.executable, "-c", script], env=module_env,
                                  pass_fds=(keep_w,), stdout=fh, stderr=fh, timeout=60)
        os.close(keep_w)
        keep_w = None
        assert proc.returncode == 0, out.read_text()
        assert int(out.read_text()) > 0
        readable, _, _ = select.select([keep_r], [], [], 1.0)
        assert readable and os.read(keep_r, 1) == b"", "the helper outlived its parent"
    finally:
        for fd in (keep_r, keep_w):
            if fd is not None:
                os.close(fd)
