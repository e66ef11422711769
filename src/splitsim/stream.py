"""`NormalStream`: a generator's float32 standard normals, drawn ahead
in a forked helper process.

numpy's float32 standard-normal sequence does not depend on how it is
cut into calls (a normal takes a varying number of 32-bit halves of the
generator's 64-bit outputs, and the state carries a spare half across
calls), so the helper fills fixed blocks of it without knowing any
draw's shape, and the values a caller gets are the generator's own,
bit for bit.  The mechanisms fit, solve and certify in float64, but
draw and add their noise in float32: with the draw off the parent,
what a run pays for its noise is the bytes it copies out of the ring
and adds, and float32 halves them.  The module stands apart from
`numeric` because a run's set-up imports `numeric` in every fresh
interpreter (and compiles it there when no bytecode is cached); this
module's code and imports would add to that time.
"""

from __future__ import annotations

import gc
import mmap
import os
import select
import signal

import numpy as np

__all__ = ["NormalStream"]

# An SFC64 state as six words: its four state words, has_uint32, uinteger.
_STATE_WORDS = 6
_INDEX = 8  # bytes of a block index in a message
_SLOTS = 4  # blocks in a NormalStream's ring
_WAIT_S = 0.0005  # how long a late block is waited for, once per stall


def _read_state(bit_generator, out: np.ndarray) -> None:
    state = bit_generator.state
    out[:4] = state["state"]["state"]
    out[4:] = state["has_uint32"], state["uinteger"]


def _write_state(bit_generator, words: np.ndarray) -> None:
    bit_generator.state = {
        "bit_generator": "SFC64",
        "state": {"state": words[:4].copy()},
        "has_uint32": int(words[4]),
        "uinteger": int(words[5]),
    }


class NormalStream:
    """`rng`'s float32 standard normals, drawn ahead in a forked helper
    process.

    The helper fills a ring of shared blocks of BLOCK float32 values
    each with `rng.standard_normal(out=block, dtype=np.float32)`, in
    sequence order, and records the generator's state after each block.
    `standard_normal(size, dtype=np.float32)` returns the next values of
    `rng`'s own float32 sequence, copied from the ring; a run's bytes
    are the same as with `rng` itself.  A block the helper has not
    finished is waited for at most 0.5 ms, once per stall; after that
    the caller draws it itself, from the state at its start and straight
    into the arrays it returns, and the helper skips ahead past it.  A
    slow or stopped helper thus costs about what an in-process draw
    does, and never changes a value.

    The stream takes `rng` over: draw from it only through the stream,
    whose state it leaves unspecified.  `close()` (or leaving a `with`
    block) kills and reaps the helper; a helper whose parent exits
    without it sees its control pipe close and exits too.
    `helper_blocks` and `parent_blocks` count the blocks each side
    supplied.
    """

    BLOCK = 1 << 16  # normals per block: four blocks are 1 MB

    def __init__(self, rng: np.random.Generator):
        if not isinstance(rng.bit_generator, np.random.SFC64):
            raise TypeError("NormalStream needs an SFC64 generator, as numeric.make_rng builds")
        self._rng = rng
        n_ring = _SLOTS * self.BLOCK * 4
        self._mm = mmap.mmap(-1, n_ring + _SLOTS * _STATE_WORDS * 8, flags=mmap.MAP_SHARED)
        self._ring = np.frombuffer(self._mm, np.float32, _SLOTS * self.BLOCK).reshape(
            _SLOTS, self.BLOCK
        )
        self._states = np.frombuffer(
            self._mm, np.uint64, _SLOTS * _STATE_WORDS, offset=n_ring
        ).reshape(_SLOTS, _STATE_WORDS)
        # _state is block self._next's start, except while the parent draws
        # a block itself (_current None): then it is that block's start, and
        # the generator holds the position; _current is the block's ring slot
        self._state = np.empty(_STATE_WORDS, np.uint64)
        _read_state(rng.bit_generator, self._state)
        self._current = None
        self._pos, self._next = self.BLOCK, 0  # values taken from the current block
        self._ready = -1  # the last block the helper announced
        self._stalled = False
        self.helper_blocks = self.parent_blocks = 0

        ctrl_r, self._ctrl = os.pipe()
        self._done, ready_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (ctrl_r, self._ctrl, self._done, ready_w):
                os.close(fd)
            raise
        if self.pid == 0:  # the helper: never returns
            status = 1
            try:
                os.close(self._ctrl)
                os.close(self._done)
                # the parent's unreachable objects are the parent's to finalize
                gc.disable()
                _fill(rng, self._ring, self._states, ctrl_r, ready_w)
                status = 0
            finally:
                os._exit(status)
        os.close(ctrl_r)
        os.close(ready_w)
        os.set_blocking(self._ctrl, False)
        os.set_blocking(self._done, False)

    def standard_normal(self, size, dtype) -> np.ndarray:
        """The next values of the sequence as a new float32 array of shape
        `size` (an int or a tuple), as `rng.standard_normal(size, dtype)`;
        `dtype` must be float32, the one dtype the stream draws."""
        if np.dtype(dtype) != np.float32:
            raise ValueError(f"a NormalStream draws float32 only, not {np.dtype(dtype)}")
        out = np.empty(size, np.float32)
        flat = out.reshape(-1)
        done = 0
        while done < flat.size:
            if self._pos == self.BLOCK:
                self._advance()
            take = min(self.BLOCK - self._pos, flat.size - done)
            dest = flat[done : done + take]
            if self._current is None:
                self._rng.standard_normal(out=dest, dtype=np.float32)
            else:
                dest[...] = self._current[self._pos : self._pos + take]
            self._pos += take
            done += take
        return out

    def _advance(self) -> None:
        """Make block self._next current: the helper's, if it is ready in
        time, otherwise one the parent draws."""
        j = self._next
        if self._current is None and j:  # the parent's generator is at block j's start
            _read_state(self._rng.bit_generator, self._state)
        if j:  # blocks before j are free, and self._state is block j's start
            message = np.empty(1 + _STATE_WORDS, np.uint64)
            message[0], message[1:] = j, self._state
            try:
                os.write(self._ctrl, message.tobytes())
            except (BlockingIOError, BrokenPipeError):
                pass  # a later frontier supersedes this one; a gone helper needs none
        if self._ready < j:
            self._poll(0.0)
        if self._ready < j and not self._stalled:
            self._poll(_WAIT_S)
        if self._ready >= j:
            slot = j % _SLOTS
            self._current = self._ring[slot]
            self._state[:] = self._states[slot]
            self._stalled = False
            self.helper_blocks += 1
        else:
            if self._current is not None:  # the generator is not at block j's start
                _write_state(self._rng.bit_generator, self._state)
            self._current = None
            self._stalled = True
            self.parent_blocks += 1
        self._next, self._pos = j + 1, 0

    def _poll(self, timeout: float) -> None:
        """Read the helper's announcements, waiting up to `timeout` for one."""
        if self._done is None:  # the helper has exited
            return
        if timeout:
            select.select([self._done], [], [], timeout)
        try:
            data = os.read(self._done, 64 * _INDEX)
        except BlockingIOError:
            return
        if not data:
            os.close(self._done)
            self._done = None
            return
        # announcements rise, and a pipe passes each one whole
        self._ready = int.from_bytes(data[-_INDEX:], "little")

    def close(self) -> None:
        """Kill and reap the helper and free the ring; idempotent."""
        if self.pid is None:
            return
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid = None
        for fd in (self._ctrl, self._done):
            if fd is not None:
                os.close(fd)
        self._current = self._ring = self._states = None
        self._mm.close()

    def __enter__(self) -> NormalStream:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _fill(rng, ring, states, ctrl: int, ready: int) -> None:
    """The helper's loop.  Fills block k into slot k % len(ring) once the
    parent has freed block k - len(ring), records the state after it and
    announces k.  A parent message is a frontier: blocks before it are
    free, and a helper behind it jumps there with the state it carries.
    Returns when the parent closes its end of `ctrl` or of `ready`."""
    n_slots = ring.shape[0]
    message = 8 * (1 + _STATE_WORDS)
    os.set_blocking(ctrl, False)
    k = frontier = 0
    while True:
        if k >= frontier + n_slots:  # the ring is full: wait for the parent
            select.select([ctrl], [], [])
        try:
            data = os.read(ctrl, 64 * message)
        except BlockingIOError:
            data = None
        if data == b"":
            return
        if data:
            last = np.frombuffer(data[-message:], np.uint64)
            frontier = int(last[0])
            if k < frontier:
                k = frontier
                _write_state(rng.bit_generator, last[1:])
        if k >= frontier + n_slots:
            continue
        slot = k % n_slots
        rng.standard_normal(out=ring[slot], dtype=np.float32)
        _read_state(rng.bit_generator, states[slot])
        try:
            os.write(ready, k.to_bytes(_INDEX, "little"))
        except BrokenPipeError:
            return
        k += 1
