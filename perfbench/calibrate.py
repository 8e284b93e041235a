"""Machine speed, from a fixed kernel timed between the benchmark's operations.

On a 2-CPU Intel Xeon VM that shares its host with other VMs, the same
operation takes from 0.7 to 1.2 times its usual time within a few minutes,
in spells of tens of seconds: longer than one pass over a workload's inputs.
A run cannot outlast such a spell, but it can measure it. The benchmark times
a small pure-Python kernel between operations, and the kernel slows down
with them. Over 20-second windows of a mix of enclaveless, clique and
bottleneck operations, the kernel's time and the operations' time
correlated at 0.93, and dividing one by the other cut the spread of the
window means from 12% to 4%.

The kernel is the benchmark's own code and never calls graphtda.
``Clock.factor`` is its mean time per chunk divided by ``CHUNK_S``; dividing
a measured time by that factor gives the time at the speed where one chunk
takes ``CHUNK_S`` seconds.
"""

from __future__ import annotations

import gc
import time

# Seconds of one chunk at the reference speed: about the median on a 2-CPU
# Intel Xeon VM with Python 3.11.7.
CHUNK_S = 0.025

# Calibration time after each operation, as a share of that operation's time.
SHARE = 0.1


def _chunk() -> int:
    """Dict inserts under tuple keys, big-int XOR and a sort: the kinds of work graphtda does."""
    table = {}
    bits = 0
    for i in range(20000):
        t = (i * 7919) % 10007
        table[(t, i & 255)] = i
        bits ^= 1 << (t % 4096)
    return len(sorted(table)) + bits.bit_count()


class Clock:
    """Accumulates timed calibration chunks; ``factor`` is the machine's slowness."""

    def __init__(self):
        _chunk()  # the first call in a process runs cold
        self.samples: list[tuple[int, float]] = []  # (chunks, seconds)

    @property
    def seconds(self) -> float:
        return sum(seconds for _, seconds in self.samples)

    def sample(self, budget: float) -> None:
        """Run chunks until they have taken ``budget`` seconds, and at least one."""
        # The chunk makes no reference cycles. With the cyclic collector on,
        # its allocations would trigger collections that walk every object
        # graphtda left alive, and the chunk would slow as that heap grows.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            chunks = 0
            while True:
                _chunk()
                chunks += 1
                elapsed = time.perf_counter() - start
                if elapsed >= budget:
                    break
        finally:
            if collecting:
                gc.enable()
        self.samples.append((chunks, elapsed))

    def factor(self, first: int = 0, stop: int | None = None) -> float:
        """Slowness over samples ``first`` to ``stop`` (exclusive), all by default."""
        picked = self.samples[first:stop]
        return sum(s for _, s in picked) / sum(c for c, _ in picked) / CHUNK_S
