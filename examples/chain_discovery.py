#!/usr/bin/env python
"""Watch Snake learn the LPS chain of strides (the paper's Fig 8).

Feeds the LPS trace to a bare SnakePrefetcher (no timing model) and dumps
the Head/Tail tables as training progresses — you can see the exact
(-400, +40400, -400) chain from Fig 8 get detected, promoted after three
warps, and finally used to generate multi-hop prefetch requests.

Run with::

    python examples/chain_discovery.py
"""

from repro.core.snake import SnakePrefetcher
from repro.workloads import build_kernel


def dump_tail(snake: SnakePrefetcher) -> None:
    print("    %-8s %-8s %12s %6s %5s %10s %6s" % (
        "PC1", "PC2", "inter-thread", "T1", "pop", "intra", "T2"))
    for entry in snake.tail.entries():
        print("    %-8s %-8s %12d %6s %5d %10s %6s" % (
            hex(entry.pc1), hex(entry.pc2), entry.inter_thread_stride,
            entry.t1.value, entry.popcount,
            entry.intra_stride if entry.intra_stride is not None else "-",
            entry.t2.value))


def main() -> None:
    kernel = build_kernel("lps", scale=0.5, seed=7)
    snake = SnakePrefetcher()

    # interleave the first few warps round-robin, like a fair scheduler
    warps = kernel.all_warps()[:6]
    streams = [iter(w.loads()) for w in warps]
    step = 0
    live = list(range(len(streams)))
    while live:
        for idx in list(live):
            instr = next(streams[idx], None)
            if instr is None:
                live.remove(idx)
                continue
            warp_id = warps[idx].warp_id
            requests = snake.observe(
                warp_id, instr.pc, instr.base_addr, now=step
            )
            step += 1
            if step in (8, 16, 48):
                print("after %d observed loads:" % step)
                dump_tail(snake)
                print()
            if step == 64:
                print("prefetch requests for warp %d at PC %s (addr %d):"
                      % (warp_id, hex(instr.pc), instr.base_addr))
                for addr, depth in requests:
                    print("    depth %d -> address %d (delta %+d)"
                          % (depth, addr, addr - instr.base_addr))
                return


if __name__ == "__main__":
    main()
