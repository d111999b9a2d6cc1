"""One fresh interpreter running one workload.

Prints ``ready`` once set-up is done (teff imported, the request stream
built and, where the workload uses it, the Thomas-Fermi table built),
then, unless ``--setup-only`` is given, runs the closed loop and prints
one JSON line of raw results.

Untraced (``--trace 0``): one client sends the anchors, then decks back
to back for ``--seconds`` seconds, stopping at the deck end nearest to
that; see workloads.py for decks.  Every request counts in ``attempted``
and ``failed``; throughput and latency are those of the decks alone.

Traced (``--trace 1``): a fixed prefix of the stream (the anchors plus
the workload's ``trace_decks`` decks) runs once untraced and then once with
spans at the layer boundaries; the ratio of the two wall times is the
tracing overhead, and the spans give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_PROBLEMS = 5
OVERRUN_S = 60.0


def closed_loop(workload, items, anchors, seconds, tracer=None):
    """Send items one at a time: the anchors, then decks for ``seconds``.

    The anchors are a warm-up whose outputs are checked; the clock for
    ``seconds`` starts after them.  The loop stops only where a deck ends,
    after at least one deck, so the timed decks are the same mix for every
    seed: of the deck ends around ``seconds`` it takes the nearest, judged
    by the mean time of the decks done so far.  A deck still running
    OVERRUN_S past ``seconds`` is cut short instead, which keeps a far
    slower program within the time a run is allowed.

    Returns the wall time of the whole loop, the wall time of the decks
    alone, and each request's latency and outcome.
    """
    first, size = len(workload.anchors()), len(workload.strata)
    latencies, outcomes = [], []
    t_start = time.perf_counter()
    t_decks = None     # when the first deck started
    for i, item in enumerate(items):
        t0 = time.perf_counter()
        if i == first:
            t_decks = t0
        elif i > first:
            elapsed = t0 - t_decks
            decks_done, in_deck = divmod(i - first, size)
            if in_deck == 0:
                if elapsed + 0.5 * elapsed / decks_done >= seconds:
                    break
            elif elapsed >= seconds + OVERRUN_S:
                break
        if tracer is not None:
            tracer.request = i
        outcomes.append(workload.attempt(item, anchors))
        latencies.append(time.perf_counter() - t0)
    t_end = time.perf_counter()
    deck_wall = t_end - t_decks if t_decks is not None else 0.0
    return t_end - t_start, deck_wall, latencies, outcomes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "teff", "__init__.py")):
        print(f"worker: no teff sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import teff
    import_s = time.perf_counter() - t0

    from workloads import WORKLOADS, load_anchors

    workload = WORKLOADS[args.workload]
    anchors = load_anchors()
    stream = workload.stream(args.seed)
    tf_build_s = 0.0
    if workload.tf_table:
        t0 = time.perf_counter()
        teff.tf_initial_slope()  # first use builds the table
        tf_build_s = time.perf_counter() - t0
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"unit": workload.unit, "import_s": import_s, "tf_build_s": tf_build_s}
    if args.trace:
        from tracing import Tracer, layer_metrics

        prefix = list(itertools.islice(
            stream, len(workload.anchors()) + workload.trace_decks * len(workload.strata)))
        plain_wall, _, _, _ = closed_loop(workload, prefix, anchors, math.inf)
        tracer = Tracer()
        tracer.install()
        wall, deck_wall, latencies, outcomes = closed_loop(workload, prefix, anchors,
                                                           math.inf, tracer)
        result["layers"] = layer_metrics(tracer, prefix, outcomes, import_s=import_s,
                                         tf_build_s=tf_build_s, overhead=wall / plain_wall)
    else:
        _, deck_wall, latencies, outcomes = closed_loop(workload, stream, anchors,
                                                        args.seconds)
    problems = [p for o in outcomes for p in o.problems]
    # the anchors' share of a run would change with the number of decks that
    # fit in it, and with it the throughput: they are checked, not timed
    first = len(workload.anchors())
    result.update(
        attempted=len(outcomes),
        failed=sum(1 for o in outcomes if o.problems),
        units=sum(o.units for o in outcomes[first:]),
        wall_s=deck_wall,
        latencies_ms=[1e3 * t for t in latencies[first:]],
        problems=problems[:MAX_PROBLEMS],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
