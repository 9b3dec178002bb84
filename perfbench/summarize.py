"""Turns the span file of a traced run into per-layer metrics.

run.py calls summarize(path) on the file the traced run wrote and merges
the result with the metrics the program reports itself (those it reads
from the registry).  spec.json says what each metric means.

Besides the span-derived metrics it gives, per layer, the busy self time
per op the layer handled.  A span's self time is its duration minus the
part of it that its child spans cover.  Wait spans (an op waiting, not a
thread working) cover their parent but have no self time of their own.
A run is a sequence of phases, each a root span that carries its op
count: one traced recording, serial replays, pipeline replays or the
live phase.  Each busy span is charged to the phase its start falls in;
a layer's ops are the ops of the phases in which it did work.
"""

import bisect
import struct
from collections import defaultdict

RECORD = struct.Struct("<QQqqQQIHH")  # mirrors src/trace.cpp's Record
# Spans that time an op or a phase, not a thread working.
WAIT_SPANS = {"runtime.notifier", "runtime.inbox_wait", "load.late",
              "runtime.drain", "bench.live_phase"}
# The phases of a run; each carries its op count.
PHASE_SPANS = {"sim.record", "bench.serial_replay", "bench.pipeline_replay",
               "bench.live_phase"}
# Spans whose integer the metrics use (transforms).
VALUE_SPANS = {"engine.apply", "engine.pre_broadcast"}
LAYERS = ("sim", "engine", "runtime", "load", "bench")


def quantile(values, q):
    """Linear-interpolated quantile; the same definition as common.cpp."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def read_spans(path):
    """Returns the span names and the raw record bytes."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != b"CCVCSPAN":
        raise ValueError(f"{path}: not a span file")
    (count,) = struct.unpack_from("<I", data, 8)
    off = 12
    names = []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", data, off)
        names.append(data[off + 2:off + 2 + n].decode())
        off += 2 + n
    body = memoryview(data)[off:]
    if len(body) % RECORD.size:
        raise ValueError(f"{path}: truncated span record")
    return names, body


def summarize(path):
    names, body = read_spans(path)
    phase_idx = {names.index(n) for n in PHASE_SPANS}
    phases = sorted((start, end, value) for _, _, start, end, _, value, _, idx, _
                    in RECORD.iter_unpack(body) if idx in phase_idx)
    phase_starts = [start for start, _, _ in phases]

    durations = defaultdict(list)  # name -> [ns]
    values = defaultdict(list)     # name -> [the span's integer]
    covered = defaultdict(int)     # open parent id -> children's ns
    layer_self = defaultdict(int)  # layer -> busy self ns
    layer_phases = defaultdict(set)
    fanout_ns_per_dest = []
    for sid, parent, start, end, _seq, value, _site, name_idx, _thread in \
            RECORD.iter_unpack(body):
        name = names[name_idx]
        dur = end - start
        durations[name].append(dur)
        if name in VALUE_SPANS:
            values[name].append(value)
        if name == "engine.fanout" and value > 1:
            fanout_ns_per_dest.append(dur / (value - 1))
        # Children precede their parent in the file and do not overlap.
        if parent:
            covered[parent] += dur
        if name in WAIT_SPANS:
            covered.pop(sid, None)
            continue
        layer = name.split(".")[0]
        phase = bisect.bisect_right(phase_starts, start) - 1
        if phase < 0 or start > phases[phase][1]:
            raise ValueError(f"{path}: {name} span outside every phase")
        layer_self[layer] += dur - covered.pop(sid, 0)
        layer_phases[layer].add(phase)

    def p(name, q, scale):
        return quantile([d / scale for d in durations[name]], q)

    us, ms = 1e3, 1e6
    m = {}
    m["engine.parse_us_p50"] = p("engine.parse", 0.5, us)
    m["engine.apply_us_p50"] = p("engine.apply", 0.5, us)
    m["engine.apply_us_p99"] = p("engine.apply", 0.99, us)
    m["engine.pre_broadcast_us_p50"] = p("engine.pre_broadcast", 0.5, us)
    m["engine.fanout_ns_per_dest"] = quantile(fanout_ns_per_dest, 0.5)
    m["engine.post_broadcast_us_p50"] = p("engine.post_broadcast", 0.5, us)
    m["engine.client_apply_us_p50"] = p("engine.client_apply", 0.5, us)
    m["engine.client_apply_us_p99"] = p("engine.client_apply", 0.99, us)
    m["engine.client_generate_us_p50"] = p("engine.client_generate", 0.5, us)
    m["ot.notifier_path_p99"] = quantile(values["engine.apply"], 0.99)
    transforms = sum(values["engine.pre_broadcast"])
    m["ot.ns_per_transform"] = (
        sum(durations["engine.pre_broadcast"]) / transforms if transforms else 0.0)
    m["runtime.submit_us_p99"] = p("runtime.submit", 0.99, us)
    m["runtime.drain_tail_ms"] = p("runtime.drain", 0.5, ms)
    m["runtime.notifier_ms_p50"] = p("runtime.notifier", 0.5, ms)
    m["runtime.notifier_ms_p99"] = p("runtime.notifier", 0.99, ms)
    m["runtime.inbox_wait_ms_p50"] = p("runtime.inbox_wait", 0.5, ms)
    for layer in LAYERS:
        ops = sum(phases[i][2] for i in layer_phases[layer])
        m[f"{layer}.self_us_per_op"] = layer_self[layer] / us / ops if ops else 0.0
    return m
