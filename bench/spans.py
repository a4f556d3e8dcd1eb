"""Spans around tropikit's public functions, recorded from outside the package.

`Tracer.install()` replaces every public function of the layer modules with a
timing wrapper, at every module attribute that names it: in the defining
module and at the `from ... import` aliases in `tropikit.cli`.  Calls inside a
module resolve through its globals, so nested calls are timed too.  Each span
is [name, start, end, parent, job, counts, error, peak_bytes]; spans stay in
memory until `write()`.  With memory=True every span also records its peak
traced allocation above the allocation at entry (tracemalloc must be on).
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
import types
from collections import defaultdict

LAYERS = ("cli", "fileio", "linalg", "interval", "transform", "dequant", "semiring")

# Per-element helpers, called once per matrix entry, token, edge or sample.  A
# span each would cost more than the work they do; their time stays in the
# caller's self time.
SCALAR_HELPERS = frozenset({
    "semiring.add", "semiring.mul", "semiring.leq", "interval.interval_add",
    "interval.interval_mul", "fileio.fmt_float", "fileio.parse_float", "fileio.fmt_frac",
    "fileio.parse_frac", "fileio.int_token", "dequant.log_h",
})

NAME, START, END, PARENT, JOB, COUNTS, ERROR, PEAK = range(8)


# --- counts computed from argument shapes and results ---------------------------------


def _with_info(key):
    # the solvers report their pass count only with full_output=True; ask for
    # it and hand the caller the plain X it asked for
    def count(fn, args, kwargs):
        if "full_output" in kwargs or len(args) > 3:
            out = fn(*args, **kwargs)
            info = out[1] if isinstance(out, tuple) else {}
        else:
            out, info = fn(*args, full_output=True, **kwargs)
        return out, {key: info.get("iterations", 0)}
    return count


def _simple(counter):
    def count(fn, args, kwargs):
        out = fn(*args, **kwargs)
        return out, counter(args, out)
    return count


def _triples(args, out):
    k = len(args[0])
    return {"triples": k * (k - 1) // 2 * (k - 2), "pieces": len(out.pieces)}


COUNTERS = {
    "linalg.matrix_mul": _simple(lambda a, out: {"ops": a[0].rows * a[0].cols * a[1].cols}),
    "linalg.solve_bellman_jacobi": _with_info("iterations"),
    "linalg.solve_bellman_gauss_seidel": _with_info("sweeps"),
    "interval.interval_adjacency": _simple(lambda a, out: {"edges": len(a[1])}),
    "transform.hopf_lax_evolve": _simple(lambda a, out: {"pairs": len(a[0]) ** 2}),
    "transform.legendre": _simple(lambda a, out: {"pairs": len(a[0]) * len(out)}),
    "transform.convolution": _simple(lambda a, out: {"pairs": len(a[0]) * len(a[1])}),
    "dequant.tropical_curve_2d": _simple(_triples),
    "dequant.newton_set": _simple(lambda a, out: {"terms": len(a[0].terms)}),
    "dequant.amoeba_line_sample": _simple(lambda a, out: {"samples": len(out)}),
    "fileio.read_text": _simple(lambda a, out: {"bytes": len(out)}),
    "fileio.write_text": _simple(lambda a, out: {"bytes": len(a[1])}),
}


def _counter(name):
    if name in COUNTERS:
        return COUNTERS[name]
    if name.startswith("fileio.parse_"):
        return _simple(lambda a, out: {"bytes": len(a[0])})
    if name.startswith("fileio.format_"):
        return _simple(lambda a, out: {"bytes": len(out)})
    return None


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = []
        self.job = None
        self._stack = []
        self._peaks = []  # per open span: [traced bytes at entry, peak seen in children]
        self._saved = []

    # --- wrappers ---

    def _wrap(self, name, fn):
        counter = _counter(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None, None, None]
            stack.append(len(spans))
            spans.append(rec)
            if self.memory:
                self._mem_enter()
            rec[START] = time.perf_counter()
            try:
                if counter is None:
                    return fn(*args, **kwargs)
                out, rec[COUNTS] = counter(fn, args, kwargs)
                return out
            except BaseException as e:
                rec[ERROR] = type(e).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                if self.memory:
                    rec[PEAK] = self._mem_exit()
                stack.pop()

        return timed

    def _mem_enter(self):
        # tracemalloc keeps one global peak; reset it per span and fold the
        # children's peaks back into the parent's running maximum
        cur, peak = tracemalloc.get_traced_memory()
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], peak)
        tracemalloc.reset_peak()
        self._peaks.append([cur, 0])

    def _mem_exit(self):
        _, peak = tracemalloc.get_traced_memory()
        entry, child_peak = self._peaks.pop()
        peak = max(peak, child_peak)
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], peak)
        tracemalloc.reset_peak()
        return peak - entry

    def install(self):
        modules = [sys.modules[f"tropikit.{m}"] for m in LAYERS]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and f"{short}.{attr}" not in SCALAR_HELPERS):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules + [sys.modules["tropikit"]]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "job": s[JOB], "counts": s[COUNTS],
                                     "error": s[ERROR], "peak_bytes": s[PEAK]}) + "\n")


# --- per-layer metrics ---------------------------------------------------------------


def _self_times(spans):
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _stage(name):
    if name == "fileio.read_text" or name.startswith("fileio.parse_"):
        return "parse"
    if name == "fileio.write_text" or name.startswith("fileio.format_"):
        return "format"
    return "compute"


def layer_metrics(spans, walls, mem_spans):
    """Per-layer metrics of one traced pass.

    walls maps job -> wall seconds measured around cli.main.  Per-job figures
    are means over the jobs in which the function ran (0 where it never ran);
    rates are totals over totals.  Also returns the largest mismatch between a
    job's summed self times and its root span, which should be rounding only.
    """
    selfs = _self_times(spans)
    per_job = defaultdict(lambda: defaultdict(float))  # job -> key -> value
    calls = defaultdict(list)  # name -> [(span, self)]
    kleene_iters = defaultdict(int)
    for s, st in zip(spans, selfs):
        dur = s[END] - s[START]
        j = per_job[s[JOB]]
        j[s[NAME] + ".ms"] += dur
        j[s[NAME] + ".self"] += st
        j[s[NAME] + ".calls"] += 1
        j["self_sum"] += st
        for k, v in (s[COUNTS] or {}).items():
            j[f"{s[NAME]}.{k}"] += v
        calls[s[NAME]].append((s, st))
        if s[PARENT] < 0:
            j["root"] += dur
        elif spans[s[PARENT]][NAME] == "cli.main":
            j["stage." + _stage(s[NAME])] += dur
        if s[NAME] == "linalg.matrix_mul" and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] == "linalg.kleene_star":
            kleene_iters[s[PARENT]] += 1
        if s[NAME] == "linalg.matrix_mul":
            j["mm.max_temp"] = max(j["mm.max_temp"], s[COUNTS]["ops"] * 8)
        if s[NAME].startswith("fileio.parse_"):
            j["parse.s"] += dur
            j["parse.bytes"] += s[COUNTS]["bytes"]
        if s[NAME].startswith("fileio.format_"):
            j["format.s"] += dur
            j["format.bytes"] += s[COUNTS]["bytes"]

    def mean_where(key, present=None):
        vals = [j[key] for j in per_job.values() if j[present or key] > 0]
        return sum(vals) / len(vals) if vals else 0.0

    def per_call(name, key):
        vals = [(s[COUNTS] or {}).get(key, 0) for s, _ in calls[name]]
        return sum(vals) / len(vals) if vals else 0.0

    def rate(num, den):
        return num / den if den > 0 else 0.0

    def total(key):
        return sum(j[key] for j in per_job.values())

    def ms(key, present=None):
        return 1e3 * mean_where(key, present)

    def peak_mib(name):
        peaks = [s[PEAK] for s in mem_spans if s[NAME] == name and s[PEAK] is not None]
        return max(peaks) / 2**20 if peaks else 0.0

    mm, ks = "linalg.matrix_mul", "linalg.kleene_star"
    kcalls = calls[ks]
    diverged = [s for s, _ in kcalls if s[ERROR]]
    mm_time = sum(s[END] - s[START] for s, _ in calls[mm])
    m = {
        f"{mm}.calls": mean_where(f"{mm}.calls"),
        f"{mm}.self_ms": ms(f"{mm}.self", f"{mm}.calls"),
        f"{mm}.ops": mean_where(f"{mm}.ops", f"{mm}.calls"),
        f"{mm}.temp_bytes": mean_where("mm.max_temp", f"{mm}.calls"),
        f"{mm}.peak_temp_mib": peak_mib(mm),
        f"{mm}.mops_per_s": rate(total(f"{mm}.ops") / 1e6, mm_time),
        f"{ks}.ms": ms(f"{ks}.ms"),
        f"{ks}.iterations": rate(sum(kleene_iters.values()), len(kcalls)),
        f"{ks}.diverged": rate(len(diverged), len(kcalls)),
        f"{ks}.diverged_ms": 1e3 * rate(sum(s[END] - s[START] for s in diverged), len(diverged)),
    }
    for name, key in (("linalg.solve_bellman_jacobi", "iterations"),
                      ("linalg.solve_bellman_gauss_seidel", "sweeps")):
        m[f"{name}.ms"] = ms(f"{name}.ms")
        m[f"{name}.{key}"] = per_call(name, key)
    m["linalg.adjacency_matrix.ms"] = ms("linalg.adjacency_matrix.ms")
    m["interval.interval_adjacency.ms"] = ms("interval.interval_adjacency.ms")
    m["interval.interval_adjacency.edges"] = per_call("interval.interval_adjacency", "edges")
    m["interval.interval_bellman.self_ms"] = ms("interval.interval_bellman.self",
                                                "interval.interval_bellman.calls")
    m["fileio.parse.ms"] = ms("parse.s")
    m["fileio.parse.mb_per_s"] = rate(total("parse.bytes") / 1e6, total("parse.s"))
    m["fileio.bytes_in"] = mean_where("parse.bytes", "parse.s")
    m["fileio.format.ms"] = ms("format.s")
    m["fileio.format.mb_per_s"] = rate(total("format.bytes") / 1e6, total("format.s"))
    m["fileio.write.ms"] = ms("fileio.write_text.ms")
    m["fileio.bytes_out"] = mean_where("format.bytes", "format.s")
    for fn in ("hopf_lax_evolve", "legendre", "convolution"):
        name = f"transform.{fn}"
        m[f"{name}.ms"] = ms(f"{name}.ms")
        m[f"{name}.pairs"] = per_call(name, "pairs")
        m[f"{name}.peak_temp_mib"] = peak_mib(name)
    m["dequant.tropical_curve_2d.ms"] = ms("dequant.tropical_curve_2d.ms")
    m["dequant.tropical_curve_2d.triples"] = per_call("dequant.tropical_curve_2d", "triples")
    m["dequant.tropical_curve_2d.pieces"] = per_call("dequant.tropical_curve_2d", "pieces")
    m["dequant.newton_set.ms"] = ms("dequant.newton_set.ms")
    m["dequant.newton_set.terms"] = per_call("dequant.newton_set", "terms")
    m["dequant.amoeba_line_sample.ms"] = ms("dequant.amoeba_line_sample.ms")
    m["dequant.amoeba_line_sample.samples"] = per_call("dequant.amoeba_line_sample", "samples")
    m["semiring.check_axioms.ms"] = ms("semiring.check_axioms.ms")
    m["semiring.deformed_add.ms"] = ms("semiring.deformed_add.ms")
    jobs = list(per_job)
    for stage in ("parse", "compute", "format"):
        m[f"stage.{stage}_ms"] = 1e3 * sum(per_job[j]["stage." + stage] for j in jobs) / len(jobs)
    m["cli.main.self_ms"] = 1e3 * sum(per_job[j]["cli.main.self"] for j in jobs) / len(jobs)
    m["trace.untraced_gap_ms"] = 1e3 * sum(walls[j] - per_job[j]["root"] for j in jobs) / len(jobs)
    mismatch = max(abs(per_job[j]["self_sum"] - per_job[j]["root"]) for j in jobs)
    return m, mismatch


def temp_ratio(mem_spans):
    """Measured peak over computed temporary of the largest matrix_mul call."""
    mms = [s for s in mem_spans if s[NAME] == "linalg.matrix_mul" and s[PEAK] is not None]
    if not mms:
        return 0.0
    big = max(mms, key=lambda s: s[COUNTS]["ops"])
    return big[PEAK] / (big[COUNTS]["ops"] * 8)
