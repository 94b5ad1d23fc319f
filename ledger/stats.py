"""Arithmetic of the antmd benchmark: turns the driver's raw measurements
into the named end-to-end and per-layer metrics.

Kept apart from run.py so the diff tool and the self-test (test_stats.py)
use the same percentile, calls-per-step and residual code as the benchmark.
"""

import statistics

# name -> unit.  BENCHMARK.json lists the same names and units (checked by
# test_stats.py).
END_TO_END = {
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "md.neighbor.build_ms": "ms",
    "md.neighbor.rebuilds": "count",
    "md.neighbor.pairs": "count",
    "md.neighbor.tiles": "count",
    "md.neighbor.fill_ratio": "ratio",
    "ff.nonbonded_ms": "ms",
    "ff.nonbonded_pairs_per_us": "1/us",
    "ewald.kspace_ms": "ms",
    "ewald.non_fft_ms": "ms",
    "ewald.grid_points": "count",
    "ewald.stencil_points": "count",
    "kspace_force_rel_err": "ratio",
    "fft.forward_ms": "ms",
    "fft.inverse_ms": "ms",
    "fft.flops": "flop",
    "fft.gflops": "GFLOP/s",
    "fft.bytes_computed": "B",
    "md.constraints.shake_ms": "ms",
    "md.constraints.rattle_ms": "ms",
    "md.constraints.iterations": "count",
    "runtime.redistribute_ms": "ms",
    "runtime.evaluate_ms": "ms",
    "runtime.pair_imbalance": "ratio",
    "machine.step_time_us": "us",
    "machine.modeled_step_us": "us",
    "machine.network_fraction": "ratio",
    "modeled_ns_per_day": "ns/day",
    "topo.build_ms": "ms",
    "ff.tables_ms": "ms",
    "md.init_ms": "ms",
    "md.steps_traced": "count",
    "md.step_ms_traced": "ms",
    "md.residual_ms_per_step": "ms",
    "trace.overhead_frac": "ratio",
}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def median(values):
    return statistics.median(values)


def cycle_means(step_ms, interval):
    """Mean step time of each complete run of `interval` consecutive steps.

    With k-space every `interval` steps the per-step times alternate between
    a k-space and a cheap step; every run of `interval` consecutive steps
    holds exactly one k-space step, so the cycle is the unit whose median is
    stable.  interval 1 returns the step times unchanged.
    """
    full = len(step_ms) - len(step_ms) % interval
    return [sum(step_ms[i:i + interval]) / interval
            for i in range(0, full, interval)]


def end_to_end(raw):
    window = raw["window"]
    steps = window["step_ms"]
    setup = raw["setup"]
    setup_s = [sum(parts) / 1e3 for parts in
               zip(setup["topo.build_ms"], setup["ff.tables_ms"],
                   setup["md.init_ms"])]
    return {
        "steps_per_s": len(steps) / window["wall_s"],
        "step_ms_p50": median(cycle_means(steps, raw["kspace_interval"])),
        "setup_s": median(setup_s),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def span_medians(spans):
    """Median duration (ms) of each named span."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["dur_ms"])
    return {name: median(d) for name, d in by_name.items()}


def step_terms(engine, calls, per_call_ms):
    """Per-step estimate of each layer on the step's path: the per-call
    median times the calls per step.

    `calls` holds per-step call rates from exact counts ("rebuild" and
    "kspace"); `per_call_ms` holds span medians by span name.  On the host
    engine the step is list update + nonbonded + k-space + SHAKE + RATTLE
    (+ integrate/thermostat/reduce in the residual).  On the machine engine
    the distributed evaluate replaces the nonbonded call, the node
    redistribution follows each rebuild and the timing model runs every
    step.
    """
    layers = [("md.neighbor.build", calls["rebuild"]),
              ("ewald.kspace", calls["kspace"]),
              ("md.constraints.shake", 1.0),
              ("md.constraints.rattle", 1.0)]
    if engine == "machine":
        layers += [("runtime.redistribute", calls["rebuild"]),
                   ("runtime.evaluate", 1.0),
                   ("machine.step_time", 1.0)]
    else:
        layers.append(("ff.nonbonded", 1.0))
    return {name: per_call_ms[name] * rate
            for name, rate in layers if name in per_call_ms}


def residual(step_ms_traced, terms):
    """The part of the traced step no layer estimate accounts for."""
    return step_ms_traced - sum(terms.values())


def per_layer(raw):
    trace = raw["trace"]
    counts = trace["counts"]
    spans = [s for s in trace["spans"] if s["name"] not in ("step", "replay")]
    per_call = span_medians(spans)
    n = len(trace["step_ms"])
    rebuilds = sum(trace["rebuilt"])
    calls = {"rebuild": rebuilds / n, "kspace": sum(trace["kspace_due"]) / n}
    traced = statistics.fmean(trace["step_ms"])
    untraced = statistics.fmean(raw["window"]["step_ms"])
    terms = step_terms(raw["engine"], calls, per_call)

    def ms(name):
        return per_call.get(name, 0.0)

    def med(values):
        return median(values) if values else 0.0

    nonbonded = ms("ff.nonbonded")
    fwd = ms("fft.forward")
    flops = counts.get("fft.flops", 0.0)
    setup = raw["setup"]
    m = {
        "md.neighbor.build_ms": ms("md.neighbor.build"),
        "md.neighbor.rebuilds": rebuilds,
        "md.neighbor.pairs": counts["md.neighbor.pairs"],
        "md.neighbor.tiles": counts["md.neighbor.tiles"],
        "md.neighbor.fill_ratio": counts["md.neighbor.fill_ratio"],
        "ff.nonbonded_ms": nonbonded,
        "ff.nonbonded_pairs_per_us":
            counts["md.neighbor.pairs"] / (nonbonded * 1e3)
            if nonbonded else 0.0,
        "ewald.kspace_ms": ms("ewald.kspace"),
        "ewald.non_fft_ms":
            ms("ewald.kspace") - fwd - ms("fft.inverse")
            if "ewald.kspace" in per_call else 0.0,
        "ewald.grid_points": counts.get("ewald.grid_points", 0.0),
        "ewald.stencil_points": counts.get("ewald.stencil_points", 0.0),
        "kspace_force_rel_err": raw["gate"]["kspace_force_rel_err"] or 0.0,
        "fft.forward_ms": fwd,
        "fft.inverse_ms": ms("fft.inverse"),
        "fft.flops": flops,
        "fft.gflops": flops / (fwd * 1e-3) / 1e9 if fwd else 0.0,
        "fft.bytes_computed": counts.get("fft.bytes_computed", 0.0),
        "md.constraints.shake_ms": ms("md.constraints.shake"),
        "md.constraints.rattle_ms": ms("md.constraints.rattle"),
        "md.constraints.iterations": med(counts["md.constraints.iterations"]),
        "runtime.redistribute_ms": ms("runtime.redistribute"),
        "runtime.evaluate_ms": ms("runtime.evaluate"),
        "runtime.pair_imbalance": med(counts["runtime.pair_imbalance"]),
        "machine.step_time_us": ms("machine.step_time") * 1e3,
        "machine.modeled_step_us": counts.get("machine.modeled_step_us", 0.0),
        "machine.network_fraction":
            counts.get("machine.network_fraction", 0.0),
        "modeled_ns_per_day": raw.get("modeled_ns_per_day", 0.0),
        "topo.build_ms": median(setup["topo.build_ms"]),
        "ff.tables_ms": median(setup["ff.tables_ms"]),
        "md.init_ms": median(setup["md.init_ms"]),
        "md.steps_traced": n,
        "md.step_ms_traced": traced,
        "md.residual_ms_per_step": residual(traced, terms),
        "trace.overhead_frac": traced / untraced - 1.0,
    }
    return m, terms
