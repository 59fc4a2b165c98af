"""Per-layer metrics computed from the tracer's spans.

Every metric describes one invocation: one traced set-up plus one pass
(pass totals are divided by the number of traced passes).  Self time is a
span's duration minus that of the spans it called; p50/p90 are per call.
A ratio with no base (e.g. no sampler ran) reads 0.

Which end-to-end metric each layer metric should move, and where:
  field.*        setup_s on spectrum (build_field); wall_s on spectrum (gauss_sum)
  kloosterman.*  wall_s on spectrum; table_rough_s should fall under a padding
                 change while table_smooth_s stays
  sums.*         wall_s on sums (most) and ladder; zero on scan and spectrum
  strata.*       wall_s on scan (most) and ladder; zero on spectrum and sums
  polyfq.*       wall_s on scan and ladder (a few percent)
  experiments.*  wall_s on ladder
  bilinear.*     wall_s on spectrum
chartuples and cli are not reported: no workload spends measurable time there.
"""

from __future__ import annotations

import statistics

from workloads import ROUGH_Q, SMOOTH_Q

SAMPLERS = ("experiments.sample_generic_b", "experiments.sample_subgeneric_b")


def _scan_counts(tracer, result):
    hist = result.histogram
    tracer.count("strata.degenerate", hist.get(-1, 0))
    tracer.count("strata.generic", hist.get(result.generic, 0))
    tracer.count("strata.scanned", sum(hist.values()))


def _sampled(tracer, result):
    tracer.count("experiments.sampler_accepted", len(result))


TRACER_HOOKS = {
    "keys": {
        "kloosterman.kl_table_fast": lambda f, t, *a, **kw: (f.q, t.k),
        "strata.z_fiber_count": lambda f, k, b, *a, **kw: (k, len(b) // 2),
        "sums.kr_matrix": lambda table, b, *a, **kw: table.field.q,
    },
    "on_exit": {
        "strata.stratum_scan": _scan_counts,
        "experiments.sample_generic_b": _sampled,
        "experiments.sample_subgeneric_b": _sampled,
    },
}

SELF_S = ("field.build_field", "field.gauss_sum", "sums.kr_matrix", "sums.sigma_II",
          "sums.sigma_II_direct", "strata.singular_polynomial", "strata.stratum_scan",
          "polyfq.squarefree_part", "polyfq.mul", "experiments.bound_ladder",
          "bilinear.moment_identity_check", "bilinear.kl3_direct")
CALLS = ("field.gauss_sum", "kloosterman.kl_table_fast", "sums.kr_matrix",
         "strata.z_fiber_count", "polyfq.squarefree_part")
PERCENTILES = ("sums.kr_matrix", "strata.z_fiber_count")


def _pct(durs, p):
    if not durs:
        return 0.0
    if len(durs) == 1:
        return durs[0]
    return statistics.quantiles(durs, n=100, method="inclusive")[p - 1]


def per_layer(wl, setup_tracer, pass_tracer, n_passes: int):
    """Returns ({metric: (value, unit)}, detail, self-check problems)."""
    spans = [(s, 1.0) for s in setup_tracer.spans] + [(s, 1.0 / n_passes) for s in pass_tracer.spans]

    def total(name, attr="self_s", where=lambda s: True):
        return sum((getattr(s, attr) * w for s, w in spans if s.name == name and where(s)), 0.0)

    def calls(name, where=lambda s: True):
        return sum((w for s, w in spans if s.name == name and where(s)), 0.0)

    def counter(name):
        return (setup_tracer.counters.get(name, 0)
                + pass_tracer.counters.get(name, 0) / n_passes)

    m = {}
    for name in SELF_S:
        m[f"{name}.self_s"] = (total(name), "s")
    for name in CALLS:
        m[f"{name}.calls"] = (calls(name), "count")
    for name in PERCENTILES:
        durs = [s.dur for s, _ in spans if s.name == name]
        m[f"{name}.p50_ms"] = (1e3 * _pct(durs, 50), "ms")
        m[f"{name}.p90_ms"] = (1e3 * _pct(durs, 90), "ms")
    tab = "kloosterman.kl_table_fast"
    m["kloosterman.table_rough_s"] = (total(tab, "dur", lambda s: s.key[0] == ROUGH_Q), "s")
    m["kloosterman.table_smooth_s"] = (total(tab, "dur", lambda s: s.key[0] == SMOOTH_Q), "s")
    m["strata.degenerate"] = (counter("strata.degenerate"), "count")
    scanned = counter("strata.scanned")
    m["strata.generic_fraction"] = (counter("strata.generic") / scanned if scanned else 0.0, "frac")
    attempts = calls("strata.z_fiber_count", lambda s: s.parent in SAMPLERS)
    accepted = counter("experiments.sampler_accepted")
    m["experiments.sampler_accept_ratio"] = (accepted / attempts if attempts else 0.0, "frac")

    problems = [f"{name}: no calls on {wl.name}" for name in wl.expect_hit if not calls(name)]
    problems += [f"{s.name}: called on {wl.name}, predicted zero"
                 for s in {s.name: s for s, _ in spans}.values()
                 if s.name.startswith(wl.expect_zero)]

    detail = {}
    for s, _ in spans:
        if s.key is not None:
            detail.setdefault(f"{s.name}[{s.key}]", []).append(s.dur)
    detail = {k: {"calls": len(v), "p50_ms": 1e3 * statistics.median(v)} for k, v in detail.items()}
    return m, detail, problems
