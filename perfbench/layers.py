"""Per-layer metrics of the traced run, read from cProfile statistics.

cProfile keys its statistics by code object, so a call is counted
whatever name the caller bound the function to (`gsb` imports
`normal_form` and `find_factor` by name).  Two counts that a profile
cannot give, compositions returned and span inserts that raised the rank,
come from wrappers installed only for the traced pass.
"""

from __future__ import annotations

import cProfile
import fractions
import pstats
from contextlib import contextmanager
from dataclasses import dataclass

from shirshov import anticomm, catalog, cli, core, dialgebra, freemodule
from shirshov import gsb, rewrite

import clock

# name -> (unit, better); BENCHMARK.json lists the same metrics.
LAYERS = {}

# metric -> (statistic, module, function); statistic is calls, s or self_s
_PROFILED = [
    ("gsb.find_compositions.calls", "calls", gsb, "find_compositions"),
    ("gsb.find_compositions.s", "s", gsb, "find_compositions"),
    ("gsb.all_compositions.calls", "calls", gsb, "all_compositions"),
    ("gsb.all_compositions.s", "s", gsb, "all_compositions"),
    ("gsb.inter_reduce.s", "s", gsb, "_inter_reduce_elements"),
    ("rewrite.reduce_step.calls", "calls", rewrite, "reduce_step"),
    ("rewrite.reduce_step.s", "s", rewrite, "reduce_step"),
    ("rewrite.normal_form.calls", "calls", rewrite, "normal_form"),
    ("rewrite.normal_form.s", "s", rewrite, "normal_form"),
    ("rewrite.find_factor.calls", "calls", rewrite, "find_factor"),
    ("rewrite.find_factor.self_s", "self_s", rewrite, "find_factor"),
    ("rewrite.irr_words.s", "s", rewrite, "irr_words"),
    ("rewrite.ideal_span.s", "s", rewrite, "ideal_span"),
    ("core.VectorSpan.insert.calls", "calls", core, "VectorSpan.insert"),
    ("core.VectorSpan.insert.s", "s", core, "VectorSpan.insert"),
    ("dialgebra.di_ideal_span.calls", "calls", dialgebra, "di_ideal_span"),
    ("dialgebra.di_ideal_span.s", "s", dialgebra, "di_ideal_span"),
    ("dialgebra.di_irr.s", "s", dialgebra, "di_irr"),
    ("dialgebra.di_reduce.calls", "calls", dialgebra, "di_reduce"),
    ("dialgebra.di_reduce.s", "s", dialgebra, "di_reduce"),
    ("anticomm.ac_ideal_span.calls", "calls", anticomm, "ac_ideal_span"),
    ("anticomm.ac_ideal_span.s", "s", anticomm, "ac_ideal_span"),
    ("anticomm.ac_irr_words.s", "s", anticomm, "ac_irr_words"),
    ("anticomm.ac_normal_form.calls", "calls", anticomm, "ac_normal_form"),
    ("anticomm.ac_normal_form.s", "s", anticomm, "ac_normal_form"),
    ("freemodule.module_ideal_span.calls", "calls", freemodule,
     "module_ideal_span"),
    ("freemodule.module_ideal_span.s", "s", freemodule,
     "module_ideal_span"),
    ("freemodule.module_irr.s", "s", freemodule, "module_irr"),
    ("freemodule.module_is_gsb.s", "s", freemodule, "module_is_gsb"),
    ("freemodule.module_normal_form.calls", "calls", freemodule,
     "module_normal_form"),
]
_STAT = {"calls": ("count", 1), "s": ("s", 3), "self_s": ("s", 2)}
_TERMS_OPS = ("__init__", "__add__", "__sub__", "scale")
_CATALOG = ((catalog, "chinese_gsb"), (anticomm, "hall_gsb"),
            (dialgebra, "leibniz_enveloping"))
OPS = ("complete", "complete_fwd", "is_gsb", "cdcheck", "nf", "di_check",
       "ac_check", "module_check")

for _name, _stat, _mod, _fn in _PROFILED:
    LAYERS[_name] = (_STAT[_stat][0], "lower")
LAYERS.update({
    "gsb.compositions": ("count", "lower"),
    "gsb.complete.normal_form.calls": ("count", "lower"),
    "gsb.rounds": ("count", "lower"),
    "gsb.added": ("count", "lower"),
    "core.VectorSpan.insert.useful": ("ratio", "higher"),
    "core.Terms.self_s": ("s", "lower"),
    "fractions.calls": ("count", "lower"),
    "fractions.self_s": ("s", "lower"),
    "cli.startup_s": ("s", "lower"),
    "cli.parse_presentation.s": ("s", "lower"),
    "cli.fmt.s": ("s", "lower"),
    "catalog.build.s": ("s", "lower"),
    "work.compositions_checked": ("count", "lower"),
    "work.span_rank_top": ("count", "lower"),
    "work.irr_words": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
})
for _op in OPS:
    LAYERS["op.%s_s" % _op] = ("s", "lower")


def _resolve(module, path):
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def _key(fn):
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


# Keys are taken before the traced pass patches gsb and VectorSpan.
_KEYS = {(mod, fn): _key(_resolve(mod, fn)) for mod, fn in
         [(mod, fn) for _, _, mod, fn in _PROFILED] + list(_CATALOG)
         + [(gsb, "shirshov_complete"), (cli, "parse_presentation"),
            (cli, "fmt_element"), (cli, "fmt_presentation")]}
_TERMS_KEYS = [_key(_resolve(core, "Terms." + op)) for op in _TERMS_OPS]


@dataclass
class Profile:
    stats: dict     # cProfile statistics
    seconds: float  # calibrated seconds of the whole call
    scale: float    # calibrated seconds per profiled second


def profiled(fn):
    """Run fn under cProfile and the calibration sampler of `clock.py`;
    returns (result, Profile).  Per-layer seconds are reported calibrated
    with the scale measured over the same call."""
    prof = cProfile.Profile()
    with clock.Sampler() as sampler:
        prof.enable()
        try:
            result = fn()
        finally:
            prof.disable()
    scale = sampler.seconds / (sampler.elapsed - sampler.unit_s)
    return result, Profile(pstats.Stats(prof).stats, sampler.seconds, scale)


@dataclass
class Counts:
    compositions: int = 0
    inserts: int = 0
    useful: int = 0


@contextmanager
def counting(counts):
    """Count compositions returned by `all_compositions` and span inserts
    that raised the rank, for the duration of the block."""
    all_compositions = gsb.all_compositions
    insert = core.VectorSpan.insert

    def counted_all_compositions(system):
        out = all_compositions(system)
        counts.compositions += len(out)
        return out

    def counted_insert(self, vec):
        grew = insert(self, vec)
        counts.inserts += 1
        counts.useful += bool(grew)
        return grew

    gsb.all_compositions = counted_all_compositions
    core.VectorSpan.insert = counted_insert
    try:
        yield counts
    finally:
        gsb.all_compositions = all_compositions
        core.VectorSpan.insert = insert


def _entry(stats, mod, fn):
    return stats.get(_KEYS[(mod, fn)])


def _ct(stats, mod, fn):
    e = _entry(stats, mod, fn)
    return e[3] if e else 0.0


def _scaled(out, profile):
    return {name: v * profile.scale if LAYERS[name][0] == "s" else v
            for name, v in out.items()}


def library_metrics(profile, counts):
    stats = profile.stats
    out = {}
    for name, stat, mod, fn in _PROFILED:
        e = _entry(stats, mod, fn)
        out[name] = e[_STAT[stat][1]] if e else 0
    nf = _entry(stats, rewrite, "normal_form")
    via = nf[4].get(_KEYS[(gsb, "shirshov_complete")]) if nf else None
    out["gsb.complete.normal_form.calls"] = via[0] if via else 0
    out["gsb.compositions"] = counts.compositions
    out["core.VectorSpan.insert.useful"] = (
        counts.useful / counts.inserts if counts.inserts else 0.0)
    out["core.Terms.self_s"] = sum(stats[k][2] for k in _TERMS_KEYS
                                   if k in stats)
    frac = [v for k, v in stats.items() if k[0] == fractions.__file__]
    out["fractions.calls"] = sum(v[1] for v in frac)
    out["fractions.self_s"] = sum(v[2] for v in frac)
    return _scaled(out, profile)


def cli_metrics(profile):
    stats = profile.stats
    fmt = _entry(stats, cli, "fmt_element")
    nested = fmt[4].get(_KEYS[(cli, "fmt_presentation")]) if fmt else None
    return _scaled({
        "cli.parse_presentation.s": _ct(stats, cli, "parse_presentation"),
        "cli.fmt.s": (_ct(stats, cli, "fmt_element")
                      + _ct(stats, cli, "fmt_presentation")
                      - (nested[3] if nested else 0.0)),
    }, profile)


def setup_metrics(profile):
    return _scaled({"catalog.build.s": sum(_ct(profile.stats, mod, fn)
                                           for mod, fn in _CATALOG)},
                   profile)
