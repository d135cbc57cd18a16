"""Span recorder for the traced run.

The recorder replaces each public entry point of the diowords layers
with a timing wrapper, at every binding callers use: the defining
module, every other diowords module that imported the function by
name, and the class for methods.  Nothing called once per letter is
wrapped.  Spans (name, layer, start, end, parent, job) are kept in
memory and written out when the run ends.

Counts are attributed to the innermost layer span open when they
occur: an `Enclosure.refine` call counts as a refinement of the layer
whose span called it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("realnum", "contfrac", "sturmian", "words", "repetition", "approx", "cli")

# `Word` is the data type every layer passes around, not an entry point
# of the words layer, so its methods are not wrapped.
ENTRY_POINTS = {
    "realnum": ("parse_real_spec", "enclosure", "mobius", "enclosure_from_digits", "digits",
                "digits_from_enclosure", "Enclosure.refine", "DigitStream.as_text",
                "DigitStream.fractional_word"),
    "contfrac": ("cf_from_enclosure", "cf_of_rational", "convergents_from_quotients",
                 "mu_estimate", "bounded_pq_check"),
    "sturmian": ("parse_slope", "parse_morphism", "mechanical_word", "apply_morphism",
                 "slope_bounds", "letter_frequency_check", "morphic_length_check",
                 "quasi_sturmian_check"),
    "words": ("complexity_profile", "gap_profile", "fractional_power", "occurrence_count"),
    "repetition": ("dio_estimate", "ice_estimate", "verify_witness"),
    "approx": ("witness_to_approximant", "verify_approximation", "expansion_digits",
               "dio_mu_report"),
    "cli": ("main", "parse_word_source"),
}

SHALLOW_N_MAX = 50  # profiles below this window size count as shallow
DEEP_N_MAX = 100  # and from this one on as deep


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, start, end, parent, job]
        self.job = -1
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.bits_max = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "diowords" or name.startswith("diowords.")]
        for layer, names in ENTRY_POINTS.items():
            module = importlib.import_module(f"diowords.{layer}")
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name)
                    self._patch(owner, attr, self._wrap(layer, name, owner.__dict__[attr]))
                    continue
                original = getattr(module, name)
                wrapped = self._wrap(layer, name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapped)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, name: str, fn):
        probe = _PROBES.get(name)
        counts_refinement = name == "Enclosure.refine"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counts_refinement and self._stack:
                self.counts[self.spans[self._stack[-1]][1]]["refinements"] += 1
            idx = len(self.spans)
            span = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
            self.spans.append(span)
            self._stack.append(idx)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if probe is not None:
                probe(self, span[3] - span[2], args, kwargs, result)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (_, layer, start, end, _, _), inner in zip(self.spans, child):
            out[layer] += end - start - inner
        return out

    def calls(self) -> Counter:
        return Counter(span[1] for span in self.spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][2] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as fh:
            for name, layer, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start - t0,
                                     "end": end - t0, "parent": parent, "job": job}) + "\n")


# ---------------------------------------------------------------------------
# probes: what each entry point adds to the counters once it returns


def _digits_probe(rec: Recorder, dt: float, args, kwargs, result) -> None:
    c = rec.counts["realnum"]
    base = _arg(args, kwargs, 1, "base")
    c["digits_requested"] += _arg(args, kwargs, 2, "count")
    c["digits_certified"] += result.certified
    if base in (2, 10):
        c[f"b{base}_digits"] += result.certified
        c[f"b{base}_s"] += dt


def _refine_probe(rec: Recorder, dt: float, args, kwargs, result) -> None:
    rec.bits_max = max(rec.bits_max, args[0].bits)


def _cf_probe(rec: Recorder, dt: float, args, kwargs, result) -> None:
    c = rec.counts["contfrac"]
    requested = _arg(args, kwargs, 1, "max_terms")
    if result.rational and result.complete:
        requested = result.certified  # the whole expansion is shorter than asked
    c["quotients_requested"] += requested
    c["quotients_certified"] += result.certified
    c["cf_s"] += dt


def _verify_probe(rec: Recorder, dt: float, args, kwargs, result) -> None:
    rec.counts["approx"]["verify_s"] += dt


def _letters_probe(rec: Recorder, dt: float, args, kwargs, result) -> None:
    c = rec.counts["sturmian"]
    c["letters"] += len(result)
    c["letters_s"] += dt


def _profile_probe(rec: Recorder, dt: float, args, kwargs, result) -> None:
    n_max = _arg(args, kwargs, 1, "n_max")
    depth = "shallow" if n_max < SHALLOW_N_MAX else "deep" if n_max >= DEEP_N_MAX else None
    if depth:
        c = rec.counts["words"]
        c[f"{depth}_letters"] += len(_arg(args, kwargs, 0, "w"))
        c[f"{depth}_s"] += dt


def _scan_probe(kind: str):
    def probe(rec: Recorder, dt: float, args, kwargs, result) -> None:
        c = rec.counts["repetition"]
        c[f"{kind}_letters"] += len(_arg(args, kwargs, 0, "prefix"))
        c[f"{kind}_s"] += dt
    return probe


_PROBES = {
    "digits": _digits_probe,
    "Enclosure.refine": _refine_probe,
    "cf_from_enclosure": _cf_probe,
    "verify_approximation": _verify_probe,
    "mechanical_word": _letters_probe,
    "apply_morphism": _letters_probe,
    "complexity_profile": _profile_probe,
    "dio_estimate": _scan_probe("dio"),
    "ice_estimate": _scan_probe("ice"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, job_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass; rates are 0 where a layer did no such work."""
    self_s, calls, c = rec.self_times(), rec.calls(), rec.counts
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.share"] = (_ratio(self_s[layer], job_wall_s), "ratio")
        out[f"{layer}.calls"] = (calls[layer], "count")
    r, f, a, s, w, p = (c[k] for k in ("realnum", "contfrac", "approx", "sturmian", "words", "repetition"))
    out.update({
        "realnum.refinements": (r["refinements"], "count"),
        "realnum.bits_max": (rec.bits_max, "bits"),
        "realnum.certified_ratio": (_ratio(r["digits_certified"], r["digits_requested"]), "ratio"),
        "realnum.b2_digits_per_s": (_ratio(r["b2_digits"], r["b2_s"]), "1/s"),
        "realnum.b10_digits_per_s": (_ratio(r["b10_digits"], r["b10_s"]), "1/s"),
        "contfrac.refinements": (f["refinements"], "count"),
        "contfrac.certified_ratio": (_ratio(f["quotients_certified"], f["quotients_requested"]), "ratio"),
        "contfrac.quotients_per_s": (_ratio(f["quotients_certified"], f["cf_s"]), "1/s"),
        "approx.verify_s": (a["verify_s"], "s"),
        "approx.refinements": (a["refinements"], "count"),
        "sturmian.letters_per_s": (_ratio(s["letters"], s["letters_s"]), "1/s"),
        "words.shallow_letters_per_s": (_ratio(w["shallow_letters"], w["shallow_s"]), "1/s"),
        "words.deep_letters_per_s": (_ratio(w["deep_letters"], w["deep_s"]), "1/s"),
        "repetition.dio_letters_per_s": (_ratio(p["dio_letters"], p["dio_s"]), "1/s"),
        "repetition.ice_letters_per_s": (_ratio(p["ice_letters"], p["ice_s"]), "1/s"),
    })
    return out
