"""Spans and counts around the program's public functions, from outside it.

``Tracer.install`` replaces each traced function with a wrapper in every
``prolate`` module namespace that holds it (the defining module, every module
that imported it by name, and the package root), and ``uninstall`` puts the
originals back.  Spans (name, start, end, parent) are kept in memory; a
layer's self time is its spans' durations minus the parts covered by their
child spans.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, function, layer name); several functions may share a layer
TRACED = (
    ("prolate.quadrature", "gauss_legendre", "quadrature.gauss_legendre"),
    ("prolate.quadrature", "real_line_rule", "quadrature.real_line_rule"),
    ("prolate.bandlimited", "project", "bandlimited.project"),
    ("prolate.basis", "extension_matrix", "basis.extension_matrix"),
    ("prolate.basis", "build_basis", "basis.build_basis"),
    ("prolate.hermite", "hg_eval", "hermite.hg_eval"),
    ("prolate.superres", "probe_from_model", "superres.probe_from_model"),
    ("prolate.superres", "gamma_modes", "superres.gamma_modes"),
    ("prolate.superres", "superres_fisher", "superres.superres_fisher"),
    ("prolate.metrology", "fisher_matrix", "metrology.fisher_matrix"),
    ("prolate.metrology", "probabilities_ideal", "metrology.probabilities"),
    ("prolate.metrology", "probabilities_limited", "metrology.probabilities"),
    ("prolate.metrology", "probabilities_truncated", "metrology.probabilities"),
    ("prolate.metrology", "crb", "metrology.crb"),
    ("prolate.io", "write_csv", "io.write_csv"),
    ("prolate.io", "write_manifest", "io.write_manifest"),
    ("prolate.cli", "main", "cli.main"),
)


class Tracer:
    """Spans and counts of one traced round."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._patched = []       # (namespace, attribute, original)
        self._singular = ()      # exception type counted at crb, set by install

    # ----------------------------------------------------------- recording

    def _wrap(self, layer: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[f"{layer}.calls"] += 1
            if layer == "metrology.fisher_matrix":
                args = (self._counting_model(args[0]),) + args[1:]
            span = [layer, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except self._singular:
                if layer == "metrology.crb":
                    counts["metrology.crb.singular"] += 1
                raise
            finally:
                stack.pop()
                span[2] = clock()
            self._count_result(layer, args, result)
            return result

        return wrapper

    def _counting_model(self, model):
        counts = self.counts

        def counted(theta):
            counts["metrology.fisher_matrix.model_evals"] += 1
            return model(theta)

        return counted

    def _count_result(self, layer, args, result):
        if layer == "quadrature.real_line_rule":
            self.counts["quadrature.real_line_rule.nodes"] += int(result.nodes.size)
        elif layer == "basis.extension_matrix":
            self.counts["basis.extension_matrix.entries"] += int(result.size)
        elif layer == "io.write_csv":
            self.counts["io.write_csv.bytes"] += os.path.getsize(args[0])

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        import numpy.polynomial.legendre as legendre
        from prolate.errors import SingularFisherError
        self._singular = SingularFisherError
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "prolate" or name.startswith("prolate."))]
        for mod_name, attr, layer in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        leggauss = legendre.leggauss
        counts = self.counts

        def counted_leggauss(*args, **kwargs):
            counts["quadrature.leggauss.solves"] += 1
            return leggauss(*args, **kwargs)

        self._patched.append((legendre, "leggauss", leggauss))
        legendre.leggauss = counted_leggauss

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # ------------------------------------------------------------- summary

    def self_ms(self) -> dict:
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1e3
        return out

    def write(self, fh, round_index: int) -> None:
        """Append this tracer's spans to an open file, one JSON object a line."""
        for name, start, end, parent in self.spans:
            fh.write(json.dumps({"round": round_index, "name": name, "start": start,
                                 "end": end, "parent": parent}) + "\n")
