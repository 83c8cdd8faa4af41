"""Per-layer spans and counters recorded from outside the program.

``Tracer.install`` replaces each layer's public functions at the module
attribute its caller looks them up by (``dictforge.pipeline.extract_candidates``,
``dictforge.cca.sym_inv_sqrt``, ``dictforge.crf.minimize`` ...) with a wrapper
that records a span per call, or per ``next`` when the function returns a
generator, plus counters taken from the arguments and results.  Stage spans
come from the ``run_pipeline`` log callback and are the parents of the layer
spans inside them.

Only a span opened while no other layer span is open counts towards a stage's
coverage, so nested layers (``sym_inv_sqrt`` inside ``solve_cca``, the
dictionary tagger inside CRF training) are not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

# (module, attribute, layer metric prefix, counters taken from the call)
WRAPS = [
    ("dictforge.pipeline", "iter_sentences", "corpus.iter_sentences", None),
    ("dictforge.cli", "iter_sentences", "corpus.iter_sentences", None),
    ("dictforge.pipeline", "extract_candidates", "extraction.extract_candidates",
     lambda args, r: {"extraction.candidates": len(r)}),
    ("dictforge.pipeline", "collect_occurrences", "views.collect_occurrences", None),
    ("dictforge.pipeline", "build_design_matrices", "views.build_design_matrices",
     lambda args, r: {"views.occurrences": r.n, "views.d_spelling": r.X.shape[1],
                      "views.d_context": r.Z.shape[1], "views.nnz": r.X.nnz + r.Z.nnz}),
    # each call writes a freshly opened file, so its offset afterwards is its size
    ("dictforge.pipeline", "write_triplets", "views.write_triplets",
     lambda args, r: {"views.triplet_bytes": args[1].tell()}),
    ("dictforge.pipeline", "read_triplets", "views.read_triplets", None),
    ("dictforge.pipeline", "accumulate_covariance", "cca.accumulate_covariance", None),
    ("dictforge.pipeline", "solve_cca", "cca.solve_cca", None),
    ("dictforge.pipeline", "embed_phrases", "cca.embed_phrases", None),
    ("dictforge.cca", "sym_inv_sqrt", "linalg.sym_inv_sqrt",
     lambda args, r: {"linalg.sym_inv_sqrt_dim": len(args[0])}),
    ("dictforge.cca", "randomized_svd", "linalg.randomized_svd", None),
    ("dictforge.pipeline", "train_svm", "classifier.train_svm", None),
    ("dictforge.pipeline", "build_dictionary", "classifier.build_dictionary", None),
    ("dictforge.pipeline", "tag_with_dictionary", "tagging.tag_with_dictionary", None),
    ("dictforge.cli", "tag_with_dictionary", "tagging.tag_with_dictionary", None),
    ("dictforge.crf", "tag_with_dictionary", "tagging.tag_with_dictionary", None),
    ("dictforge.pipeline", "evaluate", "tagging.evaluate", None),
    ("dictforge.pipeline", "dl_cotrain", "cotrain.dl_cotrain",
     lambda args, r: {"cotrain.iterations": len(r.trace)}),
    ("dictforge.pipeline", "train_crf", "crf.train_crf", None),
    ("dictforge.crf", "minimize", "crf.lbfgs",
     lambda args, r: {"crf.lbfgs_nfev": r.nfev, "crf.lbfgs_nit": r.nit,
                      "crf.lbfgs_fits": 1, "crf.lbfgs_successes": int(bool(r.success))}),
    ("dictforge.pipeline", "tag_sentences", "crf.tag_sentences",
     lambda args, r: {"crf.decoded_tokens": sum(len(tags) for tags in r)}),
]

# counters that describe a size rather than accumulate work: keep the largest
_MAX_COUNTERS = {
    "views.occurrences", "views.d_spelling", "views.d_context", "views.nnz",
    "linalg.sym_inv_sqrt_dim",
}

# per-item counters of generator layers
_ITEM_COUNTERS = {
    "corpus.iter_sentences": lambda s: {"corpus.sentences": 1, "corpus.tokens": len(s.tokens)},
}


class Tracer:
    """Spans and counters of one traced pass, grouped by phase.

    The phase is a metric-name prefix: ``""`` for the cold run, ``"rerun."``
    and ``"tag."`` for the later phases of a pass.
    """

    def __init__(self):
        self.phase = ""
        self.values: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (name, phase, start, end, parent index)
        self.outer_s = 0.0  # total time of spans opened at depth 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _add(self, counters: dict) -> None:
        for key, value in counters.items():
            if key in _MAX_COUNTERS:
                self.values[self.phase + key] = max(self.values[self.phase + key], value)
            else:
                self.values[self.phase + key] += value

    def _open(self, name: str) -> float:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, self.phase, 0.0, 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return time.perf_counter()

    def _close(self, name: str, started: float) -> None:
        ended = time.perf_counter()
        index = self._stack.pop()
        span = self.spans[index]
        self.spans[index] = (span[0], span[1], started, ended, span[4])
        if not self._stack:
            self.outer_s += ended - started
        self._add({f"{name}_s": ended - started})

    def _timed_items(self, name: str, gen):
        item_counters = _ITEM_COUNTERS.get(name)
        while True:
            started = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(name, started)
            if item_counters is not None:
                self._add(item_counters(item))
            yield item

    def _wrapper(self, fn, name: str, counters):
        def traced(*args, **kwargs):
            self._add({f"{name}_calls": 1})
            started = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, started)
            if counters is not None:
                self._add(counters(args, result))
            if inspect.isgenerator(result):
                return self._timed_items(name, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Counters plus the ratios derived from them."""
        out = dict(self.values)
        for phase in ("", "rerun.", "tag."):
            fits = out.get(f"{phase}crf.lbfgs_fits", 0)
            if fits:
                out[f"{phase}crf.lbfgs_converged"] = out[f"{phase}crf.lbfgs_successes"] / fits
        return out

    def install(self) -> None:
        for module_name, attr, name, counters in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name, counters))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

