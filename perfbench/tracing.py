"""Per-layer tracing from outside the program.

Spans are recorded by replacing a function where its caller looks it up
(a module global such as `svkit.models.network.conv3d_forward`, or a class
attribute such as `Network.embed_vectors`) with a wrapper, for the length of
one traced iteration. No svkit source is changed. A span's self time is its
duration minus the time its child spans cover; `cli.*` stage spans are the
roots, opened by the harness around each `svkit.cli.main(argv)` call.

The import sites are named in SITES. If one no longer exists, `install`
raises TraceGuardError, so a refactor that moves a function fails the
traced run instead of reporting zero for its layer.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

MIB = 1 << 20
CONVS = ("conv1_1", "conv1_2", "conv2_1", "conv2_2", "conv3_1", "conv3_2", "conv4_1", "conv4_2")
_NN_KINDS = ("conv3d", "batchnorm", "prelu", "maxpool_freq", "locally_connected", "fully_connected")


class TraceGuardError(RuntimeError):
    """A wrapped import site is missing, or an expected layer recorded no call."""


@dataclass(frozen=True)
class Site:
    owner: str  # "svkit.cli" (module global) or "svkit.models.network:Network" (class attribute)
    attr: str
    span: str
    hook: str = ""  # extra bookkeeping, see Tracer._wrap; "count" records calls but no time


_NET = "svkit.models.network"
SITES = (
    # nn: the layer functions Network looks up in its own module
    *(
        Site(_NET, f"{kind}_{way}", f"nn.{kind}.{short}", "conv" if kind == "conv3d" else "")
        for kind in _NN_KINDS
        for way, short in (("forward", "fwd"), ("backward", "bwd"))
    ),
    Site("svkit.nn.optim:SgdMomentum", "step", "nn.sgd_step"),
    # models
    Site(f"{_NET}:Network", "forward_with_cache", "models.forward_train", "cache"),
    Site(f"{_NET}:Network", "backward", "models.backward"),
    Site(f"{_NET}:Network", "embed_vectors", "models.embed", "embed"),
    Site("svkit.cli", "save_checkpoint", "models.checkpoint"),
    Site("svkit.cli", "load_checkpoint", "models.checkpoint"),
    # protocol
    Site("svkit.cli", "train_development", "protocol.train"),
    Site("svkit.cli", "enroll_one_shot", "protocol.enroll"),
    Site("svkit.cli", "enroll_dvector", "protocol.enroll"),
    Site("svkit.cli", "run_evaluation", "protocol.evaluate_self"),
    Site("svkit.protocol.evaluation", "score_trial", "protocol.score_trial", "count"),  # once per trial
    Site("svkit.protocol.evaluation", "compute_roc", "protocol.compute_roc"),
    Site("svkit.cli", "save_speaker_models", "protocol.models_io"),
    Site("svkit.cli", "load_speaker_models", "protocol.models_io"),
    # dsp
    Site("svkit.cli", "load_wav", "dsp.load_wav"),
    Site("svkit.cli", "detect_voice", "dsp.vad"),
    Site("svkit.cli", "mel_filterbank", "dsp.mfec"),
    Site("svkit.cli", "signal_to_feature_map", "dsp.mfec", "maps"),
    Site("svkit.protocol.training", "build_feature_cube", "dsp.cube"),
    Site("svkit.protocol.enrollment", "build_feature_cube", "dsp.cube"),
    Site("svkit.protocol.enrollment", "replicate_for_eval", "dsp.cube"),
    # corpus
    Site("svkit.cli", "slice_utterances", "corpus.slice", "slices"),
    Site("svkit.cli", "split_enroll_eval", "corpus.split"),
    # report (scores.csv is written by protocol.evaluation but is one of the four artifacts)
    Site("svkit.cli", "write_metrics_json", "report.write"),
    Site("svkit.cli", "write_roc_csv", "report.write"),
    Site("svkit.cli", "write_roc_svg", "report.write"),
    Site("svkit.cli", "write_score_log", "report.write"),
)

# Every per-layer metric, in report order: (name, unit).
PER_LAYER = (
    *((f"nn.{k}.{d}_s", "s") for k in _NN_KINDS for d in ("fwd", "bwd")),
    *((f"nn.{c}.{d}_s", "s") for c in CONVS for d in ("fwd", "bwd")),
    ("nn.sgd_step_s", "s"),
    ("nn.conv3d.gflop", "GFLOP"),
    ("nn.conv3d.col_mib", "MiB"),
    ("models.forward_train_s", "s"),
    ("models.backward_s", "s"),
    ("models.embed_s", "s"),
    ("models.embed_inputs", "count"),
    ("models.cache_mib", "MiB"),
    ("models.checkpoint_s", "s"),
    ("protocol.train_s", "s"),
    ("protocol.enroll_s", "s"),
    ("protocol.evaluate_self_s", "s"),
    ("protocol.score_trial_calls", "count"),
    ("protocol.compute_roc_s", "s"),
    ("protocol.models_io_s", "s"),
    ("dsp.load_wav_s", "s"),
    ("dsp.vad_s", "s"),
    ("dsp.mfec_s", "s"),
    ("dsp.cube_s", "s"),
    ("dsp.maps", "count"),
    ("corpus.slice_s", "s"),
    ("corpus.split_s", "s"),
    ("corpus.slices", "count"),
    ("report.write_s", "s"),
    ("cli.train_s", "s"),
    ("cli.enroll_s", "s"),
    ("cli.evaluate_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)
UNITS = dict(PER_LAYER)
# Metrics that must repeat exactly from run to run (and iteration to iteration).
EXACT = tuple(name for name, unit in PER_LAYER if unit != "s")

_CNN_TRAIN = (
    *(f"nn.{k}.{d}" for k in ("conv3d", "batchnorm", "prelu", "maxpool_freq", "fully_connected") for d in ("fwd", "bwd")),
    *(f"nn.{c}.{d}" for c in CONVS for d in ("fwd", "bwd")),
    "nn.sgd_step", "models.forward_train", "models.backward", "protocol.train", "dsp.cube",
)  # fmt: skip
_CNN_INFER = (
    *(f"nn.{k}.fwd" for k in ("conv3d", "batchnorm", "prelu", "maxpool_freq", "fully_connected")),
    *(f"nn.{c}.fwd" for c in CONVS),
    "dsp.cube",
)
_EVAL = (
    "models.embed", "protocol.enroll", "protocol.evaluate_self", "protocol.score_trial",
    "protocol.compute_roc", "protocol.models_io", "report.write", "corpus.split",
)  # fmt: skip
_FRONT = ("dsp.load_wav", "dsp.vad", "dsp.mfec", "corpus.slice", "models.checkpoint")
_DVECTOR = tuple(f"nn.{k}.{d}" for k in ("locally_connected", "fully_connected", "prelu") for d in ("fwd", "bwd"))

# Spans (and counted calls) each workload must record at least once per traced iteration.
EXPECTED_ACTIVE = {
    "train_cnn3d": ("cli.train", *_FRONT, *_CNN_TRAIN),
    "verify_cnn3d": ("cli.enroll", "cli.evaluate", *_FRONT, *_CNN_INFER, *_EVAL),
    "pipeline_dvector": (
        "cli.train", "cli.enroll", "cli.evaluate", *_FRONT, *_DVECTOR, *_EVAL,
        "nn.sgd_step", "models.forward_train", "models.backward", "protocol.train",
    ),
}  # fmt: skip


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _held_bytes(caches) -> int:
    """Bytes of the distinct arrays a forward_with_cache result keeps alive."""
    roots = {}
    for entry in caches:
        for value in entry.values():
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                roots[id(value)] = value.nbytes
    return sum(roots.values())


def _conv_shapes(params, out_shape) -> tuple[int, int, int]:
    """(M, K, N) of the im2col product: output positions, patch length, channels out."""
    kd, kh, kw, cin, cout = params.weights.shape
    return int(np.prod(out_shape[:-1])), kd * kh * kw * cin, cout


class Tracer:
    """Span stack plus counters for one traced iteration."""

    def __init__(self):
        self._stack: list[list[float]] = []  # per open span: [time covered by children]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.wall_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def span(self, names: tuple[str, ...], fn, *args, **kwargs):
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dur
            for name in names:
                self.self_s[name] += dur - frame[0]
                self.wall_s[name] += dur
                self.calls[name] += 1

    # -- wrapping --------------------------------------------------------------

    def install(self) -> None:
        """Wrap every site; raises TraceGuardError if one does not exist."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for site in SITES:
                owner = _resolve(site.owner)
                found = vars(owner)
                if not callable(found.get(site.attr)):
                    raise TraceGuardError(
                        f"trace site {site.owner}.{site.attr} does not exist; "
                        f"span {site.span} would read zero"
                    )
                original = found[site.attr]
                self._saved.append((owner, site.attr, original))
                setattr(owner, site.attr, self._wrap(site, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, site: Site, fn):
        span, hook = site.span, site.hook
        names = (span,)
        if hook == "count":

            def counted(*args, **kwargs):
                self.calls[span] += 1
                return fn(*args, **kwargs)

            return counted
        if hook == "conv":
            backward = site.attr.endswith("backward")

            def conv(x, params, *args, **kwargs):
                if backward:
                    cache = kwargs.get("cache")
                    kept = bool(cache) and cache.get("conv_col") is not None
                    out = self.span((span, f"nn.{params.name}.bwd"), fn, x, params, *args, **kwargs)
                    m, k, n = _conv_shapes(params, np.shape(args[0] if args else kwargs["grad_out"]))
                    self.counts["conv_flop"] += 4 * m * k * n  # weight and input gradients
                    self.counts["conv_col_bytes"] += 0 if kept else m * k * 8
                else:
                    out = self.span((span, f"nn.{params.name}.fwd"), fn, x, params, *args, **kwargs)
                    m, k, n = _conv_shapes(params, out.shape)
                    self.counts["conv_flop"] += 2 * m * k * n
                    self.counts["conv_col_bytes"] += m * k * 8
                return out

            return conv
        if hook == "embed":

            def embed(net, inputs, *args, **kwargs):
                inputs = list(inputs)
                self.counts["embed_inputs"] += len(inputs)
                return self.span(names, fn, net, inputs, *args, **kwargs)

            return embed

        def spanned(*args, **kwargs):
            out = self.span(names, fn, *args, **kwargs)
            if hook == "cache":
                self.counts["cache_bytes"] = max(self.counts["cache_bytes"], _held_bytes(out[1]))
            elif hook == "maps":
                self.counts["maps"] += 1
            elif hook == "slices":
                self.counts["slices"] += len(out)
            return out

        return spanned

    # -- results ---------------------------------------------------------------

    def check_active(self, workload: str) -> None:
        missing = [name for name in EXPECTED_ACTIVE[workload] if self.calls[name] == 0]
        if missing:
            raise TraceGuardError(f"{workload}: expected layers recorded no call: {', '.join(missing)}")

    def metrics(self) -> dict[str, float]:
        """Per-layer values of this iteration (trace.overhead_s is filled in by the caller)."""
        out = {name: 0.0 for name, _ in PER_LAYER}
        for name, secs in self.self_s.items():
            if name.startswith("cli."):
                out[f"{name}_s"] = self.wall_s[name]
                out["cli.self_s"] += secs
            else:
                out[f"{name}_s"] = secs
        out["nn.conv3d.gflop"] = self.counts["conv_flop"] / 1e9
        out["nn.conv3d.col_mib"] = self.counts["conv_col_bytes"] / MIB
        out["models.embed_inputs"] = self.counts["embed_inputs"]
        out["models.cache_mib"] = self.counts["cache_bytes"] / MIB
        out["protocol.score_trial_calls"] = self.calls["protocol.score_trial"]
        out["dsp.maps"] = self.counts["maps"]
        out["corpus.slices"] = self.counts["slices"]
        unknown = set(out) - set(UNITS)
        if unknown:
            raise TraceGuardError(f"spans without a per-layer metric: {sorted(unknown)}")
        return out
