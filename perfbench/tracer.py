"""Span tracer that wraps gridmoe's public functions from outside the package.

Nothing under ``src/`` knows about it: ``install`` replaces module attributes
and class methods with timed wrappers, at the name each caller looks up (for
example ``gridmoe.cli.parse_config`` as well as ``gridmoe.runconfig.parse_config``,
because ``cli`` imported the name). Each wrapped call is a span; a span's
self time is its duration minus the spans it contains.

Work the tracer does after a call returns (counting expert groups, wrapping
the returned autodiff record) runs on a paused clock, so it is not charged to
the enclosing spans. The wrappers' own entry and exit cost is charged; the
difference between a traced and an untraced run reports it.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

# The autodiff primitives the model, the MoE layer and the losses call.
AUTODIFF_OPS = (
    "grid_linear", "gate_logits", "softmax", "gather_last", "mix_experts",
    "relu", "add", "mul", "cross_entropy_mean", "smooth_l1_mean",
)
MODEL_DEPTH = 4

# Spans directly inside this one are the children of a training iteration.
TRAIN_SPAN = "train.train"


class Tracer:
    def __init__(self):
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        # (name, start, end) of every span opened directly inside a train() span
        self.loop_spans: list[tuple[str, float, float]] = []
        self.checkpoint_bytes = 0
        self._stack: list[list] = []  # open spans: [name, start, child seconds]
        self._paused = 0.0
        self._patched: list[tuple[object, str, object]] = []

    def now(self) -> float:
        """Clock with the tracer's own post-call bookkeeping taken out."""
        return time.perf_counter() - self._paused

    def call(self, name, fn, args, kwargs, after=None):
        self._stack.append([name, self.now(), 0.0])
        try:
            out = fn(*args, **kwargs)
        finally:
            _, start, child = self._stack.pop()
            end = self.now()
            elapsed = end - start
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - child
            self.calls[name] += 1
            if self._stack:
                parent = self._stack[-1]
                parent[2] += elapsed
                if parent[0] == TRAIN_SPAN:
                    self.loop_spans.append((name, start, end))
        if after is not None:
            t0 = time.perf_counter()
            after(out)
            self._paused += time.perf_counter() - t0
        return out

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after)
        return traced

    def patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- post-call counters ---------------------------------------------

    def _count_routing(self, result) -> None:
        _, decision = result
        self.counters["moe.expert_applications"] += decision.expert_applications
        self.counters["moe.expert_groups"] += len(set(decision.selected_indices.ravel().tolist()))

    def _count_nodes(self, record) -> None:
        self.counters["autodiff.graph_nodes"] += len(record.ops)

    def _checkpoint_size(self, path) -> None:
        self.checkpoint_bytes = os.path.getsize(path)

    def _op_after(self, op):
        vjp_name = f"autodiff.{op}.vjp"

        def after(result):
            tensor = result[0] if isinstance(result, tuple) else result
            record = tensor._op
            if record is not None:
                record.vjp = self.wrap(vjp_name, record.vjp)
        return after

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mod = {name: importlib.import_module(f"gridmoe.{name}") for name in (
            "autodiff", "checkpoint", "cli", "csvio", "data", "dso", "model", "moe",
            "runconfig")}
        # ``import gridmoe.train`` would give the re-exported train() function.
        train_mod = importlib.import_module("gridmoe.train")
        ad, ck, cli, data, dso, model, moe = (mod[k] for k in (
            "autodiff", "checkpoint", "cli", "data", "dso", "model", "moe"))

        parse = self.wrap("runconfig.parse_config", mod["runconfig"].parse_config)
        self.patch(mod["runconfig"], "parse_config", parse)
        self.patch(cli, "parse_config", parse)

        save = self.wrap("checkpoint.save", ck.save_checkpoint,
                         after=lambda paths: self._checkpoint_size(paths[0]))
        self.patch(ck, "save_checkpoint", save)
        self.patch(train_mod, "save_checkpoint", save)
        load = self.wrap("checkpoint.load", ck.load_checkpoint)
        self.patch(ck, "load_checkpoint", load)
        self.patch(cli, "load_checkpoint", load)

        self.patch(data, "generate_sample", self.wrap("data.generate_sample", data.generate_sample))
        self.patch(data.BatchSampler, "next_batch",
                   self.wrap("data.next_batch", data.BatchSampler.next_batch))

        for method in ("forward_batch", "features", "head_output"):
            self.patch(model.Model, method,
                       self.wrap(f"model.{method}", getattr(model.Model, method)))
        block_forward = model.TrunkBlock.forward
        block_names = [f"model.block{i}" for i in range(MODEL_DEPTH)]

        def traced_block(block, h):
            return self.call(block_names[block.index], block_forward, (block, h), {})
        self.patch(model.TrunkBlock, "forward", traced_block)

        moe_forward = self.wrap("moe.moe_forward", moe.moe_forward, after=self._count_routing)
        self.patch(moe, "moe_forward", moe_forward)
        self.patch(model, "moe_forward", moe_forward)
        self.patch(moe, "topk_select", self.wrap("moe.topk_select", moe.topk_select))
        self.patch(moe.ExpertStats, "accumulate",
                   self.wrap("moe.stats_accumulate", moe.ExpertStats.accumulate))

        for op in AUTODIFF_OPS:
            self.patch(ad, op, self.wrap(f"autodiff.{op}", getattr(ad, op),
                                         after=self._op_after(op)))
        self.patch(ad, "backward", self.wrap("autodiff.backward", ad.backward))
        trace = self.wrap("autodiff.trace", ad.ComputationRecord.trace, after=self._count_nodes)
        self.patch(ad.ComputationRecord, "trace", classmethod(lambda cls, root: trace(root)))

        for fn in ("step", "update_ema", "apply_multipliers"):
            self.patch(dso, fn, self.wrap(f"dso.{fn}", getattr(dso, fn)))
        self.patch(mod["csvio"].CsvLogger, "write",
                   self.wrap("csvio.write", mod["csvio"].CsvLogger.write))
        self.patch(train_mod, "evaluate_stats",
                   self.wrap("train.evaluate_stats", train_mod.evaluate_stats))
        self.patch(cli, "train", self.wrap(TRAIN_SPAN, cli.train))

    # -- results ------------------------------------------------------------

    def loop_accounting(self) -> tuple[list[float], list[float]]:
        """Per-iteration wall and self seconds of every traced train() loop.

        An iteration runs from one ``next_batch`` call to the next; the last
        one of a run ends where ``save_checkpoint`` starts. Its children are
        the spans opened directly inside train() in that interval, and self
        time is what they leave uncovered (mostly the SGD update).
        """
        walls, selfs = [], []
        start = None
        children = 0.0
        for name, t0, t1 in self.loop_spans:
            if name in ("data.next_batch", "checkpoint.save") and start is not None:
                walls.append(t0 - start)
                selfs.append(t0 - start - children)
                start = None
            if name == "data.next_batch":
                start, children = t0, 0.0
            if start is not None:
                children += t1 - t0
        return walls, selfs

    def layer_metrics(self, steps: int) -> dict[str, float]:
        """Busy time (ms) and counts per step, named as in BENCHMARK.json."""
        def ms(name):
            return 1000.0 * self.total_s.get(name, 0.0) / steps

        def per_step(count):
            return count / steps

        out = {
            "runconfig.parse_config.ms": ms("runconfig.parse_config"),
            "checkpoint.save.ms": ms("checkpoint.save"),
            "checkpoint.load.ms": ms("checkpoint.load"),
            "checkpoint.bytes": float(self.checkpoint_bytes),
            "data.generate_sample.ms": ms("data.generate_sample"),
            "data.generate_sample.calls": per_step(self.calls.get("data.generate_sample", 0)),
            "data.next_batch.ms": ms("data.next_batch"),
            "model.forward_batch.ms": ms("model.forward_batch"),
            "model.features.ms": ms("model.features"),
            "model.features.calls": per_step(self.calls.get("model.features", 0)),
            "model.head_output.ms": ms("model.head_output"),
        }
        for i in range(MODEL_DEPTH):
            out[f"model.block{i}.ms"] = ms(f"model.block{i}")
        out.update({
            "moe.moe_forward.ms": ms("moe.moe_forward"),
            "moe.moe_forward.calls": per_step(self.calls.get("moe.moe_forward", 0)),
            "moe.topk_select.ms": ms("moe.topk_select"),
            "moe.expert_applications": per_step(self.counters["moe.expert_applications"]),
            "moe.expert_groups": per_step(self.counters["moe.expert_groups"]),
            "moe.stats_accumulate.ms": ms("moe.stats_accumulate"),
        })
        for op in AUTODIFF_OPS:
            out[f"autodiff.{op}.fwd_ms"] = ms(f"autodiff.{op}")
            out[f"autodiff.{op}.vjp_ms"] = ms(f"autodiff.{op}.vjp")
            out[f"autodiff.{op}.calls"] = per_step(self.calls.get(f"autodiff.{op}", 0))
        out.update({
            "autodiff.backward.ms": ms("autodiff.backward"),
            "autodiff.backward.self_ms":
                1000.0 * self.self_s.get("autodiff.backward", 0.0) / steps,
            "autodiff.trace.ms": ms("autodiff.trace"),
            "autodiff.graph_nodes": per_step(self.counters["autodiff.graph_nodes"]),
            "dso.step.ms": ms("dso.step"),
            "dso.update_ema.ms": ms("dso.update_ema"),
            "dso.apply_multipliers.ms": ms("dso.apply_multipliers"),
            "csvio.write.ms": ms("csvio.write"),
            "csvio.rows": per_step(self.calls.get("csvio.write", 0)),
            "train.evaluate_stats.ms": ms("train.evaluate_stats"),
        })
        return out
