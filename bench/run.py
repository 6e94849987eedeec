#!/usr/bin/env python3
"""Benchmark of belief-opacity: synthesis, edit enforcement and the CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ref-fine --seed 1 --seconds 30 --trace 0

Imports the program from ``src/`` of the current directory and runs the CLI
as ``python -m belief_opacity`` with that ``src/`` on PYTHONPATH.  One
process generates all load, runs at most one program child at a time and
starts no threads.  A run repeats whole rounds of the same operations (at
least MIN_ROUNDS) until the next round would end after ``--seconds``;
every output is checked against the NumPy-only oracles of ``oracle.py``.
Timings are speed-corrected by the reference kernel of ``reference.py``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).  Raw figures and
spans go to ``.bench_out/`` in the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import pipeline
import workloads as wl
from reference import BETA, R0_MS, Reference
from trace import Tracer

HERE = Path(__file__).resolve().parent
# slot k of a run invokes the CLI as CLI_KINDS[k % 4]
CLI_KINDS = ("abstract", "synthesize_direct", "synthesize_edit", "simulate_edited")
SLOTS_PER_ROUND = 2
# every kind at least once, and the first two twice, so their artifacts
# can be compared
MIN_ROUNDS = 3
CHILD_TIMEOUT = 120
# steps of the untimed stream whose every belief is compared with the oracle
CHECKED_STREAM_LEN = 300
# reference kernel passes between two operations
REF_PASSES = 2
# a time is corrected by this many passes on either side of its start
REF_WINDOW = 4


def median(xs):
    return statistics.median(xs) if xs else float("nan")


class Run:
    def __init__(self, args, root: Path, bo):
        self.bo = bo
        self.seed = args.seed
        self.seconds = args.seconds
        self.w = wl.workloads()[args.workload]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.paths = wl.write_models(self.w, self.out / "models")
        self.specs = {s.name: s for s in self.w.models}
        self.oms = {s.name: oracle.OracleModel(s) for s in self.w.models}
        self.tracer = Tracer() if args.trace else None
        self.call = self.tracer.call if self.tracer else pipeline.direct
        self.reference = Reference()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: dict[str, int] = {}
        # every reference pass: its duration (ms) and when it ended
        self.ref_ms: list[float] = []
        self.ref_end: list[float] = []
        # timed operations as (seconds, start)
        self.timed = {"setup": [], "synth": [], "edit": [], "cli": {k: [] for k in CLI_KINDS}}
        self.edit_steps: list[int] = []
        self.rss_kb: list[int] = []
        # traced counterparts of synth and edit, for the tracing overhead
        self.traced = {"synth": [], "edit": []}
        self.counts: dict[str, float] = {}
        self.cli_digests: dict = {}
        # bytes written by the last invocation of each (kind, model)
        self.cli_bytes: dict = {}

    # -- bookkeeping -------------------------------------------------------

    def check(self, what: str, fn, *args, **kwargs):
        """Run one oracle check; a failure makes the run incorrect."""
        try:
            return fn(*args, **kwargs)
        except oracle.CheckFailed as exc:
            self.problems.append(f"{what}: {exc}")
            print(f"CHECK FAILED {what}: {exc}", file=sys.stderr)
            return None

    def fail(self, what: str, exc: BaseException):
        self.failed += 1
        key = f"{what}: {type(exc).__name__}: {exc}"
        if key not in self.failures:
            print(f"operation failed {key}", file=sys.stderr)
        self.failures[key] = self.failures.get(key, 0) + 1

    def ref(self):
        for _ in range(REF_PASSES):
            self.ref_ms.append(self.reference.run())
            self.ref_end.append(time.perf_counter())

    def corrected(self, seconds, start) -> float:
        """``seconds`` at the nominal speed, by the median of the reference
        passes just before and just after ``start``."""
        pos = bisect.bisect_right(self.ref_end, start)
        local = statistics.median(self.ref_ms[max(0, pos - REF_WINDOW):pos + REF_WINDOW])
        return seconds * (R0_MS / local) ** BETA

    # -- set-up ------------------------------------------------------------

    def prepare(self):
        """Load every model in process, synthesise once (warming caches),
        and run the expensive oracle checks on those results."""
        bo = self.bo
        self.models = {}
        self.base = {}
        for name, path in self.paths.items():
            m = pipeline.load(bo, path)
            self.check(f"{name} model", oracle.check_model, self.oms[name], m.states, m.pi0,
                       m.trans, [m.states[i] for i in m.secret])
            self.models[name] = m
        for _ in range(3):
            self.ref()
        rng = np.random.default_rng([self.seed, 1])
        for name, m in self.models.items():
            spec, om = self.specs[name], self.oms[name]
            syn = pipeline.synthesize(bo, m, spec.width, om.target)
            self.base[name] = syn
            cells = syn.partition.cells
            ids = np.array([c.id for c in cells])
            lo = np.array([c.box.lo for c in cells])
            hi = np.array([c.box.hi for c in cells])
            status = [c.status for c in cells]
            self.check(f"{name} cells", oracle.check_cells, om, lo, hi, status)
            self.check(f"{name} images", oracle.check_images, om, ids, lo, hi, status,
                       syn.raw.delta, rng)
            self.check_synthesis(name, syn)

    def check_synthesis(self, name, syn):
        om = self.oms[name]
        self.check(f"{name} pruned", oracle.check_pruned, syn.raw.states, syn.raw.alphabet,
                   syn.raw.delta, syn.pruned.states, syn.pruned.delta, syn.initial,
                   sound=name not in self.w.fault_models)
        allowed = syn.restricted.allowed
        self.check(f"{name} allowed", oracle.check_allowed, om, syn.pruned.delta, syn.initial,
                   allowed)
        self.check(f"{name} policy", oracle.check_policy, om, allowed, syn.policy.choice,
                   syn.policy.value, [om.target])

    # -- operations --------------------------------------------------------

    def setup_child(self):
        args = [f"{self.paths[n]}:{self.specs[n].width!r}:{self.oms[n].target}" for n in self.paths]
        cmd = [sys.executable, str(HERE / "child.py"), *args]
        self.attempted += 1
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.out, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest, err = proc.communicate(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or first.strip() != "ready":
            self.fail("setup child", RuntimeError(err.strip().splitlines()[-1:] or proc.returncode))
            return
        self.timed["setup"].append((ready, start))
        self.rss_kb.append(int(rest.split()[-1]))

    def synth_op(self):
        bo = self.bo
        results = {}
        start = time.perf_counter()
        for name, m in self.models.items():
            self.attempted += 1
            try:
                results[name] = pipeline.synthesize(bo, m, self.specs[name].width,
                                                     self.oms[name].target)
            except Exception as exc:  # counted, reported, and the run goes on
                self.fail(f"{name} synthesis", exc)
        elapsed = time.perf_counter() - start
        if len(results) == len(self.models):
            self.timed["synth"].append((elapsed, start))
        for name, syn in results.items():
            self.check_synthesis(name, syn)

    def streams(self, key, length):
        """Seeded real-action streams, one per non-fault model."""
        out = []
        for mi, name in enumerate(self.models):
            if name in self.w.fault_models:
                continue
            actions = self.models[name].actions
            for j in range(self.w.streams_per_batch):
                rng = np.random.default_rng([self.seed, *key, mi, j])
                out.append((name, [actions[i] for i in rng.integers(len(actions), size=length)]))
        return out

    def edit_batch(self, slot):
        bo = self.bo
        batch = self.streams((slot, 0), self.w.stream_len)
        results = []
        ok = True
        start = time.perf_counter()
        for name, actions in batch:
            self.attempted += 1
            try:
                results.append((name, pipeline.run_stream(bo, self.models[name], self.base[name], actions)))
            except Exception as exc:
                self.fail(f"{name} edit stream", exc)
                ok = False
        elapsed = time.perf_counter() - start
        if ok:
            self.timed["edit"].append((elapsed, start))
            self.edit_steps.append(sum(len(a) for _, a in batch))
        for name, (outputs, final) in results:
            self.check(f"{name} edit stream", oracle.check_edit_stream, self.oms[name], outputs,
                       final=final)

    def checked_streams(self, r):
        """Untimed streams whose engine belief is compared at every step."""
        bo = self.bo
        for name, actions in self.streams((r, 1), CHECKED_STREAM_LEN):
            self.attempted += 1
            try:
                engine = bo.EditEngine(self.models[name], self.base[name].partition,
                                       self.base[name].edit, strategy="match-if-safe")
                outputs, beliefs = [], []
                for a in actions:
                    outputs.append(engine.step(a))
                    beliefs.append(np.array(engine.observer_belief))
            except Exception as exc:
                self.fail(f"{name} checked stream", exc)
                continue
            self.check(f"{name} checked stream", oracle.check_edit_stream, self.oms[name],
                       outputs, beliefs=beliefs)

    def fault_streams(self):
        """The fixed stream on each fault model; the prune fault stops it
        with EditUndefinedError, which counts as a failed operation."""
        bo = self.bo
        for name in self.w.fault_models:
            m = self.models[name]
            rng = np.random.default_rng(wl.FAULT_STREAM_SEED)
            actions = [m.actions[i] for i in rng.integers(len(m.actions), size=wl.FAULT_STREAM_LEN)]
            self.attempted += 1
            try:
                outputs, final = pipeline.run_stream(bo, m, self.base[name], actions,
                                                     strategy=wl.FAULT_STRATEGY)
            except bo.EditUndefinedError as exc:
                self.fail(f"{name} fault stream", exc)
                if "does not cover" not in str(exc):
                    self.problems.append(f"{name} fault stream: unexpected {exc}")
                continue
            except Exception as exc:
                self.fail(f"{name} fault stream", exc)
                continue
            self.check(f"{name} fault stream", oracle.check_edit_stream, self.oms[name], outputs,
                       final=final)

    def cli_args(self, kind, name, out: Path):
        spec, om = self.specs[name], self.oms[name]
        common = ["--model", str(self.paths[name]), "--widths", repr(spec.width), "--out", str(out)]
        return {
            "abstract": ["abstract", *common],
            "synthesize_direct": ["synthesize", *common, "--mode", "direct", "--target", om.target],
            "synthesize_edit": ["synthesize", *common, "--mode", "edit"],
            "simulate_edited": ["simulate", *common, "--edited", "--steps", str(self.w.cli_steps),
                                "--actions", "random", "--strategy", "uniform-random",
                                "--seed", str(self.seed)],
        }[kind]

    def cli_op(self, kind):
        """One invocation of ``kind`` per CLI model, timed together unless
        one fails."""
        total = 0.0
        start = time.perf_counter()
        for name in self.w.cli_models:
            out = self.out / "cli" / name / kind
            out.mkdir(parents=True, exist_ok=True)
            cmd = [sys.executable, "-m", "belief_opacity", *self.cli_args(kind, name, out)]
            self.attempted += 1
            began = time.perf_counter()
            proc = self.call(f"cli.{kind}", subprocess.run, cmd, env=self.env, cwd=self.out,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                             timeout=CHILD_TIMEOUT)
            total += time.perf_counter() - began
            if proc.returncode != 0:
                err = proc.stderr.strip().splitlines()
                self.fail(f"{name} cli {kind}", RuntimeError(f"exit {proc.returncode}: {err[-1:]}"))
                return
            self.check_cli(kind, name, out)
        self.timed["cli"][kind].append((total, start))

    def check_cli(self, kind, name, out: Path):
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        self.cli_bytes[(kind, name)] = sum(len(b) for b in files.values())
        digest = {k: hashlib.sha256(v).hexdigest() for k, v in files.items()}
        key = (kind, name)
        if key in self.cli_digests:
            self.check(f"{name} cli {kind}", oracle.check_identical, self.cli_digests[key], digest)
            return
        self.cli_digests[key] = digest
        om, syn = self.oms[name], self.base[name]
        text = {k: v.decode("utf-8") for k, v in files.items()}
        if kind == "abstract":
            self.check(f"{name} edges.csv", oracle.check_edges_csv, text.get("edges.csv", ""),
                       set(syn.pruned.sorted_edges()))
        elif kind == "synthesize_direct":
            allowed = syn.restricted.allowed
            self.check(f"{name} allowed.csv", oracle.check_allowed_csv, text.get("allowed.csv", ""),
                       allowed)
            self.check(f"{name} policy.csv", oracle.check_policy_csv, om,
                       text.get("policy.csv", ""), allowed, [om.target])
        elif kind == "synthesize_edit":
            if not text.get("edit.dot", "").startswith("digraph"):
                self.problems.append(f"{name} cli synthesize_edit: no edit.dot")
        else:
            self.check(f"{name} trace.csv", oracle.check_trace_csv, om, text.get("trace.csv", ""),
                       self.w.cli_steps)

    # -- traced extras -----------------------------------------------------

    def traced_round(self, r):
        bo, call = self.bo, self.call
        for name, path in self.paths.items():
            call("model.load", pipeline.load, bo, path)

        self.ref()
        start = time.perf_counter()
        traced = {n: pipeline.synthesize(bo, m, self.specs[n].width, self.oms[n].target, call)
                  for n, m in self.models.items()}
        self.traced["synth"].append(self.corrected(time.perf_counter() - start, start))

        batch = self.streams((r, 2), self.w.stream_len)
        self.ref()
        start = time.perf_counter()
        outputs = []
        for name, actions in batch:
            engine = bo.EditEngine(self.models[name], self.base[name].partition,
                                   self.base[name].edit, strategy="match-if-safe")
            outputs.append([call("synthesis.EditEngine.step", engine.step, a) for a in actions])
        self.traced["edit"].append(
            sum(len(a) for _, a in batch) / self.corrected(time.perf_counter() - start, start))
        self.ref()

        counts = dict.fromkeys(
            ("partition.cells", "partition.cells_safe", "partition.cells_bad",
             "partition.cells_excluded", "partition.locate_calls", "dynamics.reach_boxes",
             "abstraction.edges", "abstraction.surviving_states", "abstraction.prune_events",
             "abstraction.prune_deletes", "synthesis.product_states",
             "synthesis.edit_automaton_edges", "synthesis.verify_sequences"), 0)
        for (name, _), outs in zip(batch, outputs):
            p = self.base[name].partition
            om = self.oms[name]
            b = om.pi0.copy()
            for out in outs:
                b = om.trans[out] @ b
                call("partition.locate_cell", bo.locate_cell, b[:-1], p)
            counts["partition.locate_calls"] += len(outs)
        for name, m in self.models.items():
            syn = traced[name]
            p = syn.partition
            cells = p.counts()
            counts["partition.cells"] += len(p.cells)
            counts["partition.cells_safe"] += cells[bo.SAFE]
            counts["partition.cells_bad"] += cells[bo.BAD]
            counts["partition.cells_excluded"] += cells[bo.EXCLUDED]
            safe = p.safe_cells()
            for a in m.actions:
                d = bo.decomposition(m, a)
                for cell in safe:
                    call("dynamics.reach_box", bo.reach_box, d, cell.box)
            counts["dynamics.reach_boxes"] += len(safe) * len(m.actions)
            counts["abstraction.edges"] += syn.raw.transition_count()
            counts["abstraction.surviving_states"] += len(syn.pruned.states)
            counts["abstraction.prune_events"] += len(syn.events)
            counts["abstraction.prune_deletes"] += sum(e.kind == "delete" for e in syn.events)
            prod = call("synthesis.product", bo.product, bo.mdp_to_nfa(m), syn.pruned)
            counts["synthesis.product_states"] += len(prod.states)
            counts["synthesis.edit_automaton_edges"] += len(getattr(syn.edit, "edges", ()))
            if name not in self.w.fault_models:
                rep = call("synthesis.verify_edit_requirements", bo.verify_edit_requirements,
                           syn.edit, m, p, self.w.verify_depth)
                counts["synthesis.verify_sequences"] += rep.sequences_checked
        for name in self.w.cli_models:
            m, syn = self.models[name], self.base[name]
            trace = call("simulation.simulate_edited", bo.simulate_edited, m, syn.partition,
                         syn.edit, bo.random_actions(m, seed=self.seed), self.w.cli_steps,
                         strategy="uniform-random", seed=self.seed)
            call("simulation.trace_to_csv", bo.trace_to_csv, trace, m)
        call("cli.import", subprocess.run, [sys.executable, "-c", "import belief_opacity"],
             env=self.env, cwd=self.out, check=True, timeout=CHILD_TIMEOUT)
        self.counts = counts

    # -- the run -----------------------------------------------------------

    def round(self, r):
        span = self.tracer.begin(f"bench.round.{r}") if self.tracer else None
        self.ref()
        self.setup_child()
        for slot in range(r * SLOTS_PER_ROUND, (r + 1) * SLOTS_PER_ROUND):
            for _ in range(self.w.synth_per_slot):
                self.ref()
                self.synth_op()
            self.ref()
            self.edit_batch(slot)
            self.ref()
            self.cli_op(CLI_KINDS[slot % len(CLI_KINDS)])
        self.ref()
        self.fault_streams()
        self.checked_streams(r)
        if self.tracer:
            self.traced_round(r)
            self.tracer.end(span)

    def run(self) -> dict:
        self.prepare()
        # keep the benchmark's own long-lived objects out of the program's
        # garbage collections
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        rounds = 0
        while True:
            self.round(rounds)
            rounds += 1
            now = time.perf_counter()
            if rounds >= MIN_ROUNDS and now + (now - start) / rounds > start + self.seconds:
                break
        return self.report(rounds)

    def report(self, rounds) -> dict:
        t = self.timed
        raw = {
            "bench.ref_ms": median(self.ref_ms),
            "bench.setup_raw_s": median([x for x, _ in t["setup"]]),
            "bench.synth_raw_s": median([x for x, _ in t["synth"]]),
            "bench.edit_steps_raw_per_s": median(
                [n / x for n, (x, _) in zip(self.edit_steps, t["edit"])]),
            "bench.cli_raw_s": sum(median([x for x, _ in v]) for v in t["cli"].values()),
        }
        e2e = self.end_to_end()
        detail = {"rounds": rounds, "raw": raw, "ref_ms": self.ref_ms, "ref_end": self.ref_end,
                  "timed": t, "edit_steps": self.edit_steps, "rss_kb": self.rss_kb,
                  "problems": self.problems, "failures": self.failures,
                  "e2e": {k: v for k, (v, _) in e2e.items()}}
        if self.tracer is None:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        else:
            metrics = self.layer_metrics(raw, e2e)
            self.tracer.write(self.out / "spans.jsonl")
            detail["layers"] = {k: v["value"] for k, v in metrics.items()}
        (self.out / "result.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
        return {"correct": not self.problems, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}

    def end_to_end(self) -> dict:
        t, c = self.timed, self.corrected
        return {
            "setup_s": (median([c(*s) for s in t["setup"]]), "s"),
            "synth_s": (median([c(*s) for s in t["synth"]]), "s"),
            "edit_steps_per_s": (median([n / c(*s) for n, s in zip(self.edit_steps, t["edit"])]),
                                 "1/s"),
            "cli_s": (sum(median([c(*s) for s in v]) for v in t["cli"].values()), "s"),
            "peak_rss_mb": (median(self.rss_kb) / 1024.0, "MB"),
        }

    def layer_metrics(self, raw, e2e) -> dict:
        """Per-layer figures from the spans, each span's self time corrected
        like the end-to-end times, by the reference passes around its start."""
        totals, calls = self.tracer.by_round(self.corrected)

        def seconds(name):
            return median(totals[name]) if name in totals else 0.0

        def micros(name):
            return median(calls[name]) * 1e6 if name in calls else 0.0

        out = {
            "model.load_s": (seconds("model.load"), "s"),
            "partition.build_grid_s": (seconds("partition.build_grid"), "s"),
            "partition.refine_s": (seconds("partition.refine_initial"), "s"),
            "partition.locate_us": (micros("partition.locate_cell"), "us"),
            "dynamics.reach_box_us": (micros("dynamics.reach_box"), "us"),
            "abstraction.build_s": (seconds("abstraction.build_abstraction"), "s"),
            "abstraction.prune_s": (seconds("abstraction.prune"), "s"),
            "synthesis.restrict_s": (seconds("synthesis.restrict_actions"), "s"),
            "synthesis.prune_blocking_s": (seconds("synthesis.prune_blocking"), "s"),
            "synthesis.policy_s": (seconds("synthesis.synthesize_reach_policy"), "s"),
            "synthesis.edit_automaton_s": (seconds("synthesis.build_edit_automaton"), "s"),
            "synthesis.edit_step_us": (micros("synthesis.EditEngine.step"), "us"),
            "synthesis.verify_s": (seconds("synthesis.verify_edit_requirements"), "s"),
            "simulation.simulate_edited_s": (seconds("simulation.simulate_edited"), "s"),
            "simulation.trace_csv_s": (seconds("simulation.trace_to_csv"), "s"),
            "cli.import_s": (seconds("cli.import"), "s"),
        }
        # each CLI kind runs once every len(CLI_KINDS) slots: its median call
        for kind in CLI_KINDS:
            out[f"cli.{kind}_s"] = (micros(f"cli.{kind}") / 1e6, "s")
        for name, value in self.counts.items():
            out[name] = (float(value), "count")
        # one invocation of every kind on every CLI model
        out["cli.artifact_bytes"] = (float(sum(self.cli_bytes.values())), "count")
        out.update({k: (v, "1/s" if "per_s" in k else "ms" if k.endswith("_ms") else "s")
                    for k, v in raw.items()})
        out["bench.trace_overhead_synth_pct"] = (
            100.0 * (median(self.traced["synth"]) / e2e["synth_s"][0] - 1.0), "%")
        out["bench.trace_overhead_edit_pct"] = (
            100.0 * (e2e["edit_steps_per_s"][0] / median(self.traced["edit"]) - 1.0), "%")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.workloads()))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "belief_opacity" / "__init__.py").is_file():
        print("error: no src/belief_opacity under the current directory; "
              "run from the root of a belief-opacity checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import belief_opacity as bo

    if not Path(bo.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"error: imported belief_opacity from {bo.__file__}, not from src/", file=sys.stderr)
        return 2
    result = Run(args, root, bo).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
