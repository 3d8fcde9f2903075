"""Metric names, units and the per-layer metrics derived from spans.

``E2E`` lists every end-to-end metric the untraced run measures; the
workload that has no value for one simply does not report it.  Only
``GATED`` ones are reported by every workload, never read 0, and carry a
bound in BENCHMARK.json.  ``PER_LAYER`` also records, for each per-layer
metric, the end-to-end metric and workload it should move.
"""

from __future__ import annotations

from collections import defaultdict

from spans import self_times

E2E = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_frac": ("ratio", "lower"),
    "fit_s": ("s", "lower"),
    "bootstrap_s": ("s", "lower"),
    "trials_per_s": ("1/s", "higher"),
    "write_p50_ms": ("ms", "lower"),
    "write_p99_ms": ("ms", "lower"),
    "read_p50_ms": ("ms", "lower"),
    "replay_s": ("s", "lower"),
    "cmd_p50_ms": ("ms", "lower"),
}

GATED = ("setup_s", "wall_s", "peak_rss_mb")

# name: (unit, better, end-to-end metric it moves, workload where it does)
PER_LAYER = {
    "records_io.load_ms": ("ms", "lower", "wall_s", "fit_corpus"),
    "records_io.extract_ms": ("ms", "lower", "wall_s", "fit_corpus"),
    "trials.classify_us": ("us", "lower", "write_p50_ms", "ledger_portfolio"),
    "special.calls": ("count", "lower", "fit_s, trials_per_s", "fit_corpus, validate_grid"),
    "special.values": ("count", "lower", "fit_s, trials_per_s", "fit_corpus, validate_grid"),
    "special.busy_ms": ("ms", "lower", "fit_s, trials_per_s", "fit_corpus, validate_grid"),
    "deconv.likelihood_matrix_ms": ("ms", "lower", "fit_s, bootstrap_s", "fit_corpus"),
    "deconv.newton_iters": ("count", "lower", "fit_s", "fit_corpus"),
    "deconv.fit_ms_per_iter": ("ms", "lower", "fit_s", "fit_corpus"),
    "deconv.bootstrap_replicate_ms": ("ms", "lower", "bootstrap_s", "fit_corpus"),
    "deconv.resample_ms": ("ms", "lower", "bootstrap_s", "fit_corpus"),
    "deconv.bootstrap_converged_ratio": ("ratio", "higher", "bootstrap_s", "fit_corpus"),
    "hcurve.h_values_us_per_z.dense": ("us", "lower", "trials_per_s, bootstrap_s", "validate_grid, fit_corpus"),
    "hcurve.h_values_us_per_z.sparse": ("us", "lower", "trials_per_s", "validate_grid"),
    "hcurve.z_evaluated": ("count", "lower", "trials_per_s", "validate_grid"),
    "hcurve.h_probability_us": ("us", "lower", "write_p50_ms", "ledger_portfolio"),
    "hcurve.z_for_h_ms": ("ms", "lower", "wall_s", "fit_corpus"),
    "freq_bounds.tau_hat_mixed_ms": ("ms", "lower", "wall_s", "ledger_portfolio"),
    "bayes_bounds.positive_result_us": ("us", "lower", "write_p50_ms", "ledger_portfolio"),
    "bayes_bounds.omega_hat_ms": ("ms", "lower", "wall_s", "ledger_portfolio"),
    "simulate.draw_ms": ("ms", "lower", "trials_per_s", "validate_grid"),
    "simulate.validate_self_ms": ("ms", "lower", "trials_per_s", "validate_grid"),
    "simulate.bins_checked": ("count", "higher", "trials_per_s", "validate_grid"),
    "ledger.propose_us.accepted.p50": ("us", "lower", "write_p50_ms", "ledger_portfolio"),
    "ledger.propose_us.accepted.p99": ("us", "lower", "write_p99_ms", "ledger_portfolio"),
    "ledger.propose_us.rejected": ("us", "lower", "write_p50_ms", "ledger_portfolio"),
    "ledger.propose_accept_ratio": ("ratio", "higher", "write_p50_ms", "ledger_portfolio"),
    "ledger.record_outcome_us.p50": ("us", "lower", "write_p50_ms", "ledger_portfolio"),
    "ledger.record_outcome_us.p99": ("us", "lower", "write_p99_ms", "ledger_portfolio"),
    "ledger.fsync_share": ("ratio", "lower", "write_p50_ms", "ledger_portfolio"),
    "ledger.status_us.p50": ("us", "lower", "read_p50_ms", "ledger_portfolio"),
    "ledger.status_us.p95": ("us", "lower", "read_p50_ms", "ledger_portfolio"),
    "ledger.replay_ms_per_1k_entries.small": ("ms", "lower", "replay_s", "ledger_portfolio"),
    "ledger.replay_ms_per_1k_entries.large": ("ms", "lower", "replay_s", "ledger_portfolio"),
    "ledger.entries": ("count", "higher", "replay_s", "ledger_portfolio"),
    "cli.interpreter_ms": ("ms", "lower", "cmd_p50_ms", "cli_pipeline"),
    "cli.import_ms": ("ms", "lower", "cmd_p50_ms", "cli_pipeline"),
    "cli.synth_ms": ("ms", "lower", "cmd_p50_ms", "cli_pipeline"),
    "cli.fit_ms": ("ms", "lower", "cmd_p50_ms", "cli_pipeline"),
    "cli.hcurve_ms": ("ms", "lower", "cmd_p50_ms", "cli_pipeline"),
    "cli.bounds_ms": ("ms", "lower", "cmd_p50_ms", "cli_pipeline"),
    "cli.ledger_ms": ("ms", "lower", "cmd_p50_ms", "cli_pipeline"),
    "cli.simulate_ms": ("ms", "lower", "cmd_p50_ms", "cli_pipeline"),
}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile q in [0, 100]; 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


class SpanView:
    """Queries over the spans of the traced passes."""

    def __init__(self, spans: list, pass_ids: list) -> None:
        self.spans = spans
        self.own = self_times(spans)
        self.pass_ids = pass_ids
        self.by_name = defaultdict(list)
        for index, rec in enumerate(spans):
            self.by_name[rec["name"]].append(index)

    def dur(self, index: int) -> float:
        rec = self.spans[index]
        return (rec["end"] - rec["start"]) / 1e6  # ms

    def durs(self, name: str, where=None) -> list:
        return [
            self.dur(i)
            for i in self.by_name[name]
            if where is None or where(self.spans[i])
        ]

    def per_pass(self, names, value) -> list:
        """value(span) summed over spans with any of ``names`` within each
        traced pass, one total per pass."""
        totals = {run: 0.0 for run in self.pass_ids}
        for name in names:
            for i in self.by_name[name]:
                run = self.spans[i]["run"]
                if run in totals:
                    totals[run] += value(self.spans[i])
        return list(totals.values())

    def parent_name(self, index: int):
        parent = self.spans[index]["parent"]
        return None if parent is None else self.spans[parent]["name"]

    def layer_self_ms(self) -> dict:
        """Self time per layer, summed over the traced passes (ms)."""
        totals = defaultdict(float)
        for rec, own in zip(self.spans, self.own):
            if rec["run"] in self.pass_ids:
                totals[rec["layer"]] += own / 1e6
        return dict(totals)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(view: SpanView) -> dict:
    """Every PER_LAYER metric; layers the workload never calls read 0."""
    v = view
    m = {}
    m["records_io.load_ms"] = median(v.durs("records_io.records_from_csv"))
    m["records_io.extract_ms"] = median(v.durs("records_io.extract_observations"))
    m["trials.classify_us"] = 1e3 * median(v.durs("trials.classify_rejection"))

    special = [n for n in v.by_name if n.startswith("special.")]
    m["special.calls"] = median(v.per_pass(special, lambda s: 1.0))
    m["special.values"] = median(v.per_pass(special, lambda s: s["n"]))
    m["special.busy_ms"] = median(
        v.per_pass(special, lambda s: (s["end"] - s["start"]) / 1e6)
    )

    m["deconv.likelihood_matrix_ms"] = median(v.durs("deconv.likelihood_matrix"))
    in_path = [
        i for i in v.by_name["deconv.fit_g"]
        if v.parent_name(i) == "deconv.fit_g_path"
    ]
    iters_by_pass = {run: 0 for run in v.pass_ids}
    for i in in_path:
        run = v.spans[i]["run"]
        if run in iters_by_pass:
            iters_by_pass[run] += v.spans[i]["iterations"]
    m["deconv.newton_iters"] = median(list(iters_by_pass.values()))
    m["deconv.fit_ms_per_iter"] = _ratio(
        sum(v.durs("deconv.fit_g_path")), sum(iters_by_pass.values())
    )
    replicate_ms = []
    for b in v.by_name["deconv.bootstrap"]:
        starts = [
            v.spans[i]["start"]
            for i in v.by_name["deconv.ObservationSet.resample"]
            if v.spans[i]["parent"] == b
        ]
        edges = starts + [v.spans[b]["end"]]
        replicate_ms += [(b2 - b1) / 1e6 for b1, b2 in zip(edges, edges[1:])]
    m["deconv.bootstrap_replicate_ms"] = median(replicate_ms)
    m["deconv.resample_ms"] = median(v.durs("deconv.ObservationSet.resample"))
    boots = [v.spans[i] for i in v.by_name["deconv.bootstrap"]]
    m["deconv.bootstrap_converged_ratio"] = _ratio(
        sum(s["converged"] for s in boots), sum(s["replicates"] for s in boots)
    )

    for kind, sparse in (("dense", False), ("sparse", True)):
        picked = [
            v.spans[i] for i in v.by_name["hcurve.h_values"]
            if v.spans[i].get("sparse") == sparse
        ]
        m[f"hcurve.h_values_us_per_z.{kind}"] = _ratio(
            sum(s["end"] - s["start"] for s in picked) / 1e3,
            sum(s["n"] for s in picked),
        )
    m["hcurve.z_evaluated"] = median(
        v.per_pass(["hcurve.h_values"], lambda s: s["n"])
    )
    m["hcurve.h_probability_us"] = 1e3 * median(v.durs("hcurve.h_probability"))
    m["hcurve.z_for_h_ms"] = median(v.durs("hcurve.z_for_h"))

    m["freq_bounds.tau_hat_mixed_ms"] = median(v.durs("freq_bounds.tau_hat_mixed"))
    m["bayes_bounds.positive_result_us"] = 1e3 * median(
        v.durs("bayes_bounds.positive_result")
    )
    m["bayes_bounds.omega_hat_ms"] = median(v.durs("bayes_bounds.omega_hat"))

    m["simulate.draw_ms"] = median(v.durs("simulate.draw_population"))
    m["simulate.validate_self_ms"] = median(
        [v.own[i] / 1e6 for i in v.by_name["simulate.validate_bounds"]]
    )
    m["simulate.bins_checked"] = median(
        v.per_pass(["simulate.validate_bounds"], lambda s: s["bins_checked"])
    )

    accepted = v.durs("ledger.Ledger.propose", lambda s: s["accepted"])
    rejected = v.durs("ledger.Ledger.propose", lambda s: not s["accepted"])
    m["ledger.propose_us.accepted.p50"] = 1e3 * median(accepted)
    m["ledger.propose_us.accepted.p99"] = 1e3 * percentile(accepted, 99)
    m["ledger.propose_us.rejected"] = 1e3 * median(rejected)
    m["ledger.propose_accept_ratio"] = _ratio(
        len(accepted), len(accepted) + len(rejected)
    )
    outcome = v.durs("ledger.Ledger.record_outcome")
    m["ledger.record_outcome_us.p50"] = 1e3 * median(outcome)
    m["ledger.record_outcome_us.p99"] = 1e3 * percentile(outcome, 99)
    writes = (
        "ledger.Ledger.propose",
        "ledger.Ledger.record_outcome",
        "ledger.Ledger.record_adjustment",
    )
    fsync_ms = [
        v.dur(i) for i in v.by_name["ledger.fsync"] if v.parent_name(i) in writes
    ]
    m["ledger.fsync_share"] = _ratio(
        sum(fsync_ms), sum(sum(v.durs(name)) for name in writes)
    )
    status = v.durs("ledger.Ledger.status")
    m["ledger.status_us.p50"] = 1e3 * median(status)
    m["ledger.status_us.p95"] = 1e3 * percentile(status, 95)
    for size in ("small", "large"):
        opened = [
            v.spans[i] for i in v.by_name["ledger.Ledger.open"]
            if v.spans[i].get("probe") == size
        ]
        m[f"ledger.replay_ms_per_1k_entries.{size}"] = _ratio(
            sum(s["end"] - s["start"] for s in opened) / 1e6,
            sum(s["entries"] for s in opened) / 1e3,
        )
    # Entries in both files at the final replay of each pass.
    m["ledger.entries"] = median(v.per_pass(
        ["ledger.Ledger.open"],
        lambda s: s["entries"] if v.spans[s["parent"]]["name"] == "bench.replay"
        else 0,
    ))

    for step in (
        "interpreter", "import", "synth", "fit", "hcurve", "bounds",
        "ledger", "simulate",
    ):
        m[f"cli.{step}_ms"] = median(v.durs(f"cli.{step}"))
    return m
