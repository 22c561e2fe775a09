"""Turns a cellbench_driver result into metrics and output checks.

The driver writes one JSON object: `meta`, `peak_rss_mb` and `cells`, one
entry per training cell it ran (see driver.cpp, cell_json).  Untraced cells
ran through ScenarioRunner::run; traced cells were built by the driver with
timing wrappers and carry per-round `layers` totals.
"""

import statistics

import stats

# Fields of a round record that a traced cell must reproduce bit for bit.
# engine_seconds is a wall time and is left out.
DETERMINISTIC_FIELDS = (
    "round", "accuracy", "accuracy_min", "accuracy_max", "loss", "lr",
    "disagreement", "gradient_diameter", "sim_seconds", "bytes_delivered",
    "bytes_dense", "live_clients", "cohort", "shards", "degraded")

END_TO_END_UNITS = {
    "round_s.p50": "s",
    "round_s.p90": "s",
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

PER_LAYER_UNITS = {
    "ml.forward.busy_s": "s/round",
    "ml.backward.busy_s": "s/round",
    "ml.grad.calls": "1/round",
    "attacks.corrupt.busy_s": "s/round",
    "compression.encode.busy_s": "s/round",
    "compression.encode.calls": "1/round",
    "compression.ratio": "ratio",
    "aggregation.busy_s": "s/round",
    "aggregation.calls": "1/round",
    "aggregation.us_per_call": "us",
    "aggregation.rows_per_call": "rows",
    "aggregation.wall_share": "frac",
    "agreement.subrounds": "1/round",
    "agreement.builds_per_subround": "1/subround",
    "agreement.share_hit_ratio": "frac",
    "network.messages": "1/round",
    "network.bytes": "B/round",
    "network.drop_ratio": "frac",
    "network.late_ratio": "frac",
    "network.timeouts": "1/round",
    "round.unattributed_share": "frac",
    "setup.dataset_s": "s",
    "setup.trainer_s": "s",
    "trace.overhead_frac": "frac",
}


def spec_fields(spec):
    """The key=value tokens of a scenario string as a dict."""
    return dict(token.split("=", 1) for token in spec.split())


def deterministic_view(cell):
    """What a traced cell must agree on with the untraced cell of its spec:
    the round records without wall times, and the protocol counters (log.*
    counters are published by ScenarioRunner only)."""
    rounds = [tuple(r[k] for k in DETERMINISTIC_FIELDS)
              for r in cell["history"]]
    counters = {k: v for k, v in cell["counters"].items()
                if not k.startswith("log.")}
    return rounds, counters


def check_cell(cell, workload):
    """Output checks of one cell; returns the list of failures."""
    failures = []
    rounds = workload["rounds"]
    if cell["error"]:
        failures.append("cell error: " + cell["error"])
    history = cell["history"]
    if len(history) != rounds:
        failures.append("ran %d of %d rounds" % (len(history), rounds))
        return failures
    final = history[-1]["accuracy"]
    if final < workload["min_accuracy"]:
        failures.append("final accuracy %.4f below the floor %.4f"
                        % (final, workload["min_accuracy"]))
    # Agreement must not leave the honest outputs farther apart than the
    # honest inputs were; a ratio of 0 demands exact agreement.
    ratio = workload["max_disagreement_ratio"]
    for r in history:
        if r["disagreement"] > ratio * r["gradient_diameter"]:
            failures.append("round %d: honest disagreement %r above %g x "
                            "the honest gradient diameter %r"
                            % (r["round"], r["disagreement"], ratio,
                               r["gradient_diameter"]))
            break
    c = cell["counters"]
    if "net.rounds" in c:
        fields = spec_fields(cell["spec"])
        n, f = int(fields["n"]), int(fields["f"])
        # Every (sender, honest receiver, sub-round) carries at most one
        # message, so delivered + dropped + late cannot exceed that.
        sent_bound = n * (n - f) * c["agreement.subrounds"]
        accounted = (c["net.messages_delivered"] + c["net.messages_dropped"]
                     + c["net.messages_late"])
        if accounted > sent_bound:
            failures.append("network: delivered+dropped+late %d > %d sent"
                            % (accounted, sent_bound))
        if c["net.bytes_delivered"] > c["net.bytes_sent"]:
            failures.append("network: %d bytes delivered > %d sent"
                            % (c["net.bytes_delivered"], c["net.bytes_sent"]))
    return failures


def check_run(result, workload):
    """Output checks of every cell, and transparency of each traced cell
    against the untraced cell of the same spec before it.  Returns
    (attempted rounds, failed rounds, failures)."""
    cells = result["cells"]
    failed_cells = set()
    failures = []
    for i, cell in enumerate(cells):
        for failure in check_cell(cell, workload):
            failures.append("cell %d: %s" % (i, failure))
            failed_cells.add(i)
        if cell["traced"] and not cell["error"]:
            before = cells[i - 1] if i > 0 else None
            if before is None or before["traced"] or \
                    before["spec"] != cell["spec"] or \
                    deterministic_view(before) != deterministic_view(cell):
                failures.append("cell %d: traced history differs from the "
                                "untraced ScenarioRunner run" % i)
                failed_cells.add(i)
    rounds = workload["rounds"]
    return rounds * len(cells), rounds * len(failed_cells), failures


def end_to_end(result, attempted, failed):
    """The end-to-end metrics of an untraced run."""
    cells = [c for c in result["cells"] if not c["traced"]]
    round_s = [s for c in cells for s in c["round_s"]]
    samples = 0
    for c in cells:
        # round_s[k] times round k + 1 (round 0 is not timed from outside).
        for k in range(len(c["round_s"])):
            samples += c["honest_uploaders"][k + 1] * c["batch"]
    return {
        "round_s.p50": stats.percentile(round_s, 50),
        "round_s.p90": stats.percentile(round_s, 90),
        "samples_per_s": samples / sum(round_s),
        "setup_s": statistics.median(c["setup_s"] for c in cells),
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(result):
    """The per-layer metrics of a traced run (see README.md for each)."""
    cells = result["cells"]
    traced = [c for c in cells if c["traced"] and c["layers"]]
    if not traced:
        raise ValueError("no traced cell completed")
    total = {}
    for c in traced:
        for name, values in c["layers"].items():
            total[name] = total.get(name, 0.0) + sum(values)
    rounds = sum(len(c["history"]) for c in traced)
    counter = {}
    for c in traced:
        for name, value in c["counters"].items():
            counter[name] = counter.get(name, 0) + value

    def cnt(name):
        return counter.get(name, 0)

    def per_round(total_value):
        return stats.per_round(total_value, rounds)

    subrounds = cnt("agreement.subrounds")
    builds = cnt("agreement.gram_builds")
    hits = cnt("agreement.shared_hits")
    messages = (cnt("net.messages_delivered") + cnt("net.messages_dropped")
                + cnt("net.messages_late"))
    bytes_delivered = sum(r["bytes_delivered"] for c in traced
                          for r in c["history"])

    # Overhead of the wrappers: median traced over median untraced round
    # time of the same spec (medians, so that the first cell's warm-up
    # rounds do not count as negative overhead).
    traced_s = [s for c in traced for s in c["round_s"]]
    untraced_s = [s for c in cells if not c["traced"] for s in c["round_s"]]

    return {
        "ml.forward.busy_s": per_round(total["forward_busy_s"]),
        "ml.backward.busy_s": per_round(total["backward_busy_s"]),
        "ml.grad.calls": per_round(total["grad_calls"]),
        "attacks.corrupt.busy_s": per_round(total["corrupt_busy_s"]),
        "compression.encode.busy_s": per_round(total["encode_busy_s"]),
        "compression.encode.calls": per_round(total["encode_calls"]),
        "compression.ratio": stats.ratio(total["encode_dense_bytes"],
                                         total["encode_wire_bytes"], 1.0),
        "aggregation.busy_s": per_round(total["agg_busy_s"]),
        "aggregation.calls": per_round(total["agg_calls"]),
        "aggregation.us_per_call": 1e6 * stats.ratio(total["agg_busy_s"],
                                                     total["agg_calls"]),
        "aggregation.rows_per_call": stats.ratio(total["agg_rows"],
                                                 total["agg_calls"]),
        "aggregation.wall_share": stats.ratio(total["agg_covered_s"],
                                              total["wall_s"]),
        "agreement.subrounds": per_round(subrounds),
        "agreement.builds_per_subround": stats.ratio(builds, subrounds),
        "agreement.share_hit_ratio": stats.ratio(hits, builds + hits),
        "network.messages": per_round(cnt("net.messages_delivered")),
        "network.bytes": per_round(bytes_delivered),
        "network.drop_ratio": stats.ratio(cnt("net.messages_dropped"),
                                          messages),
        "network.late_ratio": stats.ratio(cnt("net.messages_late"), messages),
        "network.timeouts": per_round(cnt("net.timeouts_fired")),
        "round.unattributed_share": 1.0 - stats.ratio(total["covered_s"],
                                                      total["wall_s"]),
        "setup.dataset_s": statistics.median(c["dataset_s"] for c in traced),
        "setup.trainer_s": statistics.median(c["trainer_s"] for c in traced),
        "trace.overhead_frac": stats.percentile(traced_s, 50)
        / stats.percentile(untraced_s, 50) - 1.0,
    }
