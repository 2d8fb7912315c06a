#!/usr/bin/env python3
"""Validates BENCH_policy.json / BENCH_rpc.json / BENCH_coherence.json /
BENCH_admission.json / BENCH_fault.json / BENCH_storage.json /
BENCH_obs.json / BENCH_overload.json against schema_version 1.

Stdlib only, so the bench-smoke CI job and tools/run_bench.sh can call it
anywhere a python3 exists. Checks required keys per tier, tier-set shape
(the rpc bench must carry the 1-connection speedup tiers and the 64/256
connections sweep; the coherence bench monotone cluster sizes), and basic
sanity (positive throughput, monotone credential tiers, survivor/hit
rates in [0, 1]). Exits non-zero with a per-file error list on any
violation.

Usage: check_bench_schema.py BENCH_policy.json BENCH_rpc.json \
           BENCH_coherence.json BENCH_admission.json
       (pass any subset, in any order; files are dispatched on their
        "bench" field)
"""

import json
import sys

POLICY_TIER_KEYS = {
    "credentials",
    "principals",
    "admit_s",
    "indexed_miss_us",
    "fullscan_miss_us",
    "warm_hit_ops_per_s",
    "warm_hit_rate",
    "survivor_hit_rate_after_submit",
    "invalidated_principals",
    "indexed_matches_fullscan",
}
MISS_KEYS = {"mean", "p50", "p99"}

RPC_TOP_KEYS = {
    "bench",
    "schema_version",
    "handler_simulated_io_us",
    "pipeline_speedup_1conn",
    "thread_delta_64_to_256",
    "results",
}
RPC_TIER_KEYS = {
    "connections",
    "inflight",
    "ops",
    "ops_per_s",
    "p50_us",
    "p99_us",
    "threads",
}
# The speedup gate needs both of these present...
RPC_REQUIRED_TIERS = {(1, 1), (1, 64)}
# ...and the flat-thread gate needs the connections sweep.
RPC_REQUIRED_SWEEP_CONNECTIONS = {64, 256}

ADMISSION_TOP_KEYS = {
    "bench",
    "schema_version",
    "verify_speedup",
    "admit_scaling_1_to_8",
    "scaling_gate_enforced",
    "results",
}
ADMISSION_TIER_KEYS = {
    "credentials",
    "verify_ref_us",
    "verify_fast_us",
    "admit_per_s_1t",
    "admit_per_s_4t",
    "admit_per_s_8t",
    "sig_cache_hit_rate",
    "resubmit_per_s",
}

FAULT_TOP_KEYS = {
    "bench",
    "schema_version",
    "cluster_size",
    "warm_principals",
    "churn_events_total",
    "mesh_form_s",
    "rolling_restarts",
    "partition_heal_converge_s",
    "revocation_syncs_total",
    "revocations_pulled_total",
    "full_invalidations_total",
    "revocation_violations",
    "trace_nodes_observed",
    "restarts",
}
FAULT_RESTART_KEYS = {
    "node",
    "recovered_incarnation",
    "recovered_events",
    "rejoin_s",
    "survivor_hit_rate",
}

STORAGE_TOP_KEYS = {
    "bench",
    "schema_version",
    "file_mb",
    "latency_model",
    "cold_latency",
    "cached_latency",
    "cached_fast",
    "nfs",
    "warm_read_speedup",
    "rewrite_hit_rate",
    "fsck_clean_all",
}
STORAGE_COLD_KEYS = {
    "seq_input_block_kb_s",
    "device_reads",
    "readaheads",
    "fsck_clean",
}
STORAGE_CACHED_KEYS = {
    "seq_output_block_kb_s",
    "seq_input_block_warm_kb_s",
    "seq_rewrite_kb_s",
    "rewrite_hit_rate",
    "writebacks",
    "device_reads",
    "device_writes",
    "fsck_clean",
}
STORAGE_FAST_KEYS = {
    "seq_output_char_kb_s",
    "seq_output_block_kb_s",
    "seq_rewrite_kb_s",
    "seq_input_char_kb_s",
    "seq_input_block_kb_s",
    "fsck_clean",
}
STORAGE_NFS_KEYS = {
    "read_ops_s_1t",
    "read_ops_s_4t",
    "scaling_1_to_4",
    "gate_enforced",
    "fsck_clean",
}

OBS_TOP_KEYS = {
    "bench",
    "schema_version",
    "gate_overhead_pct",
    "pipelined_rpc",
    "warm_admission",
    "scrape_ok",
    "pass",
}
OBS_PATH_KEYS = {
    "enabled_ops_per_s",
    "disabled_ops_per_s",
    "overhead_pct",
}

OVERLOAD_TOP_KEYS = {
    "bench",
    "schema_version",
    "corpus",
    "saturation_ops_s",
    "phases",
    "sub_saturation_p99_ms",
    "goodput_ratio_2x",
    "deadline",
    "handshake_flood",
    "load_gates_enforced",
}
OVERLOAD_CORPUS_KEYS = {
    "credentials",
    "principals",
    "intermediaries",
    "delegation_depth",
    "files",
    "read_bytes",
    "sign_s",
    "submit_s",
}
OVERLOAD_PHASE_KEYS = {
    "offered_x",
    "offered_ops_s",
    "duration_s",
    "sent",
    "ok",
    "shed",
    "deadline_exceeded",
    "other_errors",
    "goodput_ops_s",
    "p50_ms",
    "p99_ms",
    "control_sent",
    "control_ok",
    "control_errors",
    "shed_control",
    "shed_namespace",
    "shed_data",
}
OVERLOAD_DEADLINE_KEYS = {
    "deadline_ms",
    "per_op_us",
    "burst",
    "ok",
    "expired_replies",
    "other_errors",
    "late_ok",
    "server_expired_dropped",
}
OVERLOAD_FLOOD_KEYS = {
    "flood_connections",
    "peak_half_open",
    "pool_queue_peak",
    "pool_inflight_peak",
    "legit_ok",
    "legit_handshake_ms",
    "timeout_ms",
    "timed_out",
    "evicted",
    "completed",
    "drained",
}
# The open-loop sweep must carry these offered-rate multiples.
OVERLOAD_REQUIRED_PHASES = {0.5, 1.0, 2.0}

COHERENCE_TIER_KEYS = {
    "cluster_size",
    "warm_principals",
    "events",
    "events_per_s",
    "p50_us",
    "p99_us",
    "survivor_hit_rate_remote",
}


def check_policy(doc, errors):
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        errors.append("results must be a non-empty list")
        return
    last_credentials = 0
    for i, tier in enumerate(results):
        missing = POLICY_TIER_KEYS - tier.keys()
        if missing:
            errors.append(f"results[{i}] missing keys: {sorted(missing)}")
            continue
        for key in ("indexed_miss_us", "fullscan_miss_us"):
            sub = tier[key]
            if not isinstance(sub, dict) or MISS_KEYS - sub.keys():
                errors.append(f"results[{i}].{key} must have {sorted(MISS_KEYS)}")
        if tier["credentials"] <= last_credentials:
            errors.append(f"results[{i}] credentials tiers must increase")
        last_credentials = tier["credentials"]
        if tier["warm_hit_ops_per_s"] <= 0:
            errors.append(f"results[{i}] warm_hit_ops_per_s must be positive")
        if tier["indexed_matches_fullscan"] is not True:
            errors.append(f"results[{i}] indexed result diverged from fullscan")


def check_rpc(doc, errors):
    missing_top = RPC_TOP_KEYS - doc.keys()
    if missing_top:
        errors.append(f"missing top-level keys: {sorted(missing_top)}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        errors.append("results must be a non-empty list")
        return
    tiers = set()
    for i, tier in enumerate(results):
        missing = RPC_TIER_KEYS - tier.keys()
        if missing:
            errors.append(f"results[{i}] missing keys: {sorted(missing)}")
            continue
        tiers.add((tier["connections"], tier["inflight"]))
        if tier["ops_per_s"] <= 0:
            errors.append(f"results[{i}] ops_per_s must be positive")
        if tier["threads"] <= 0:
            errors.append(f"results[{i}] threads must be positive")
    missing_tiers = RPC_REQUIRED_TIERS - tiers
    if missing_tiers:
        errors.append(f"missing speedup tiers: {sorted(missing_tiers)}")
    connections = {c for c, _ in tiers}
    missing_sweep = RPC_REQUIRED_SWEEP_CONNECTIONS - connections
    if missing_sweep:
        errors.append(f"missing connections-sweep tiers: {sorted(missing_sweep)}")


def check_coherence(doc, errors):
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        errors.append("results must be a non-empty list")
        return
    last_size = 1
    for i, tier in enumerate(results):
        missing = COHERENCE_TIER_KEYS - tier.keys()
        if missing:
            errors.append(f"results[{i}] missing keys: {sorted(missing)}")
            continue
        if tier["cluster_size"] <= last_size:
            errors.append(f"results[{i}] cluster_size tiers must increase (>= 2)")
        last_size = tier["cluster_size"]
        if tier["events_per_s"] <= 0:
            errors.append(f"results[{i}] events_per_s must be positive")
        if not 0.0 <= tier["survivor_hit_rate_remote"] <= 1.0:
            errors.append(
                f"results[{i}] survivor_hit_rate_remote must be in [0, 1]"
            )
        if tier["p50_us"] <= 0 or tier["p99_us"] < tier["p50_us"]:
            errors.append(
                f"results[{i}] propagation percentiles must satisfy "
                "0 < p50_us <= p99_us"
            )


def check_admission(doc, errors):
    missing_top = ADMISSION_TOP_KEYS - doc.keys()
    if missing_top:
        errors.append(f"missing top-level keys: {sorted(missing_top)}")
    if "verify_speedup" in doc and doc["verify_speedup"] <= 0:
        errors.append("verify_speedup must be positive")
    if "admit_scaling_1_to_8" in doc and doc["admit_scaling_1_to_8"] <= 0:
        errors.append("admit_scaling_1_to_8 must be positive")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        errors.append("results must be a non-empty list")
        return
    last_credentials = 0
    for i, tier in enumerate(results):
        missing = ADMISSION_TIER_KEYS - tier.keys()
        if missing:
            errors.append(f"results[{i}] missing keys: {sorted(missing)}")
            continue
        for key in ("verify_ref_us", "verify_fast_us"):
            sub = tier[key]
            if not isinstance(sub, dict) or MISS_KEYS - sub.keys():
                errors.append(f"results[{i}].{key} must have {sorted(MISS_KEYS)}")
        if tier["credentials"] <= last_credentials:
            errors.append(f"results[{i}] credentials tiers must increase")
        last_credentials = tier["credentials"]
        for key in ("admit_per_s_1t", "admit_per_s_4t", "admit_per_s_8t",
                    "resubmit_per_s"):
            if tier[key] <= 0:
                errors.append(f"results[{i}] {key} must be positive")
        if not 0.0 <= tier["sig_cache_hit_rate"] <= 1.0:
            errors.append(f"results[{i}] sig_cache_hit_rate must be in [0, 1]")


def check_fault(doc, errors):
    missing_top = FAULT_TOP_KEYS - doc.keys()
    if missing_top:
        errors.append(f"missing top-level keys: {sorted(missing_top)}")
        return
    if doc["cluster_size"] < 2:
        errors.append("cluster_size must be >= 2")
    if doc["revocation_violations"] != 0:
        errors.append(
            f"revocation_violations must be 0, got {doc['revocation_violations']}"
        )
    if doc["full_invalidations_total"] != 0:
        errors.append(
            "full_invalidations_total must be 0 (clean restarts must "
            "recover by replay)"
        )
    if doc["churn_events_total"] <= 0:
        errors.append("churn_events_total must be positive")
    if doc["trace_nodes_observed"] != doc["cluster_size"]:
        errors.append(
            f"trace_nodes_observed must equal cluster_size (the traced "
            f"revocation's id must be logged at every node): "
            f"{doc['trace_nodes_observed']} != {doc['cluster_size']}"
        )
    restarts = doc["restarts"]
    if not isinstance(restarts, list) or not restarts:
        errors.append("restarts must be a non-empty list")
        return
    if len(restarts) != doc["rolling_restarts"]:
        errors.append("rolling_restarts must match len(restarts)")
    for i, restart in enumerate(restarts):
        missing = FAULT_RESTART_KEYS - restart.keys()
        if missing:
            errors.append(f"restarts[{i}] missing keys: {sorted(missing)}")
            continue
        if restart["recovered_incarnation"] is not True:
            errors.append(
                f"restarts[{i}] did not resume its incarnation after a "
                "clean restart"
            )
        if not 0.0 <= restart["survivor_hit_rate"] <= 1.0:
            errors.append(f"restarts[{i}] survivor_hit_rate must be in [0, 1]")
        if restart["survivor_hit_rate"] < 0.9:
            errors.append(
                f"restarts[{i}] survivor_hit_rate below the 0.9 gate"
            )


def check_storage(doc, errors):
    missing_top = STORAGE_TOP_KEYS - doc.keys()
    if missing_top:
        errors.append(f"missing top-level keys: {sorted(missing_top)}")
        return
    for section, keys in (
        ("cold_latency", STORAGE_COLD_KEYS),
        ("cached_latency", STORAGE_CACHED_KEYS),
        ("cached_fast", STORAGE_FAST_KEYS),
        ("nfs", STORAGE_NFS_KEYS),
    ):
        sub = doc[section]
        if not isinstance(sub, dict):
            errors.append(f"{section} must be an object")
            continue
        missing = keys - sub.keys()
        if missing:
            errors.append(f"{section} missing keys: {sorted(missing)}")
            continue
        for key in keys:
            if key == "fsck_clean" and sub[key] is not True:
                errors.append(f"{section}.fsck_clean must be true")
        for key in keys - {"fsck_clean", "gate_enforced", "rewrite_hit_rate",
                           "readaheads", "writebacks", "device_reads",
                           "device_writes"}:
            if sub[key] <= 0:
                errors.append(f"{section}.{key} must be positive")
    cold = doc["cold_latency"]
    if isinstance(cold, dict) and cold.get("device_reads", 0) <= 0:
        errors.append(
            "cold_latency.device_reads must be positive (a cold pass that "
            "never reads the device is not cold)"
        )
    if isinstance(cold, dict) and cold.get("readaheads", 0) <= 0:
        errors.append(
            "cold_latency.readaheads must be positive (per-file readahead "
            "must fire on a cold sequential stream)"
        )
    if doc["warm_read_speedup"] < 3.0:
        errors.append(
            f"warm_read_speedup below the 3x gate: {doc['warm_read_speedup']}"
        )
    if not 0.0 <= doc["rewrite_hit_rate"] <= 1.0:
        errors.append("rewrite_hit_rate must be in [0, 1]")
    if doc["rewrite_hit_rate"] < 0.9:
        errors.append(
            f"rewrite_hit_rate below the 0.9 gate: {doc['rewrite_hit_rate']}"
        )
    if doc["fsck_clean_all"] is not True:
        errors.append("fsck_clean_all must be true")
    nfs = doc["nfs"]
    if isinstance(nfs, dict) and nfs.get("gate_enforced") is True:
        if nfs.get("scaling_1_to_4", 0) < 1.5:
            errors.append(
                "nfs.scaling_1_to_4 below the 1.5x gate with gate_enforced"
            )


def check_obs(doc, errors):
    missing_top = OBS_TOP_KEYS - doc.keys()
    if missing_top:
        errors.append(f"missing top-level keys: {sorted(missing_top)}")
        return
    gate = doc["gate_overhead_pct"]
    if gate <= 0:
        errors.append("gate_overhead_pct must be positive")
    for path in ("pipelined_rpc", "warm_admission"):
        sub = doc[path]
        if not isinstance(sub, dict) or OBS_PATH_KEYS - sub.keys():
            errors.append(f"{path} must have {sorted(OBS_PATH_KEYS)}")
            continue
        for key in ("enabled_ops_per_s", "disabled_ops_per_s"):
            if sub[key] <= 0:
                errors.append(f"{path}.{key} must be positive")
        if sub["overhead_pct"] > gate:
            errors.append(
                f"{path}.overhead_pct {sub['overhead_pct']} exceeds the "
                f"{gate}% gate"
            )
    if doc["scrape_ok"] is not True:
        errors.append("scrape_ok must be true (kServerStats scrape failed)")
    if doc["pass"] is not True:
        errors.append("pass must be true (the bench's own gates failed)")


def check_overload(doc, errors):
    missing_top = OVERLOAD_TOP_KEYS - doc.keys()
    if missing_top:
        errors.append(f"missing top-level keys: {sorted(missing_top)}")
        return
    corpus = doc["corpus"]
    if not isinstance(corpus, dict) or OVERLOAD_CORPUS_KEYS - corpus.keys():
        errors.append(f"corpus must have {sorted(OVERLOAD_CORPUS_KEYS)}")
        return
    if corpus["principals"] < corpus["credentials"]:
        errors.append("corpus.principals must be >= corpus.credentials")
    if corpus["delegation_depth"] < 2:
        errors.append("corpus.delegation_depth must be >= 2 (chained trust)")
    if doc["saturation_ops_s"] <= 0:
        errors.append("saturation_ops_s must be positive")
    phases = doc["phases"]
    if not isinstance(phases, list) or not phases:
        errors.append("phases must be a non-empty list")
        return
    seen_x = set()
    for i, phase in enumerate(phases):
        missing = OVERLOAD_PHASE_KEYS - phase.keys()
        if missing:
            errors.append(f"phases[{i}] missing keys: {sorted(missing)}")
            continue
        seen_x.add(phase["offered_x"])
        if phase["shed_control"] != 0:
            errors.append(
                f"phases[{i}] shed_control must be 0 (control-plane work "
                f"was dropped under load): {phase['shed_control']}"
            )
        if phase["control_errors"] != 0:
            errors.append(
                f"phases[{i}] control_errors must be 0: "
                f"{phase['control_errors']}"
            )
        if phase["other_errors"] != 0:
            errors.append(
                f"phases[{i}] other_errors must be 0: {phase['other_errors']}"
            )
        if phase["offered_x"] >= 2.0 and phase["shed_data"] <= 0:
            errors.append(
                f"phases[{i}] shed_data must be positive at 2x saturation "
                "(the server must shed, not queue without bound)"
            )
    missing_x = OVERLOAD_REQUIRED_PHASES - seen_x
    if missing_x:
        errors.append(f"missing offered-rate phases: {sorted(missing_x)}")
    deadline = doc["deadline"]
    if (not isinstance(deadline, dict)
            or OVERLOAD_DEADLINE_KEYS - deadline.keys()):
        errors.append(f"deadline must have {sorted(OVERLOAD_DEADLINE_KEYS)}")
        return
    if deadline["server_expired_dropped"] <= 0:
        errors.append(
            "deadline.server_expired_dropped must be positive (the server "
            "never dropped expired work at dequeue)"
        )
    if deadline["expired_replies"] <= 0:
        errors.append("deadline.expired_replies must be positive")
    if deadline["late_ok"] != 0:
        errors.append(
            f"deadline.late_ok must be 0 (the server executed work whose "
            f"deadline had already expired): {deadline['late_ok']}"
        )
    if deadline["other_errors"] != 0:
        errors.append(
            f"deadline.other_errors must be 0: {deadline['other_errors']}"
        )
    flood = doc["handshake_flood"]
    if not isinstance(flood, dict) or OVERLOAD_FLOOD_KEYS - flood.keys():
        errors.append(
            f"handshake_flood must have {sorted(OVERLOAD_FLOOD_KEYS)}"
        )
        return
    if flood["peak_half_open"] < flood["flood_connections"]:
        errors.append(
            "handshake_flood.peak_half_open must reach flood_connections"
        )
    if flood["pool_queue_peak"] != 0 or flood["pool_inflight_peak"] != 0:
        errors.append(
            "handshake_flood pool peaks must be 0 (half-open connections "
            "reached the worker pool)"
        )
    if flood["legit_ok"] is not True:
        errors.append(
            "handshake_flood.legit_ok must be true (a legitimate client "
            "could not handshake during the flood)"
        )
    if flood["legit_handshake_ms"] >= flood["timeout_ms"]:
        errors.append(
            "handshake_flood.legit_handshake_ms must beat the handshake "
            "timeout"
        )
    if flood["drained"] is not True:
        errors.append(
            "handshake_flood.drained must be true (half-open connections "
            "were not reaped after the timeout)"
        )
    if doc["load_gates_enforced"] is True:
        if doc["sub_saturation_p99_ms"] > 50.0:
            errors.append(
                f"sub_saturation_p99_ms above the 50ms gate: "
                f"{doc['sub_saturation_p99_ms']}"
            )
        if doc["goodput_ratio_2x"] < 0.7:
            errors.append(
                f"goodput_ratio_2x below the 0.7 gate: "
                f"{doc['goodput_ratio_2x']}"
            )


CHECKERS = {
    "policy_scaling": check_policy,
    "rpc_pipeline": check_rpc,
    "coherence_propagation": check_coherence,
    "admission_scaling": check_admission,
    "fault_injection": check_fault,
    "storage_scaling": check_storage,
    "obs_overhead": check_obs,
    "overload": check_overload,
}


def check_file(path):
    errors = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [str(e)]
    if doc.get("schema_version") != 1:
        errors.append(f"schema_version must be 1, got {doc.get('schema_version')}")
    checker = CHECKERS.get(doc.get("bench"))
    if checker is None:
        errors.append(f"unknown bench kind: {doc.get('bench')!r}")
    else:
        checker(doc, errors)
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        errors = check_file(path)
        if errors:
            failed = True
            print(f"{path}: FAIL")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
