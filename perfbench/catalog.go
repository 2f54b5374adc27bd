package main

// The metric catalog. BENCHMARK.json at the repository root lists the
// same names, units and directions (the benchmark's tests hold the two
// in step); this file adds what the JSON has no room for: each workload's
// load shape, and for each layer metric the layer it reads and the
// end-to-end metric it should move, on which workload.

// workloadDef records why a workload exists and how it loads the system.
type workloadDef struct {
	name string
	// loop is "closed" (the next op waits for the previous) or "open"
	// (ops leave on a fixed schedule).
	loop string
	// load is the client count (closed loop) or offered rate (open loop).
	load string
	why  string
}

var workloads = []workloadDef{
	{
		name: "follow-me", loop: "closed", load: "1 client",
		why: "the paper's headline op: a 2.0 MB media player ping-pongs between two mdagentd hosts; loads migrate, state codec, transport, ctl dispatch; federation ack and fsync idle",
	},
	{
		name: "durable-write", loop: "open", load: "80 puts/s",
		why: "quorum puts (seeded ~1 KB frames, 1 in 8 >= 64 KB) to a 3-center federation with disk stores; loads federation ack, store WAL/fsync/blob, watch push",
	},
	{
		name: "control-plane", loop: "closed", load: "1 client",
		why: "install a signed 64 KB bundle on both hosts, run, seeded Info/Apps/Snapshots/Members reads, stop; loads bundle verify, registry scans, many small ctl RPCs",
	},
	{
		name: "crash-failover", loop: "closed", load: "1 trial at a time",
		why: "crash the app's host in an in-process 3-host federation (netsim, real gossip timers); the only workload for SWIM detection and rehome/restore",
	},
}

// manifestWhy is the workload's one-line "why" in BENCHMARK.json: its
// load shape, then the reason it exists.
func (w workloadDef) manifestWhy() string {
	return w.loop + " loop, " + w.load + ": " + w.why
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// metricDef is one metric of the catalog.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share a change may worsen it by
	// layer is the package a per-layer metric reads ("" for end-to-end).
	layer string
	// moves names the end-to-end metric and workload the layer metric
	// should move; "" for end-to-end metrics and for the traced run's
	// own bookkeeping.
	moves string
	what  string
}

// endToEnd are the figures a user of the system sees. Every workload
// reports every one of them; "op" is the workload's own headline
// operation: a migration on follow-me, a quorum put timed from its
// scheduled send on durable-write, a bundle install on control-plane,
// and the crash-to-running outage on crash-failover. Latencies come from
// operations that ran while the hypervisor left the machine quiet
// (steal.go). The gated tail is the op's p90: on a shared 2-vCPU host
// the op p99 and the watch p90 of a run moved by more than any allowed
// bound from run to run, so they go to the detail line instead
// (migrate_p99_ms, put_p99_ms, install_p99_ms, watch_p90_ms). A tail is
// reported only when ten samples lie beyond it. fail_share (failed or
// check-failed ops over ops attempted) is the result's failed/attempted
// pair, since it is 0 whenever the system is correct.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25,
		what: "launch until ready, converged and warmed up; median of several set-ups"},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25,
		what: "median latency of the workload's headline operation"},
	{name: "op_p90_ms", unit: "ms", better: "lower", bound: 0.25,
		what: "p90 latency of the headline operation"},
	{name: "watch_p50_ms", unit: "ms", better: "lower", bound: 0.25,
		what: "watch delivery: receive time minus publish time, same host clock"},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15,
		what: "summed VmHWM of the processes under test, read when the base window ends"},
}

// perLayer are read from a traced run. A layer a workload leaves idle
// reads 0 there: that zero is the prediction ("idle elsewhere") checked.
// The follow-me parts (ctl.dispatch_ms, migrate.*_ms and
// trace.unattributed_ms) are means over the median band of traced
// migrations (40th to 60th percentile), so they add up to the op p50.
var perLayer = []metricDef{
	{name: "ctl.info_rtt_us", unit: "us", better: "lower", layer: "internal/ctl",
		moves: "read latency (detail read_p50_us) on control-plane", what: "Info round trip p50"},
	{name: "ctl.read_p50_us", unit: "us", better: "lower", layer: "internal/ctl",
		moves: "read latency on control-plane", what: "Info/Apps/Snapshots/Members round trip p50"},
	{name: "ctl.dispatch_ms", unit: "ms", better: "lower", layer: "internal/ctl",
		moves: "op_p50_ms on follow-me", what: "client-observed migrate time minus the trace's root span, median-band mean"},
	{name: "migrate.suspend_ms", unit: "ms", better: "lower", layer: "internal/migrate",
		moves: "op_p50_ms and op_p90_ms on follow-me", what: "suspend span self time, median-band mean"},
	{name: "migrate.capture_ms", unit: "ms", better: "lower", layer: "internal/migrate",
		moves: "op_p50_ms and op_p90_ms on follow-me", what: "capture span self time, median-band mean"},
	{name: "migrate.transfer_self_ms", unit: "ms", better: "lower", layer: "internal/migrate",
		moves: "op_p50_ms and op_p90_ms on follow-me", what: "transfer minus the nested restore and rebind spans, median-band mean"},
	{name: "migrate.restore_ms", unit: "ms", better: "lower", layer: "internal/migrate",
		moves: "op_p50_ms and op_p90_ms on follow-me", what: "restore span self time, median-band mean"},
	{name: "migrate.rebind_ms", unit: "ms", better: "lower", layer: "internal/migrate",
		moves: "op_p50_ms and op_p90_ms on follow-me", what: "rebind span self time, median-band mean"},
	{name: "migrate.bytes", unit: "bytes", better: "lower", layer: "internal/migrate",
		moves: "op_p50_ms on follow-me", what: "bytes moved per migration, p50"},
	{name: "state.encode_ms", unit: "ms", better: "lower", layer: "internal/state",
		moves: "op_p50_ms on follow-me and crash-failover", what: "EncodeWrap of a follow-me-sized wrap, p50"},
	{name: "state.decode_ms", unit: "ms", better: "lower", layer: "internal/state",
		moves: "op_p50_ms on follow-me and crash-failover", what: "DecodeWrap of a follow-me-sized wrap, p50"},
	{name: "repl.full_bytes", unit: "bytes", better: "lower", layer: "internal/state",
		moves: "op_p50_ms on follow-me and crash-failover", what: "full snapshot frame bytes replicated in the traced window"},
	{name: "repl.delta_bytes", unit: "bytes", better: "lower", layer: "internal/state",
		moves: "op_p50_ms on follow-me and crash-failover", what: "delta frame bytes replicated in the traced window"},
	{name: "repl.skipped_clean", unit: "count", better: "higher", layer: "internal/state",
		moves: "op_p50_ms on follow-me", what: "replicator ticks skipped because the app was clean"},
	{name: "transport.rtt_us", unit: "us", better: "lower", layer: "internal/transport",
		moves: "op_p50_ms on follow-me and durable-write", what: "64-byte echo between two ListenTCP nodes, p50"},
	{name: "transport.bulk_mb_s", unit: "MB/s", better: "higher", layer: "internal/transport",
		moves: "op_p50_ms on follow-me and durable-write", what: "migration-sized payload one way plus empty reply"},
	{name: "fed.ack_wait_p50_ms", unit: "ms", better: "lower", layer: "internal/cluster",
		moves: "op_p50_ms and op_p90_ms on durable-write", what: "mdagent_fed_ack_wait_ns p50 at the writing center"},
	{name: "fed.pushes", unit: "count", better: "lower", layer: "internal/cluster",
		moves: "op_p50_ms and op_p90_ms on durable-write", what: "federation pushes in the traced window"},
	{name: "fed.nacks", unit: "count", better: "lower", layer: "internal/cluster",
		moves: "op_p90_ms on durable-write", what: "federation nacks in the traced window"},
	{name: "fed.async_put_p50_ms", unit: "ms", better: "lower", layer: "internal/cluster",
		moves: "op_p50_ms on durable-write", what: "the same puts at async concern; quorum minus async is the ack cost"},
	{name: "gossip.bytes_per_msg", unit: "bytes", better: "lower", layer: "internal/cluster",
		moves: "op_p50_ms and op_p90_ms on crash-failover", what: "gossip bytes over gossip messages"},
	{name: "failover.detect_ms", unit: "ms", better: "lower", layer: "internal/cluster",
		moves: "op_p50_ms and op_p90_ms on crash-failover", what: "kill until the host-dead event, p50"},
	{name: "failover.rehome_ms", unit: "ms", better: "lower", layer: "internal/core",
		moves: "op_p50_ms and op_p90_ms on crash-failover", what: "host-dead event until the app runs on a survivor, p50"},
	{name: "store.put_wait_p50_us", unit: "us", better: "lower", layer: "internal/store",
		moves: "op_p90_ms on durable-write, read tail on control-plane", what: "mdagent_store_put_wait_seconds p50"},
	{name: "store.fsync_p50_ms", unit: "ms", better: "lower", layer: "internal/store",
		moves: "op_p90_ms on durable-write", what: "mdagent_store_fsync_seconds p50"},
	{name: "store.batch_frames_mean", unit: "frames", better: "higher", layer: "internal/store",
		moves: "op_p90_ms on durable-write", what: "WAL group-commit batch size, mean"},
	{name: "store.wal_bytes_per_put", unit: "bytes", better: "lower", layer: "internal/store",
		moves: "op_p90_ms on durable-write", what: "WAL bytes over store puts"},
	{name: "store.compactions", unit: "count", better: "lower", layer: "internal/store",
		moves: "op_p90_ms on durable-write", what: "compactions in the traced window"},
	{name: "registry.apps_extra_us", unit: "us", better: "lower", layer: "internal/registry",
		moves: "read latency on control-plane", what: "Apps round trip minus Info round trip, p50s"},
	{name: "bundle.verify_ms", unit: "ms", better: "lower", layer: "internal/bundle",
		moves: "op_p50_ms on control-plane", what: "bundle.Open (decode and verify) of the pushed bundle, p50"},
	{name: "bundle.installs", unit: "count", better: "higher", layer: "internal/bundle",
		moves: "op_p50_ms on control-plane", what: "mdagent_bundle_installs_total in the traced window"},
	{name: "watch.events", unit: "count", better: "higher", layer: "internal/ctl",
		moves: "watch_p50_ms", what: "mdagent_ctl_watch_events_total in the traced window"},
	{name: "watch.dropped", unit: "count", better: "lower", layer: "internal/ctl",
		moves: "watch_p50_ms", what: "mdagent_ctl_watch_dropped_total in the traced window"},
	{name: "kernel.publishes", unit: "count", better: "lower", layer: "internal/ctxkernel",
		moves: "watch_p50_ms", what: "mdagent_kernel_publish_total in the traced window"},
	{name: "gen.late_p90_ms", unit: "ms", better: "lower", layer: "perfbench",
		moves: "op_p90_ms on durable-write", what: "how late the open-loop generator sent, p90 (the traced phase is too short for a p99)"},
	{name: "trace.op_p50_ms", unit: "ms", better: "lower", layer: "perfbench",
		what: "headline op p50 in the traced phase"},
	{name: "trace.unattributed_ms", unit: "ms", better: "lower", layer: "perfbench",
		what: "headline op time no layer figure covers"},
	{name: "trace.overhead_ms", unit: "ms", better: "lower", layer: "perfbench",
		what: "traced-phase op p50 minus untraced-phase op p50 on the same set-up"},
}
