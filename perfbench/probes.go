package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/ctl"
	"mdagent/internal/obs"
	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// Probes time single layers through their public functions, outside any
// workload's critical path. They run in the traced phase only.

// probeTransport echoes between two of the benchmark's own ListenTCP
// nodes: the p50 round trip of a 64-byte payload, and the throughput of
// a bulk payload sent one way against an empty reply.
func probeTransport(ctx context.Context, rng *rand.Rand, bulkBytes int, reps int) (rttUs, bulkMBs float64, err error) {
	srv, err := transport.ListenTCP("perfbench-echo", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	srv.Endpoint().Handle("perfbench.echo", func(m transport.Message) ([]byte, error) { return m.Payload, nil })
	srv.Endpoint().Handle("perfbench.sink", func(transport.Message) ([]byte, error) { return nil, nil })
	cli, err := transport.ListenTCP("perfbench-probe", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer cli.Close()
	cli.AddPeer("perfbench-echo", srv.Addr())
	ep := cli.Endpoint()

	small := randBytes(rng, 64)
	var rtt samples
	for i := 0; i < reps*5+10; i++ {
		t0 := time.Now()
		if _, err := ep.Request(ctx, "perfbench-echo", "perfbench.echo", small); err != nil {
			return 0, 0, fmt.Errorf("transport echo: %w", err)
		}
		if i >= 10 {
			rtt.add(time.Since(t0))
		}
	}
	bulk := randBytes(rng, bulkBytes)
	var bulkT samples
	for i := 0; i < reps+2; i++ {
		t0 := time.Now()
		if _, err := ep.Request(ctx, "perfbench-echo", "perfbench.sink", bulk); err != nil {
			return 0, 0, fmt.Errorf("transport bulk: %w", err)
		}
		if i >= 2 {
			bulkT.add(time.Since(t0))
		}
	}
	return rtt.median() * 1000, float64(bulkBytes) / 1e6 / (bulkT.median() / 1000), nil
}

// probeCodec times EncodeWrap and DecodeWrap on a wrap of size bytes
// shaped like the follow-me player's (a big data blob plus small parts).
func probeCodec(rng *rand.Rand, size int, reps int) (encMs, decMs float64, err error) {
	w := app.Wrap{
		App: "codec-probe", FromHost: "probe",
		Components: map[string][]byte{
			"song":           randBytes(rng, size),
			"playback-state": randBytes(rng, 256),
		},
		Kinds:      map[string]app.ComponentKind{"song": app.KindData, "playback-state": app.KindState},
		CoordState: map[string]string{"position": "0"},
	}
	var enc, dec samples
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		raw, err := state.EncodeWrap(w)
		if err != nil {
			return 0, 0, err
		}
		enc.add(time.Since(t0))
		t0 = time.Now()
		if _, err := state.DecodeWrap(raw); err != nil {
			return 0, 0, err
		}
		dec.add(time.Since(t0))
	}
	return enc.median(), dec.median(), nil
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// scrape snapshots the obs registries behind several control-plane
// servers and merges them (counters add; histograms merge per name).
func scrape(ctx context.Context, clis ...*ctl.Client) (metricSet, error) {
	var all []obs.Sample
	for _, c := range clis {
		ss, err := c.Metrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("metrics: %w", err)
		}
		all = append(all, ss...)
	}
	return indexMetrics(all), nil
}

// counterDelta is a counter's growth between two scrapes.
func counterDelta(after, before metricSet, name string, labels ...string) float64 {
	return float64(after.value(name, labels...) - before.value(name, labels...))
}

// layerCounters fills the per-layer counters every workload reads from
// its daemons' exported mdagent_* series over the traced window.
func layerCounters(l map[string]float64, after, before metricSet) {
	l["repl.full_bytes"] = counterDelta(after, before, "mdagent_repl_full_bytes_total")
	l["repl.delta_bytes"] = counterDelta(after, before, "mdagent_repl_delta_bytes_total")
	l["repl.skipped_clean"] = counterDelta(after, before, "mdagent_repl_skipped_clean_total")
	l["fed.pushes"] = counterDelta(after, before, "mdagent_fed_push_total")
	l["fed.nacks"] = counterDelta(after, before, "mdagent_fed_nack_total")
	l["bundle.installs"] = counterDelta(after, before, "mdagent_bundle_installs_total")
	l["watch.events"] = counterDelta(after, before, "mdagent_ctl_watch_events_total")
	l["watch.dropped"] = counterDelta(after, before, "mdagent_ctl_watch_dropped_total")
	l["kernel.publishes"] = counterDelta(after, before, "mdagent_kernel_publish_total")
	l["store.compactions"] = counterDelta(after, before, "mdagent_store_compactions_total")
	if msgs := counterDelta(after, before, "mdagent_gossip_msgs_total"); msgs > 0 {
		l["gossip.bytes_per_msg"] = counterDelta(after, before, "mdagent_gossip_bytes_total") / msgs
	} else {
		l["gossip.bytes_per_msg"] = 0
	}
	ack := histDelta(after.hist("mdagent_fed_ack_wait_ns"), before.hist("mdagent_fed_ack_wait_ns"))
	l["fed.ack_wait_p50_ms"] = histQuantile(ack, 0.5) / 1e6
	put := histDelta(after.hist("mdagent_store_put_wait_seconds"), before.hist("mdagent_store_put_wait_seconds"))
	l["store.put_wait_p50_us"] = histQuantile(put, 0.5) / 1e3
	fsync := histDelta(after.hist("mdagent_store_fsync_seconds"), before.hist("mdagent_store_fsync_seconds"))
	l["store.fsync_p50_ms"] = histQuantile(fsync, 0.5) / 1e6
	batch := histDelta(after.hist("mdagent_store_commit_batch_frames"), before.hist("mdagent_store_commit_batch_frames"))
	l["store.batch_frames_mean"] = histMean(batch)
	if puts := counterDelta(after, before, "mdagent_store_puts_total"); puts > 0 {
		l["store.wal_bytes_per_put"] = counterDelta(after, before, "mdagent_store_wal_bytes_total") / puts
	} else {
		l["store.wal_bytes_per_put"] = 0
	}
}

// zeroLayers sets every per-layer metric the workload has not produced
// to 0: the layer was idle on this workload.
func zeroLayers(l map[string]float64) {
	for _, d := range perLayer {
		if _, ok := l[d.name]; !ok {
			l[d.name] = 0
		}
	}
}

// commonProbes fills the layer figures every traced run measures the
// same way: read round trips against one control-plane server (when the
// workload has one), the transport echo, and the state codec on a wrap
// of wrapBytes.
func commonProbes(ctx context.Context, o *outcome, rng *rand.Rand, cli *ctl.Client, wrapBytes int) error {
	l := o.layer
	if cli != nil {
		var info, apps samples
		for i := 0; i < 200; i++ {
			t0 := time.Now()
			if _, err := cli.Info(ctx); err != nil {
				return fmt.Errorf("info: %w", err)
			}
			info.add(time.Since(t0))
			t0 = time.Now()
			if _, err := cli.Apps(ctx); err != nil {
				return fmt.Errorf("apps: %w", err)
			}
			apps.add(time.Since(t0))
		}
		l["ctl.info_rtt_us"] = info.median() * 1000
		l["ctl.read_p50_us"] = append(info, apps...).median() * 1000
		l["registry.apps_extra_us"] = (apps.median() - info.median()) * 1000
	}
	rtt, bulk, err := probeTransport(ctx, rng, wrapBytes, 20)
	if err != nil {
		return err
	}
	l["transport.rtt_us"], l["transport.bulk_mb_s"] = rtt, bulk
	enc, dec, err := probeCodec(rng, wrapBytes, 20)
	if err != nil {
		return err
	}
	l["state.encode_ms"], l["state.decode_ms"] = enc, dec
	return nil
}
