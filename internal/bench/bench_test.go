package bench

import (
	"testing"
	"time"

	"mdagent/internal/cluster"
	"mdagent/internal/migrate"
)

func TestSweepShapesMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweeps in -short mode")
	}
	adaptive, err := Sweep(migrate.BindingAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Sweep(migrate.BindingStatic)
	if err != nil {
		t.Fatal(err)
	}
	if len(adaptive) != len(FileSizes) || len(static) != len(FileSizes) {
		t.Fatalf("sweep lengths = %d/%d", len(adaptive), len(static))
	}
	// Fig. 8: suspend flat, resume monotonic and < 300 ms growth.
	for i := 1; i < len(adaptive); i++ {
		if d := (adaptive[i].Suspend - adaptive[0].Suspend).Abs(); d > 50*time.Millisecond {
			t.Fatalf("adaptive suspend not flat at %s: drift %v", adaptive[i].Label, d)
		}
		if adaptive[i].Resume < adaptive[i-1].Resume {
			t.Fatalf("adaptive resume not monotonic at %s", adaptive[i].Label)
		}
	}
	growth := adaptive[len(adaptive)-1].Resume - adaptive[0].Resume
	if growth <= 0 || growth > 300*time.Millisecond {
		t.Fatalf("adaptive resume growth = %v, want (0, 300ms]", growth)
	}
	// Fig. 9: migrate strictly increasing and dominant at the top end.
	for i := 1; i < len(static); i++ {
		if static[i].Migrate <= static[i-1].Migrate {
			t.Fatalf("static migrate not increasing at %s", static[i].Label)
		}
	}
	last := static[len(static)-1]
	if last.Migrate < last.Suspend+last.Resume {
		t.Fatalf("static migrate (%v) does not dominate at 7.5M", last.Migrate)
	}
	// Fig. 10: adaptive wins everywhere, ratio widens.
	prev := 0.0
	for i := range adaptive {
		ratio := float64(static[i].Total) / float64(adaptive[i].Total)
		if ratio <= 1 {
			t.Fatalf("static beat adaptive at %s", adaptive[i].Label)
		}
		if ratio < prev {
			t.Fatalf("ratio shrank at %s: %.2f < %.2f", adaptive[i].Label, ratio, prev)
		}
		prev = ratio
	}
}

func TestRunFig7SkewCancels(t *testing.T) {
	res, err := RunFig7()
	if err != nil {
		t.Fatal(err)
	}
	if diff := (res.SkewCanceled - res.TrueRTT).Abs(); diff > time.Millisecond {
		t.Fatalf("formula error = %v", diff)
	}
	if naive := (res.NaiveOneWay - res.TrueOneWay).Abs(); naive < 2900*time.Millisecond {
		t.Fatalf("naive error = %v, want ~3s", naive)
	}
}

func TestRunFig10PairsSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweeps in -short mode")
	}
	rows, err := RunFig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(FileSizes) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Ratio <= 1 {
			t.Fatalf("ratio at %s = %.2f", r.Label, r.Ratio)
		}
	}
}

func TestRunCloneFanout(t *testing.T) {
	results, err := RunCloneFanout(2, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if !r.InterSpace {
			t.Fatalf("%s: clone did not cross spaces", r.Room)
		}
		if r.Report.BytesMoved < 1_000_000 {
			t.Fatalf("%s: only %d bytes moved, want the deck", r.Room, r.Report.BytesMoved)
		}
		if r.SyncRTT <= 0 {
			t.Fatalf("%s: sync RTT = %v", r.Room, r.SyncRTT)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := RunFollowMe(FileSizes[0], migrate.BindingAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFollowMe(FileSizes[0], migrate.BindingAdaptive)
	if err != nil {
		t.Fatal(err)
	}
	if a.Suspend != b.Suspend || a.Bytes != b.Bytes {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
	// Total carries the one legitimate source of jitter: migration trace
	// spans ride the checkin reply with wall-clock durations, and gob's
	// varint encoding makes the reply a few bytes longer or shorter from
	// run to run, which netsim's per-byte charge turns into sub-µs
	// virtual-clock noise. Everything upstream of the wire stays exact;
	// bound the wire-size wiggle tightly instead of demanding bit-equal.
	diff := a.Total - b.Total
	if diff < 0 {
		diff = -diff
	}
	if diff > 10*time.Microsecond {
		t.Fatalf("totals differ by %v (> 10µs wire-encoding tolerance): %+v vs %+v", diff, a, b)
	}
}

func TestLabelsMatchSizes(t *testing.T) {
	if len(FileLabels) != len(FileSizes) {
		t.Fatalf("labels %d vs sizes %d", len(FileLabels), len(FileSizes))
	}
}

func TestChurnFailoverRehomes(t *testing.T) {
	res, err := RunChurn(3, ChurnConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.NewHost == "host-1" || res.NewHost == "" {
		t.Fatalf("app not re-homed off the victim: %+v", res)
	}
	// Conviction cannot beat the suspicion window, and single-digit
	// seconds would mean the detector is broken at a 2 ms probe cadence.
	if res.Convergence < ChurnConfig().SuspicionTimeout {
		t.Fatalf("convergence %v faster than the suspicion window", res.Convergence)
	}
	if res.Convergence > 5*time.Second || res.Failover > 5*time.Second {
		t.Fatalf("churn reaction implausibly slow: %+v", res)
	}
}

func TestChurnRejectsTooFewSpaces(t *testing.T) {
	if _, err := RunChurn(2, ChurnConfig()); err == nil {
		t.Fatal("RunChurn(2) should refuse: a lone survivor has no quorum")
	}
}

func TestChurnWithStateRestoresSnapshot(t *testing.T) {
	// Relaxed cadence and a small song: under -race the benchmark's 2 ms
	// probes plus multi-megabyte captures cause false convictions.
	cfg := ChurnStateConfig()
	cfg.ProbeInterval = 5 * time.Millisecond
	cfg.ProbeTimeout = 100 * time.Millisecond
	cfg.SuspicionTimeout = 300 * time.Millisecond
	cfg.SyncInterval = 10 * time.Millisecond
	cfg.ReplicateInterval = 5 * time.Millisecond
	res, err := RunChurnSized(3, cfg, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewHost == "host-1" || res.NewHost == "" {
		t.Fatalf("app not re-homed off the victim: %+v", res)
	}
	if !res.StateIntact {
		t.Fatalf("re-homed app lost its in-flight state: %+v", res)
	}
	if res.SnapshotBytes == 0 {
		t.Fatalf("no snapshot frame measured: %+v", res)
	}
	if res.Replication <= 0 || res.Replication > 5*time.Second {
		t.Fatalf("implausible replication latency: %v", res.Replication)
	}
}

// TestCleanStopZeroOutage is the acceptance check for graceful leave: a
// clean shutdown (final flush + Node.Leave) must convict the host on
// every survivor WITHOUT the suspicion window — the leave certificate
// lands synchronously — and failover must resume the app with the
// flushed state, so the only outage is the re-home itself.
func TestCleanStopZeroOutage(t *testing.T) {
	// Relaxed cadence and a small song, as in the churn state test: the
	// assertion is conviction beating the suspicion window, so the
	// window is kept wide to make the margin unambiguous under -race.
	cfg := ChurnStateConfig()
	cfg.ProbeInterval = 5 * time.Millisecond
	cfg.ProbeTimeout = 100 * time.Millisecond
	cfg.SuspicionTimeout = 300 * time.Millisecond
	cfg.SyncInterval = 10 * time.Millisecond
	cfg.ReplicateInterval = 5 * time.Millisecond
	res, err := RunCleanStop(3, cfg, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewHost == "host-1" || res.NewHost == "" {
		t.Fatalf("app not re-homed off the leaver: %+v", res)
	}
	// A crashed host pays probe round + suspicion window before
	// conviction (TestChurnFailoverRehomes asserts the lower bound); a
	// leaver must be convicted by its own broadcast, well inside it.
	if res.Conviction >= cfg.SuspicionTimeout {
		t.Fatalf("clean leave waited out the suspicion window: conviction %v >= %v",
			res.Conviction, cfg.SuspicionTimeout)
	}
	if !res.StateIntact {
		t.Fatalf("re-homed app lost the final flush: %+v", res)
	}
	if res.Flush <= 0 || res.Flush > 5*time.Second {
		t.Fatalf("implausible flush latency: %v", res.Flush)
	}
}

func TestCleanStopNeedsStateConfig(t *testing.T) {
	if _, err := RunCleanStop(3, ChurnConfig(), 100_000); err == nil {
		t.Fatal("RunCleanStop without ReplicateState should refuse")
	}
}

func TestFlapDoesNotConvict(t *testing.T) {
	res, err := RunFlap(3, ChurnConfig(), 10*time.Millisecond, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Indirect probes relay around a single flapping link: nobody may be
	// wrongly declared dead, and membership must settle afterwards.
	if res.Convictions != 0 {
		t.Fatalf("flapping link caused %d false dead convictions", res.Convictions)
	}
	if !res.Healed {
		t.Fatal("membership did not settle after the flap schedule")
	}
}

func TestFlapRejectsBadParams(t *testing.T) {
	if _, err := RunFlap(2, ChurnConfig(), time.Millisecond, 1); err == nil {
		t.Fatal("RunFlap(2) should refuse: no relay for indirect probes")
	}
	if _, err := RunFlap(3, ChurnConfig(), time.Millisecond, 0); err == nil {
		t.Fatal("RunFlap with 0 cycles should refuse")
	}
}

// TestChurnDeltaRestoreMatchesFullFrames is the acceptance check for the
// delta pipeline's failover path: restoring a re-homed app from a
// delta-chain record must be value-level identical to restoring from a
// full-frame record, and the planted state must actually have crossed as
// a delta (not a silent full-frame fallback).
func TestChurnDeltaRestoreMatchesFullFrames(t *testing.T) {
	relaxed := func() cluster.Config {
		cfg := ChurnStateConfig()
		cfg.ProbeInterval = 5 * time.Millisecond
		cfg.ProbeTimeout = 100 * time.Millisecond
		cfg.SuspicionTimeout = 300 * time.Millisecond
		cfg.SyncInterval = 10 * time.Millisecond
		cfg.ReplicateInterval = 5 * time.Millisecond
		return cfg
	}

	deltaCfg := relaxed()
	dres, err := RunChurnSized(3, deltaCfg, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if !dres.StateIntact {
		t.Fatalf("delta-chain restore lost state: %+v", dres)
	}
	if dres.SnapshotDeltas == 0 {
		t.Fatalf("planted state never shipped as a delta: %+v", dres)
	}
	if dres.DeltaBytes*5 > dres.SnapshotBytes {
		t.Fatalf("delta frame (%d bytes) not meaningfully smaller than the record (%d bytes)",
			dres.DeltaBytes, dres.SnapshotBytes)
	}

	fullCfg := relaxed()
	fullCfg.FullSnapshotFrames = true
	fres, err := RunChurnSized(3, fullCfg, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if !fres.StateIntact {
		t.Fatalf("full-frame restore lost state: %+v", fres)
	}
	if fres.SnapshotDeltas != 0 {
		t.Fatalf("full-frame mode produced a delta chain: %+v", fres)
	}
}

// TestDurabilityQuorumZeroSilentLoss is the acceptance check for
// durable-by-write federation: with WriteConcern=quorum, killing the
// writing center right after its writes return loses no record the
// caller was not explicitly warned about — every healthy-phase write is
// on a survivor, and every cut-off-phase write came back ErrNotDurable.
func TestDurabilityQuorumZeroSilentLoss(t *testing.T) {
	res, err := RunDurability(3, 4, cluster.WriteQuorum)
	if err != nil {
		t.Fatal(err)
	}
	perPhase := 2 * 4 // registry + snapshot writes
	if res.SilentLoss != 0 {
		t.Fatalf("quorum writes silently lost: %+v", res)
	}
	if res.Durable != perPhase {
		t.Fatalf("healthy-phase writes not all on survivors: %+v", res)
	}
	if res.Flagged != perPhase {
		t.Fatalf("cut-off writes not all flagged ErrNotDurable: %+v", res)
	}
	if res.LostTotal != perPhase {
		t.Fatalf("lost-total should be exactly the flagged cut-off batch: %+v", res)
	}
	if res.EventsDurable != perPhase || res.EventsDegraded != perPhase {
		t.Fatalf("durability events off: %+v", res)
	}
}

// TestDurabilityAsyncLosesSilently documents the failure mode the write
// concern exists for: async writes during the cut-off window report
// success and are all lost when the center dies before its push.
func TestDurabilityAsyncLosesSilently(t *testing.T) {
	res, err := RunDurability(3, 4, cluster.WriteAsync)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flagged != 0 {
		t.Fatalf("async writes should never be flagged: %+v", res)
	}
	if res.SilentLoss != 2*4 {
		t.Fatalf("silent loss = %d, want the whole cut-off batch (8): %+v", res.SilentLoss, res)
	}
}

func TestDurabilityRejectsBadParams(t *testing.T) {
	if _, err := RunDurability(2, 4, cluster.WriteQuorum); err == nil {
		t.Fatal("RunDurability(2) should refuse: quorum needs >= 3 centers")
	}
	if _, err := RunDurability(3, 0, cluster.WriteQuorum); err == nil {
		t.Fatal("RunDurability with 0 writes should refuse")
	}
}

// TestDeltaSweepSavesBytes runs one small cell of the delta sweep and
// checks the headline claims: >= 5x fewer replicated bytes per mutated
// tick, zero serialization on idle ticks, and a value-intact record on
// the peer center in both modes.
func TestDeltaSweepSavesBytes(t *testing.T) {
	points, err := RunDeltaSweep([]int64{200_000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	full, delta := points[0], points[1]
	if full.Mode != "full" || delta.Mode != "delta" {
		t.Fatalf("unexpected mode order: %+v", points)
	}
	for _, p := range points {
		if !p.StateIntact {
			t.Fatalf("%s-mode record not value-intact: %+v", p.Mode, p)
		}
		if p.SkippedClean != 3 {
			t.Fatalf("%s-mode idle ticks not skipped cleanly: %+v", p.Mode, p)
		}
	}
	if delta.BytesPerTick*5 > full.BytesPerTick {
		t.Fatalf("delta pipeline saved too little: %d vs %d bytes/tick",
			delta.BytesPerTick, full.BytesPerTick)
	}
	if delta.DeltaFrames == 0 || full.DeltaFrames != 0 {
		t.Fatalf("frame kinds wrong: full=%+v delta=%+v", full, delta)
	}
}

// TestRunCtlMeasures smokes the control-plane micro-bench at a tiny
// scale: every request succeeds, all events reach every watcher when
// the burst fits the ring, no drops are reported, and the replay
// scenario resumes the unread half loss-free.
func TestRunCtlMeasures(t *testing.T) {
	res, err := RunCtl(8, 3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.InfoRTT <= 0 || res.AppsRTT <= 0 {
		t.Fatalf("non-positive RTTs: %+v", res)
	}
	if f := res.V2; f.Delivered != int64(3*16) || f.Lost != 0 || f.EventsPerSec <= 0 {
		t.Fatalf("fan-out delivered %d lost %d at %f events/sec, want 48/0 at a positive rate",
			f.Delivered, f.Lost, f.EventsPerSec)
	}
	if res.Replay.Live != 8 || res.Replay.Replayed != 8 || res.Replay.Lost != 0 {
		t.Fatalf("replay = %+v, want 8 live + 8 replayed, 0 lost", res.Replay)
	}
}

// TestMembersBoundedPayload smokes the membership scale sweep at a small
// size: bounded dissemination must keep per-message payloads flat (far
// under one full table), converge the join in a handful of rounds, and
// report zero false positives.
func TestMembersBoundedPayload(t *testing.T) {
	res, err := RunMembers(40, MembersConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesPerMsg <= 0 || res.BytesPerMsg > 2048 {
		t.Fatalf("bytes/msg = %.0f, want bounded well under a full table", res.BytesPerMsg)
	}
	if res.JoinRounds <= 0 || res.JoinRounds > 30 {
		t.Fatalf("join took %d rounds, want O(log N)", res.JoinRounds)
	}
	if res.FalseSuspects != 0 || res.FalseConvictions != 0 {
		t.Fatalf("false positives: %d suspects, %d convictions", res.FalseSuspects, res.FalseConvictions)
	}
	if res.KillWall < res.Config.SuspicionTimeout {
		t.Fatalf("kill converged in %v, inside the %v suspicion window", res.KillWall, res.Config.SuspicionTimeout)
	}
}

func TestMembersRejectsBadParams(t *testing.T) {
	if _, err := RunMembers(2, MembersConfig()); err == nil {
		t.Fatal("RunMembers(2) should refuse: no relay for indirect probes")
	}
}
