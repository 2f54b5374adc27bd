package cluster

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/store"
	"mdagent/internal/transport"
)

// newSnapRig builds one served center plus a client endpoint on a local
// fabric — the smallest wire-protocol fixture.
func newSnapRig(t *testing.T) (*Center, *transport.Endpoint) {
	t.Helper()
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	regDB, err := registry.New(store.OpenMemory())
	if err != nil {
		t.Fatal(err)
	}
	ep, err := fab.Attach(CenterEndpointName("alpha"), "")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCenter("alpha", regDB, ep, testConfig())
	c.Serve(ep)
	cliEp, err := fab.Attach("client@test", "")
	if err != nil {
		t.Fatal(err)
	}
	return c, cliEp
}

// TestSnapPutFastCodecRoundTrip drives the raw v2 body codec over the
// awkward values: epoch timestamps (the virtual testbed clock starts at
// Unix(0,0)), empty concern, real digests, and a multi-put batch frame.
func TestSnapPutFastCodecRoundTrip(t *testing.T) {
	puts := []state.SnapshotPut{
		mustSnapshot(t, "player", "hostA", "pos-1"),
		mustDelta(t, "player", "hostA", "pos-1", "pos-2"),
	}
	puts[0].Concern = "quorum"
	puts[1].At = time.Unix(0, 0) // epoch, not "zero time"

	payload := encodeSnapPutBatchFast(puts)
	op, body, err := transport.OpenFast(payload)
	if err != nil || op != transport.OpSnapPutBatch {
		t.Fatalf("OpenFast: op=%#x err=%v", op, err)
	}
	r := transport.NewFastReader(body)
	if n := r.Uint(); n != 2 {
		t.Fatalf("batch count = %d", n)
	}
	for i := range puts {
		got := readSnapPut(r)
		if err := r.Err(); err != nil {
			t.Fatalf("put %d decode: %v", i, err)
		}
		want := puts[i]
		if got.App != want.App || got.Host != want.Host || got.Delta != want.Delta ||
			got.Concern != want.Concern || !got.At.Equal(want.At) {
			t.Fatalf("put %d header mismatch:\n got %+v\nwant %+v", i, got, want)
		}
		if !bytes.Equal(got.Frame, want.Frame) {
			t.Fatalf("put %d frame mismatch (%d vs %d bytes)", i, len(got.Frame), len(want.Frame))
		}
		if got.BaseDigest != want.BaseDigest || got.NewDigest != want.NewDigest {
			t.Fatalf("put %d digest mismatch", i)
		}
	}

	outcomes := []snapOutcome{
		{Stamp: state.SnapshotStamp{Seq: 7, BaseSeq: 3, Chain: 4}},
		{NeedFull: true},
		{Stamp: state.SnapshotStamp{Seq: 9}, NotDurable: true},
		{Err: "disk on fire"},
	}
	var b []byte
	for _, o := range outcomes {
		b = appendSnapOutcome(b, o)
	}
	or := transport.NewFastReader(b)
	for i, want := range outcomes {
		if got := readSnapOutcome(or); got != want {
			t.Fatalf("outcome %d = %+v, want %+v", i, got, want)
		}
	}
	if err := or.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotFastPathAgainstCenter round-trips full and delta puts
// through the v2 fast frames against a served center, with the in-band
// signals (need-full) intact.
func TestSnapshotFastPathAgainstCenter(t *testing.T) {
	_, cliEp := newSnapRig(t)
	ctx := context.Background()

	cli := NewSnapshotClient(cliEp, CenterEndpointName("alpha"))
	stamp, err := cli.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "pos-1"))
	if err != nil || stamp.Seq != 1 {
		t.Fatalf("fast full put: stamp=%+v err=%v", stamp, err)
	}
	stamp2, err := cli.PutSnapshot(ctx, mustDelta(t, "player", "hostA", "pos-1", "pos-2"))
	if err != nil || stamp2.Seq != 2 || stamp2.Chain != 1 {
		t.Fatalf("fast delta put: stamp=%+v err=%v", stamp2, err)
	}
	// Typed in-band signal survives the compact encoding.
	if _, err := cli.PutSnapshot(ctx, mustDelta(t, "player", "hostA", "bogus", "pos-3")); !errors.Is(err, state.ErrNeedFull) {
		t.Fatalf("stale-base delta over v2: err = %v, want ErrNeedFull", err)
	}
	if rec, found, err := cli.LatestSnapshot(ctx, "player"); err != nil || !found || snapValue(t, rec) != "pos-2" {
		t.Fatalf("fetch after fast puts: found=%v err=%v", found, err)
	}
}

// TestSnapshotBatchPutMixedOutcomes sends one batch holding a good full
// put, a good chained delta, and a stale-base delta: the bad entry comes
// back as a per-entry ErrNeedFull while its batchmates keep their
// stamps — one refusal cannot void the batch.
func TestSnapshotBatchPutMixedOutcomes(t *testing.T) {
	_, cliEp := newSnapRig(t)
	cli := NewSnapshotClient(cliEp, CenterEndpointName("alpha"))
	ctx := context.Background()

	outs, err := cli.PutSnapshotBatch(ctx, []state.SnapshotPut{
		mustSnapshot(t, "player", "hostA", "pos-1"),
		mustDelta(t, "player", "hostA", "pos-1", "pos-2"),
		mustDelta(t, "player", "hostA", "bogus", "pos-3"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	if outs[0].Err != nil || outs[0].Stamp.Seq != 1 {
		t.Fatalf("outcome 0 = %+v", outs[0])
	}
	if outs[1].Err != nil || outs[1].Stamp.Seq != 2 || outs[1].Stamp.Chain != 1 {
		t.Fatalf("outcome 1 = %+v", outs[1])
	}
	if !errors.Is(outs[2].Err, state.ErrNeedFull) {
		t.Fatalf("outcome 2 err = %v, want ErrNeedFull", outs[2].Err)
	}
	// The good entries actually landed.
	if rec, found, err := cli.LatestSnapshot(ctx, "player"); err != nil || !found || snapValue(t, rec) != "pos-2" {
		t.Fatalf("state after mixed batch: found=%v err=%v", found, err)
	}
}
