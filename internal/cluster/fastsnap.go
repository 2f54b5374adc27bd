package cluster

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"

	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// Fast (ProtoV2) encoding of the snapshot hot path. A put body is
//
//	string app, string host, string space, time at, bool delta,
//	bytes frame, 32 raw base-digest bytes, 32 raw new-digest bytes,
//	string concern
//
// and a put outcome (reply body) is
//
//	byte flags (bit0 need-full, bit1 not-durable),
//	uvarint seq, uvarint base-seq, uvarint chain
//
// Batched variants prefix a uvarint count and concatenate the bodies;
// a batch outcome adds bit2 (errored) + an error string per entry, so
// one bad put does not poison its batchmates' stamps. This is the only
// snapshot-put encoding: a center refuses a gob-sealed put with
// transport.ErrVersion.

const (
	snapFlagNeedFull   byte = 1 << 0
	snapFlagNotDurable byte = 1 << 1
	snapFlagErr        byte = 1 << 2
)

// appendSnapPut appends one put body (no frame header).
func appendSnapPut(b []byte, put state.SnapshotPut) []byte {
	b = transport.AppendString(b, put.App)
	b = transport.AppendString(b, put.Host)
	b = transport.AppendString(b, put.Space)
	b = transport.AppendTime(b, put.At)
	b = transport.AppendBool(b, put.Delta)
	b = transport.AppendBytes(b, put.Frame)
	b = append(b, put.BaseDigest[:]...)
	b = append(b, put.NewDigest[:]...)
	b = transport.AppendString(b, put.Concern)
	return b
}

// readSnapPut decodes one put body in appendSnapPut's layout. Frame is
// copied out of the wire buffer: the center retains puts past the
// handler's life.
func readSnapPut(r *transport.FastReader) state.SnapshotPut {
	var put state.SnapshotPut
	put.App = r.String()
	put.Host = r.String()
	put.Space = r.String()
	put.At = r.Time()
	put.Delta = r.Bool()
	put.Frame = append([]byte(nil), r.Bytes()...)
	copy(put.BaseDigest[:], r.Fixed(sha256.Size))
	copy(put.NewDigest[:], r.Fixed(sha256.Size))
	put.Concern = r.String()
	return put
}

// snapOutcome is one put's result inside a batch reply.
type snapOutcome struct {
	Stamp      state.SnapshotStamp
	NeedFull   bool
	NotDurable bool
	Err        string // non-flag failure, per entry
}

func appendSnapOutcome(b []byte, o snapOutcome) []byte {
	var flags byte
	if o.NeedFull {
		flags |= snapFlagNeedFull
	}
	if o.NotDurable {
		flags |= snapFlagNotDurable
	}
	if o.Err != "" {
		flags |= snapFlagErr
	}
	b = append(b, flags)
	b = transport.AppendUint(b, o.Stamp.Seq)
	b = transport.AppendUint(b, o.Stamp.BaseSeq)
	b = transport.AppendUint(b, uint64(o.Stamp.Chain))
	if o.Err != "" {
		b = transport.AppendString(b, o.Err)
	}
	return b
}

func readSnapOutcome(r *transport.FastReader) snapOutcome {
	var o snapOutcome
	flags := byte(0)
	if f := r.Fixed(1); len(f) == 1 {
		flags = f[0]
	}
	o.NeedFull = flags&snapFlagNeedFull != 0
	o.NotDurable = flags&snapFlagNotDurable != 0
	o.Stamp.Seq = r.Uint()
	o.Stamp.BaseSeq = r.Uint()
	o.Stamp.Chain = int(r.Uint())
	if flags&snapFlagErr != 0 {
		o.Err = r.String()
	}
	return o
}

// encodeSnapPutFast seals one put as an OpSnapPut frame.
func encodeSnapPutFast(put state.SnapshotPut) []byte {
	return transport.SealFast(transport.OpSnapPut, appendSnapPut(make([]byte, 0, 128+len(put.Frame)), put))
}

// encodeSnapPutBatchFast seals a batch as an OpSnapPutBatch frame.
func encodeSnapPutBatchFast(puts []state.SnapshotPut) []byte {
	size := 16
	for i := range puts {
		size += 128 + len(puts[i].Frame)
	}
	b := transport.AppendUint(make([]byte, 0, size), uint64(len(puts)))
	for i := range puts {
		b = appendSnapPut(b, puts[i])
	}
	return transport.SealFast(transport.OpSnapPutBatch, b)
}

// decodeSnapOutcomeReply parses an OpSnapPutReply frame.
func decodeSnapOutcomeReply(payload []byte) (snapOutcome, error) {
	op, body, err := transport.OpenFast(payload)
	if err != nil {
		return snapOutcome{}, err
	}
	if op != transport.OpSnapPutReply {
		return snapOutcome{}, fmt.Errorf("cluster: unexpected fast reply opcode %#x", op)
	}
	r := transport.NewFastReader(body)
	o := readSnapOutcome(r)
	return o, r.Err()
}

// decodeSnapBatchReply parses an OpSnapPutBatchReply frame into exactly
// want outcomes — a count mismatch is a protocol error, not a partial
// result.
func decodeSnapBatchReply(payload []byte, want int) ([]snapOutcome, error) {
	op, body, err := transport.OpenFast(payload)
	if err != nil {
		return nil, err
	}
	if op != transport.OpSnapPutBatchReply {
		return nil, fmt.Errorf("cluster: unexpected fast reply opcode %#x", op)
	}
	r := transport.NewFastReader(body)
	count := r.Uint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if count != uint64(want) {
		return nil, fmt.Errorf("cluster: batch reply has %d outcomes, sent %d puts", count, want)
	}
	out := make([]snapOutcome, 0, want)
	for i := 0; i < want && r.Err() == nil; i++ {
		out = append(out, readSnapOutcome(r))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// outcomeOf maps a center-side put result into the in-band wire form,
// mirroring the gob handler: need-full and not-durable are expected
// signals, anything else is a per-entry error string.
func outcomeOf(stamp state.SnapshotStamp, err error) snapOutcome {
	o := snapOutcome{Stamp: stamp}
	switch {
	case err == nil:
	case errors.Is(err, state.ErrNeedFull):
		o.Stamp = state.SnapshotStamp{}
		o.NeedFull = true
	case errors.Is(err, ErrNotDurable):
		o.NotDurable = true
	default:
		o.Stamp = state.SnapshotStamp{}
		o.Err = err.Error()
	}
	return o
}

// maxSnapBatch bounds one batch frame's put count — a sanity limit far
// above what the replicator or bench ever sends, guarding the decoder
// against a torn count prefix.
const maxSnapBatch = 4096

// putSnapshotFast serves a v2 MsgPutSnapshot frame (single or batch) on
// the center. For single puts, expected signals (need-full,
// not-durable) ride in-band and hard failures become error replies. Batch entries carry even hard failures in-band so one
// bad put cannot void its batchmates' stamps.
func (c *Center) putSnapshotFast(payload []byte) ([]byte, error) {
	op, body, err := transport.OpenFast(payload)
	if err != nil {
		return nil, err
	}
	switch op {
	case transport.OpSnapPut:
		r := transport.NewFastReader(body)
		put := readSnapPut(r)
		if err := r.Err(); err != nil {
			return nil, err
		}
		stamp, perr := c.PutSnapshot(context.Background(), put)
		o := outcomeOf(stamp, perr)
		if o.Err != "" {
			return nil, perr
		}
		return transport.SealFast(transport.OpSnapPutReply, appendSnapOutcome(nil, o)), nil
	case transport.OpSnapPutBatch:
		r := transport.NewFastReader(body)
		count := r.Uint()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if count == 0 || count > maxSnapBatch {
			return nil, fmt.Errorf("cluster: batch put count %d out of range", count)
		}
		b := transport.AppendUint(make([]byte, 0, 8+int(count)*16), count)
		for i := uint64(0); i < count; i++ {
			put := readSnapPut(r)
			if err := r.Err(); err != nil {
				return nil, err
			}
			stamp, perr := c.PutSnapshot(context.Background(), put)
			b = appendSnapOutcome(b, outcomeOf(stamp, perr))
		}
		return transport.SealFast(transport.OpSnapPutBatchReply, b), nil
	default:
		return nil, fmt.Errorf("cluster: unknown fast opcode %#x on %s", op, MsgPutSnapshot)
	}
}

// err maps a decoded outcome back to the Publisher error contract (the
// inverse of outcomeOf, client side). The Err string rides a
// RemoteError so registered sentinels keep matching through errors.Is.
func (o snapOutcome) err(app string) error {
	switch {
	case o.Err != "":
		return &transport.RemoteError{Msg: o.Err}
	case o.NeedFull:
		return state.ErrNeedFull
	case o.NotDurable:
		return fmt.Errorf("cluster: remote put %s: %w", app, ErrNotDurable)
	}
	return nil
}
