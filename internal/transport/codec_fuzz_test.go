package transport

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"
)

// fuzzWire is a union of the hot wire types' fields (gob
// matches fields by name and skips the rest), so every payload in the
// seed corpus — captured from a real follow-me run and from the ctl,
// registry and cluster tests — decodes into it, and mutations start
// from real type descriptors.
type (
	fuzzWire struct {
		App, From, To            string
		Suspend, Migrate, Resume time.Duration
		BytesMoved               int64
		Carried                  []string
		Delta                    bool
		Static                   bool // MigrateRequest
		Host                     string
		ResumeNanos              int64 // checkinReply
		AdaptNotes               []string
		RestoredApp              string
		Spans                    []fuzzSpan
		Have                     bool // getSnapshotReq
		HaveBaseSeq, HaveSeq     uint64
		HaveDigest               [32]byte
		Name                     string // appKeyReq
		Key                      string // durableMsg
		Version                  map[string]uint64
		Digest                   map[string]map[string]uint64 // digestMsg
		Applied                  bool                         // snapDeltaAck
		Components               []string                     // AppInfo
		Running                  bool
		WrapRaw, DeltaRaw        []byte // checkinPayload
		CloneName, FromHost      string
		FromEngine, TraceID      string
		Mode, Binding            int
		Found                    bool // lookupAppReply
		Space                    string
		ID                       uint64
		IsReply                  bool
		Err                      string
		Payload                  []byte
		Type                     string
	}

	fuzzSpan struct {
		Trace, App, Phase, Host string
		Start                   time.Time
		Dur                     time.Duration
		Note                    string
	}
)

// FuzzDecode checks the codec cache's contract on arbitrary bytes: for
// every target, the cached Decode and a fresh gob.Decoder agree — both
// fail, or both succeed with deep-equal values — and neither panics.
// Each input is decoded through the cache twice, so the second decode
// takes a primed decoder whenever the first one seeded a key.
func FuzzDecode(f *testing.F) {
	f.Add(MustEncode(Message{Type: "registry.lookup", From: "a", To: "b", ID: 3, Payload: []byte{1}}))
	f.Add(MustEncode([]fuzzSpan{{Trace: "t", Start: time.Unix(5, 0)}}))
	targets := []func() any{
		func() any { return new(Message) },
		func() any { return new(fuzzWire) },
		func() any { return new([]fuzzWire) },
		func() any { return new(fuzzSpan) },
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, mk := range targets {
			want := mk()
			errFresh := gob.NewDecoder(bytes.NewReader(payload)).Decode(want)
			for pass := 0; pass < 2; pass++ {
				got := mk()
				err := Decode(payload, got)
				if (err == nil) != (errFresh == nil) {
					t.Fatalf("%T pass %d: cached err %v, gob err %v", want, pass, err, errFresh)
				}
				if err == nil && !reflect.DeepEqual(got, want) {
					t.Fatalf("%T pass %d: cached %+v, gob %+v", want, pass, got, want)
				}
			}
		}
	})
}
