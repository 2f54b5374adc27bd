package state

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/transport/codectest"
)

// frameValues are one-entry-map values of each frame payload type (gob
// writes larger maps in random order, so only these encode to fixed
// bytes).
func frameValues() (app.Wrap, app.TaggedSnapshot, WrapDelta) {
	w := app.Wrap{
		App: "smart-media-player", FromHost: "hostA",
		Components: map[string][]byte{"playback-state": []byte("positionMs=93500")},
		Kinds:      map[string]app.ComponentKind{"playback-state": app.KindState},
		CoordState: map[string]string{"track": "song1"},
		Profile:    app.UserProfile{User: "alice", Preferences: map[string]string{"handedness": "left"}},
	}
	ts := app.TaggedSnapshot{Tag: "pre-migrate", At: time.Unix(1700000000, 5).UTC(), Wrap: w, ChangeSeq: 7}
	d := WrapDelta{
		App: w.App, FromHost: "hostB", BaseDigest: WrapDigest(w),
		Components: map[string][]byte{"playback-state": []byte("positionMs=94000")},
		Kinds:      map[string]app.ComponentKind{"playback-state": app.KindState},
		CoordState: w.CoordState, Profile: w.Profile,
	}
	return w, ts, d
}

// plainFrame frames body the way the codec frames a payload.
func plainFrame(kind frameKind, body []byte) []byte {
	frame := append(append([]byte(nil), magic[:]...), frameVersion, byte(kind), 0, 0, 0, 0)
	binary.BigEndian.PutUint32(frame[6:10], crc32.ChecksumIEEE(body))
	return append(frame, body...)
}

// TestFramesMatchFreshGob pins the state frame format to plain gob:
// the frame payload types are served by the transport codec cache,
// every Encode* output is byte-identical to the header plus what a
// fresh gob.Encoder writes, and every Decode* result deep-equals a
// fresh gob.Decoder's. Several passes exercise the primed codecs.
func TestFramesMatchFreshGob(t *testing.T) {
	w, ts, d := frameValues()
	codectest.Check(t, app.Wrap{}, w, app.TaggedSnapshot{}, ts, WrapDelta{}, d)

	for _, tc := range []struct {
		kind   frameKind
		value  any
		encode func() ([]byte, error)
		decode func([]byte) (any, error)
	}{
		{frameWrap, w,
			func() ([]byte, error) { return EncodeWrap(w) },
			func(b []byte) (any, error) { return DecodeWrap(b) }},
		{frameSnapshot, ts,
			func() ([]byte, error) { return EncodeSnapshot(ts) },
			func(b []byte) (any, error) { return DecodeSnapshot(b) }},
		{frameDelta, d,
			func() ([]byte, error) { return EncodeDelta(d) },
			func(b []byte) (any, error) { return DecodeDelta(b) }},
	} {
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(tc.value); err != nil {
			t.Fatal(err)
		}
		want := plainFrame(tc.kind, body.Bytes())
		plain := reflect.New(reflect.TypeOf(tc.value))
		if err := gob.NewDecoder(bytes.NewReader(body.Bytes())).Decode(plain.Interface()); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 3; pass++ {
			got, err := tc.encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%T pass %d: frame differs from fresh gob:\n got %x\nwant %x", tc.value, pass, got, want)
			}
			v, err := tc.decode(got)
			if err != nil {
				t.Fatalf("%T pass %d: decode: %v", tc.value, pass, err)
			}
			if !reflect.DeepEqual(v, plain.Elem().Interface()) {
				t.Fatalf("%T pass %d: decoded %+v, fresh gob %+v", tc.value, pass, v, plain.Elem().Interface())
			}
		}
	}
}

// frameError reports whether err is one of the ways a frame decoder
// may reject input: a framing sentinel, or a wrapped payload decode
// error.
func frameError(err error) bool {
	for _, sentinel := range []error{ErrBadFrame, ErrVersion, ErrKind, ErrChecksum, ErrBaseMismatch} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return strings.Contains(err.Error(), "state: decode frame: ")
}

// sameTime compares two timestamps as instants, then clears them: gob
// restores a non-UTC offset as a fresh *time.Location per decode, which
// reflect.DeepEqual would report as a difference.
func sameTime(t *testing.T, a, b *time.Time) {
	t.Helper()
	if !a.Equal(*b) {
		t.Fatalf("round trip moved the timestamp: %v -> %v", *a, *b)
	}
	*a, *b = time.Time{}, time.Time{}
}

// FuzzStateFrames drives every state frame decoder with arbitrary bytes.
// A fuzzed input almost never carries a valid CRC, so each input is also
// re-framed under every kind with a correct header, which takes it into
// the payload decoder. For every input: no decoder panics, a rejection
// is a framing sentinel or a wrapped decode error, and whatever decodes
// encodes again and decodes to an equal value. Seeds are frames captured
// from the state and migrate tests (testdata/fuzz/FuzzStateFrames).
func FuzzStateFrames(f *testing.F) {
	w, ts, d := frameValues()
	var base []byte
	for _, enc := range []func() ([]byte, error){
		func() ([]byte, error) { return EncodeWrap(w) },
		func() ([]byte, error) { return EncodeDelta(d) },
		func() ([]byte, error) { return EncodeSnapshot(ts) },
	} {
		raw, err := enc()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		base = raw // the snapshot frame, last: the delta chain's base
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		check := func(what string, err error) bool {
			t.Helper()
			if err != nil && !frameError(err) {
				t.Fatalf("%s: unexpected error class: %v", what, err)
			}
			return err == nil
		}
		inputs := [][]byte{raw}
		if len(raw) >= headerLen {
			for _, k := range []frameKind{frameWrap, frameSnapshot, frameDelta} {
				inputs = append(inputs, plainFrame(k, raw[headerLen:]))
			}
		}
		for _, in := range inputs {
			if got, err := DecodeWrap(in); check("DecodeWrap", err) {
				again, err := EncodeWrap(got)
				if err != nil {
					t.Fatalf("re-encode wrap: %v", err)
				}
				back, err := DecodeWrap(again)
				if err != nil || !reflect.DeepEqual(back, got) {
					t.Fatalf("wrap round trip: %+v -> %+v (%v)", got, back, err)
				}
			}
			if got, err := DecodeSnapshot(in); check("DecodeSnapshot", err) {
				again, err := EncodeSnapshot(got)
				if err != nil {
					t.Fatalf("re-encode snapshot: %v", err)
				}
				back, err := DecodeSnapshot(again)
				if err != nil {
					t.Fatalf("snapshot round trip: %v", err)
				}
				sameTime(t, &got.At, &back.At)
				if !reflect.DeepEqual(back, got) {
					t.Fatalf("snapshot round trip: %+v -> %+v", got, back)
				}
			}
			if got, err := DecodeDelta(in); check("DecodeDelta", err) {
				again, err := EncodeDelta(got)
				if err != nil {
					t.Fatalf("re-encode delta: %v", err)
				}
				back, err := DecodeDelta(again)
				if err != nil || !reflect.DeepEqual(back, got) {
					t.Fatalf("delta round trip: %+v -> %+v (%v)", got, back, err)
				}
			}
			_, err := SnapshotRecord{Frame: in}.Snapshot()
			check("SnapshotRecord.Snapshot", err)
			_, err = SnapshotRecord{Frame: base, Deltas: [][]byte{in}, At: time.Unix(9, 0)}.Snapshot()
			check("SnapshotRecord.Snapshot with delta", err)
		}
	})
}
