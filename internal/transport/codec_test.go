package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// codecRecord exercises every gob shape the hot wire types use: nested
// and pointed-to structs, slices, maps, fixed arrays, byte slices and
// time.Time (which gob marshals opaquely). Its maps hold one entry:
// gob writes map entries in Go's randomized iteration order, so even two
// fresh encoders disagree on the bytes of a larger map.
type codecRecord struct {
	Name    string
	Seq     uint64
	Delta   int64
	Live    bool
	Tags    []string
	Version map[string]uint64
	Digest  [4]byte
	Raw     []byte
	At      time.Time
	Dur     time.Duration
	Inner   codecInner
	Next    *codecInner
	Items   []codecInner
}

type codecInner struct {
	Key   string
	Count int
}

func codecValues() []codecRecord {
	at := time.Unix(1700000000, 123456789).UTC()
	return []codecRecord{
		{},
		{Name: "smart-media-player", Seq: 7, Delta: -3, Live: true},
		{Tags: []string{"ui", "logic", ""}, Version: map[string]uint64{"lab1": 3}},
		{Digest: [4]byte{1, 2, 3, 4}, Raw: bytes.Repeat([]byte{0xAB}, 300), At: at, Dur: 40 * time.Millisecond},
		{Inner: codecInner{Key: "k", Count: 2}, Next: &codecInner{Key: "n"}, Items: []codecInner{{Key: "a"}, {Count: -1}}},
	}
}

func freshEncode(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCodecByteIdentity pins the wire contract: the cached encoder
// writes exactly what a fresh gob.Encoder writes, on the priming call
// and on every cached call after it, for values and pointers alike.
func TestCodecByteIdentity(t *testing.T) {
	msg := Message{Type: "registry.lookup", From: "a", To: "b", ID: 9, IsReply: true, Payload: []byte{1, 2}}
	values := []any{msg, &msg, "plain string", 42, []string{"x", "y"}, map[string]int{"a": 1}}
	for _, r := range codecValues() {
		values = append(values, r, &r)
	}
	for pass := 0; pass < 3; pass++ {
		for _, v := range values {
			got, err := Encode(v)
			if err != nil {
				t.Fatalf("Encode(%T): %v", v, err)
			}
			if want := freshEncode(t, v); !bytes.Equal(got, want) {
				t.Fatalf("pass %d %T: cached %x, gob %x", pass, v, got, want)
			}
		}
	}
}

// TestCodecDecodeEquivalence decodes the same payloads through the
// cache (first priming, then primed) and through a fresh gob.Decoder.
func TestCodecDecodeEquivalence(t *testing.T) {
	for pass := 0; pass < 3; pass++ {
		for i, r := range codecValues() {
			payload := freshEncode(t, r)
			var cached, plain codecRecord
			if err := Decode(payload, &cached); err != nil {
				t.Fatalf("value %d pass %d: %v", i, pass, err)
			}
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&plain); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cached, plain) {
				t.Fatalf("value %d pass %d: cached %+v, gob %+v", i, pass, cached, plain)
			}
		}
	}
}

// idleDecoders counts the idle decoders cached for payload's prefix
// decoded into a *codecRecord.
func idleDecoders(payload []byte) int {
	n := typeDefsLen(payload)
	decoders.mu.Lock()
	defer decoders.mu.Unlock()
	return len(decoders.free[decKey{reflect.TypeFor[*codecRecord](), string(payload[:n])}])
}

// TestCodecFailedDecodeIsDropped corrupts the value message of a
// primed payload: the decoder that failed must not go back to the
// cache, and the next valid payload still decodes.
func TestCodecFailedDecodeIsDropped(t *testing.T) {
	good := freshEncode(t, codecValues()[1])
	var out codecRecord
	if err := Decode(good, &out); err != nil {
		t.Fatal(err)
	}
	idle := idleDecoders(good)
	if idle == 0 {
		t.Fatal("a successful decode left no idle decoder")
	}

	// The first byte after the value message's count and type id is the
	// first field delta; 0x7f points far past the struct's fields.
	n := typeDefsLen(good)
	_, cw := gobUint(good[n:])
	_, iw := gobUint(good[n+cw:])
	bad := bytes.Clone(good)
	bad[n+cw+iw] = 0x7f
	if err := Decode(bad, &out); err == nil {
		t.Fatal("corrupted value decoded without error")
	}
	if err := gob.NewDecoder(bytes.NewReader(bad)).Decode(&codecRecord{}); err == nil {
		t.Fatal("gob accepts the corrupted value; the test needs a rejected one")
	}
	if got := idleDecoders(good); got != idle-1 {
		t.Fatalf("idle decoders after a failed decode = %d, want %d", got, idle-1)
	}
	out = codecRecord{}
	if err := Decode(good, &out); err != nil || out.Name != "smart-media-player" {
		t.Fatalf("valid payload after a failure: %+v, %v", out, err)
	}
}

func (p *codecPool[K, C]) keys() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// TestCodecKeyCap floods the decoder cache with distinct, valid
// descriptor prefixes (the struct's wire type name varies) and checks
// the key count stops at its cap while every payload still decodes.
func TestCodecKeyCap(t *testing.T) {
	payload := freshEncode(t, codecValues()[1])
	name := []byte("codecRecord")
	at := bytes.Index(payload, name)
	if at < 0 || at >= typeDefsLen(payload) {
		t.Fatal("type name not found in the descriptor prefix")
	}
	for i := 0; i < 2*maxCodecKeys; i++ {
		p := bytes.Clone(payload)
		p[at] = 'A' + byte(i%26)
		p[at+1] = 'A' + byte(i/26)
		var out codecRecord
		if err := Decode(p, &out); err != nil || out.Seq != 7 {
			t.Fatalf("variant %d: %+v, %v", i, out, err)
		}
	}
	if got := decoders.keys(); got != maxCodecKeys {
		t.Fatalf("decoder keys after the flood = %d, want the cap %d", got, maxCodecKeys)
	}
}

// TestCodecOversizePayloadsBypassCache checks that a payload past the
// size bound neither keeps its encoder nor seeds a decoder key.
func TestCodecOversizePayloadsBypassCache(t *testing.T) {
	type bulk struct{ Raw []byte }
	v := bulk{Raw: make([]byte, 2*maxCachedPayload)}
	payload, err := Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	if want := freshEncode(t, v); !bytes.Equal(payload, want) {
		t.Fatal("oversize encoding differs from gob")
	}
	encoders.mu.Lock()
	idleEnc := len(encoders.free[reflect.TypeFor[bulk]()])
	encoders.mu.Unlock()
	if idleEnc != 0 {
		t.Fatalf("an encoder that grew to %d bytes was kept", len(payload))
	}
	var out bulk
	if err := Decode(payload, &out); err != nil || len(out.Raw) != len(v.Raw) {
		t.Fatalf("oversize decode: %d bytes, %v", len(out.Raw), err)
	}
	n := typeDefsLen(payload)
	decoders.mu.Lock()
	_, keyed := decoders.free[decKey{reflect.TypeFor[*bulk](), string(payload[:n])}]
	decoders.mu.Unlock()
	if keyed {
		t.Fatal("an oversize payload seeded a decoder key")
	}
}

// TestCodecConcurrent runs encoders and decoders of one type from many
// goroutines; under -race it checks codecs are never shared.
func TestCodecConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in := codecRecord{Name: fmt.Sprint("g", g), Seq: uint64(i), Tags: []string{"t"}}
				payload, err := Encode(in)
				if err == nil {
					var out codecRecord
					err = Decode(payload, &out)
					if err == nil && !reflect.DeepEqual(in, out) {
						err = fmt.Errorf("round trip %+v -> %+v", in, out)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCodecEligibility pins which type graphs the cache serves: an
// interface, chan or func anywhere gob would walk takes the fresh
// path; unexported fields do not count.
func TestCodecEligibility(t *testing.T) {
	type withAny struct {
		Name  string
		Extra any
	}
	type nestedAny struct{ Inner []map[string]withAny }
	type withChan struct{ C chan int }
	type withFunc struct{ F func() }
	type hidden struct {
		Name string
		x    any
	}
	type recursive struct {
		Name string
		Kids []*recursive
	}
	for _, c := range []struct {
		v    any
		want bool
	}{
		{Message{}, true},
		{&codecRecord{}, true},
		{hidden{}, true},
		{recursive{}, true},
		{withAny{}, false},
		{nestedAny{}, false},
		{withChan{}, false},
		{withFunc{}, false},
		{new(any), false},
		{nil, false},
	} {
		if got := Cacheable(c.v); got != c.want {
			t.Errorf("Cacheable(%T) = %v, want %v", c.v, got, c.want)
		}
	}
	// An ineligible type still round-trips, through the fresh path.
	payload, err := Encode(withAny{Name: "x", Extra: 3})
	if err != nil {
		t.Fatal(err)
	}
	var out withAny
	if err := Decode(payload, &out); err != nil || out.Extra != 3 {
		t.Fatalf("fresh-path round trip: %+v, %v", out, err)
	}
}

// TestCodecInterfacePrefixNotCached decodes a wire type that carries an
// interface field the target lacks: gob defines the concrete type
// inside each value, so such a prefix must never prime a decoder.
func TestCodecInterfacePrefixNotCached(t *testing.T) {
	type codecRecordWire struct {
		Name  string
		Extra any
	}
	type codecTarget struct{ Name string }
	gob.Register(codecInner{})
	payload := freshEncode(t, codecRecordWire{Name: "n", Extra: codecInner{Key: "k"}})
	n := typeDefsLen(payload)
	if n < 0 || plainDefs(payload[:n]) {
		t.Fatalf("prefix with an interface field judged plain (n=%d)", n)
	}
	for pass := 0; pass < 3; pass++ {
		var out codecTarget
		if err := Decode(payload, &out); err != nil || out.Name != "n" {
			t.Fatalf("pass %d: %+v, %v", pass, out, err)
		}
	}
}

func BenchmarkCodecRoundTrip(b *testing.B) {
	in := codecValues()[4]
	for _, mode := range []string{"cached", "fresh"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var out codecRecord
				if mode == "cached" {
					payload, _ := Encode(in)
					if err := Decode(payload, &out); err != nil {
						b.Fatal(err)
					}
					continue
				}
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(in); err != nil {
					b.Fatal(err)
				}
				if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
