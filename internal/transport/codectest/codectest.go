// Package codectest checks a package's wire types against transport's
// cached payload codec: each type must be served from the cache, and
// the cache must be indistinguishable from plain gob for it.
package codectest

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"mdagent/internal/transport"
)

// Check asserts, for every value, that transport.Cacheable accepts its
// type (a type that gains an interface, chan or func would silently
// fall back to the slow path), that transport.Encode writes exactly the
// bytes a fresh gob.Encoder writes, and that transport.Decode and a
// fresh gob.Decoder produce deep-equal values. Each value runs several
// passes, so both the priming and the cached paths are exercised. Maps
// in the values must hold at most one entry: gob writes map entries in
// Go's randomized iteration order, so even two fresh encoders disagree
// on the bytes of a larger map.
func Check(t testing.TB, values ...any) {
	t.Helper()
	for _, v := range values {
		if !transport.Cacheable(v) {
			t.Errorf("%T is not cacheable: its gob graph reaches an interface, chan or func", v)
			continue
		}
		var fresh bytes.Buffer
		if err := gob.NewEncoder(&fresh).Encode(v); err != nil {
			t.Fatalf("%T: gob encode: %v", v, err)
		}
		rt := reflect.TypeOf(v)
		for pass := 0; pass < 3; pass++ {
			got, err := transport.Encode(v)
			if err != nil {
				t.Fatalf("%T: Encode: %v", v, err)
			}
			if !bytes.Equal(got, fresh.Bytes()) {
				t.Fatalf("%T pass %d: cached encoding differs from gob:\n got %x\nwant %x", v, pass, got, fresh.Bytes())
			}
			cached, plain := reflect.New(rt).Interface(), reflect.New(rt).Interface()
			if err := transport.Decode(got, cached); err != nil {
				t.Fatalf("%T pass %d: Decode: %v", v, pass, err)
			}
			if err := gob.NewDecoder(bytes.NewReader(got)).Decode(plain); err != nil {
				t.Fatalf("%T: gob decode: %v", v, err)
			}
			if !reflect.DeepEqual(cached, plain) {
				t.Fatalf("%T pass %d: cached decode %+v, gob decode %+v", v, pass, cached, plain)
			}
		}
	}
}
