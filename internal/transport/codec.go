package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
)

// Payload codec. Every payload is plain gob, byte for byte what a fresh
// gob.Encoder writes for the value: the type-definition messages of the
// value's type graph, then one value message. What the codec caches is
// gob's per-type setup. Encoders are pooled per Go type, so a pooled
// encoder has already sent its descriptors and writes only the value
// message; the descriptor prefix recorded from its first output is
// prepended instead. Decoders are pooled per (target type, exact
// descriptor prefix bytes), so a primed decoder reads only the value
// message with an engine compiled once.
//
// A cached codec must behave exactly like a fresh one, so the cache
// only serves type graphs without interfaces, chans or funcs (gob sends
// an interface's concrete type definitions inside the value, which
// makes a stream's output depend on what it sent before) and, on the
// decode side, descriptor prefixes that reference no interface. Large
// payloads and anything unexpected take the fresh path.

const (
	// maxCachedPayload bounds what the cache touches: larger payloads
	// take the fresh path, and a codec that wrote or read a larger
	// payload is dropped instead of kept, so idle codecs never pin
	// snapshot-sized buffers.
	maxCachedPayload = 64 << 10
	// maxCodecKeys caps the keys each pool holds; a new key past the cap
	// evicts an arbitrary one.
	maxCodecKeys = 256
	// maxCodecsPerKey caps the idle codecs kept per key.
	maxCodecsPerKey = 4
)

type encCodec struct {
	enc    *gob.Encoder
	out    []byte // the payload being written, handed to the caller
	primed bool
	prefix []byte // type definitions the first output carried
}

// Write appends one gob message to the payload. gob writes each message
// in one call, so sizing the payload exactly costs one allocation per
// message and leaves the caller no slack capacity to pin.
func (c *encCodec) Write(p []byte) (int, error) {
	out := make([]byte, len(c.out)+len(p))
	copy(out, c.out)
	copy(out[len(c.out):], p)
	c.out = out
	return len(p), nil
}

type decKey struct {
	rt     reflect.Type
	prefix string
}

type decCodec struct {
	r   bytes.Reader
	dec *gob.Decoder
}

var (
	plainTypes sync.Map // reflect.Type -> bool
	encoders   = codecPool[reflect.Type, *encCodec]{free: map[reflect.Type][]*encCodec{}}
	decoders   = codecPool[decKey, *decCodec]{free: map[decKey][]*decCodec{}}
)

// Encode gob-encodes a value into a payload.
func Encode(v any) ([]byte, error) {
	rt := reflect.TypeOf(v)
	if rt == nil || !plainType(rt) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			return nil, fmt.Errorf("transport: encode: %w", err)
		}
		return buf.Bytes(), nil
	}
	c, ok := encoders.get(rt)
	if !ok {
		c = &encCodec{}
		c.enc = gob.NewEncoder(c)
	}
	c.out = c.prefix // Write copies before appending
	err := c.enc.Encode(v)
	out := c.out
	c.out = nil
	if err != nil {
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	if len(out) > maxCachedPayload {
		return out, nil // drop the codec: gob's own buffer grew with the value
	}
	if !c.primed {
		n := typeDefsLen(out)
		if n < 0 {
			return out, nil
		}
		c.prefix, c.primed = bytes.Clone(out[:n]), true
	}
	encoders.put(rt, c)
	return out, nil
}

// MustEncode is Encode for values that cannot fail (no channels/funcs);
// it panics on error and is intended for fixed internal types.
func MustEncode(v any) []byte {
	b, err := Encode(v)
	if err != nil {
		panic(err)
	}
	return b
}

// Decode gob-decodes a payload into v (a pointer).
func Decode(payload []byte, v any) error {
	rt := reflect.TypeOf(v)
	n := -1
	if rt != nil && len(payload) <= maxCachedPayload && plainType(rt) {
		n = typeDefsLen(payload)
	}
	if n < 0 {
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
			return fmt.Errorf("transport: decode: %w", err)
		}
		return nil
	}
	key := decKey{rt, string(payload[:n])}
	c, primed := decoders.get(key)
	keep := primed || plainDefs(payload[:n])
	if primed {
		c.r.Reset(payload[n:])
	} else {
		c = &decCodec{}
		c.r.Reset(payload)
		c.dec = gob.NewDecoder(&c.r)
	}
	// A decoder that failed is dropped: its stream state is unknown.
	err := c.dec.Decode(v)
	c.r.Reset(nil) // an idle decoder must not pin the caller's payload
	if err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	if keep {
		decoders.put(key, c)
	}
	return nil
}

// Cacheable reports whether Encode and Decode serve v's type from the
// codec cache rather than building a fresh gob codec per payload.
func Cacheable(v any) bool {
	rt := reflect.TypeOf(v)
	return rt != nil && plainType(rt)
}

// codecPool is a bounded free list of idle codecs per key.
type codecPool[K comparable, C any] struct {
	mu   sync.Mutex
	free map[K][]C
}

func (p *codecPool[K, C]) get(k K) (c C, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.free[k]
	if len(l) == 0 {
		return c, false
	}
	c = l[len(l)-1]
	p.free[k] = l[:len(l)-1]
	return c, true
}

func (p *codecPool[K, C]) put(k K, c C) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, known := p.free[k]
	if !known && len(p.free) >= maxCodecKeys {
		for old := range p.free {
			delete(p.free, old)
			break
		}
	}
	if len(l) < maxCodecsPerKey {
		p.free[k] = append(l, c)
	}
}

// plainType reports whether gob's type graph of t is free of
// interfaces, chans and funcs. It walks exported fields only, as gob
// does, and walks into types gob marshals through their own methods
// too, which can only make the verdict stricter.
func plainType(t reflect.Type) bool {
	if v, ok := plainTypes.Load(t); ok {
		return v.(bool)
	}
	ok := walkPlain(t, map[reflect.Type]bool{})
	plainTypes.Store(t, ok)
	return ok
}

func walkPlain(t reflect.Type, seen map[reflect.Type]bool) bool {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if seen[t] {
		return true
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return false
	case reflect.Array, reflect.Slice:
		return walkPlain(t.Elem(), seen)
	case reflect.Map:
		return walkPlain(t.Key(), seen) && walkPlain(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() && !walkPlain(f.Type, seen) {
				return false
			}
		}
	}
	return true
}

// --- gob framing: just enough of the wire format to split a payload. ---

// gobUint reads one gob unsigned integer off b; n == 0 reports a
// malformed or truncated encoding.
func gobUint(b []byte) (x uint64, n int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] <= 0x7f {
		return uint64(b[0]), 1
	}
	w := -int(int8(b[0]))
	if w > 8 || len(b) < 1+w {
		return 0, 0
	}
	for _, c := range b[1 : 1+w] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + w
}

// gobInt maps gob's zig-zag signed encoding back to an int.
func gobInt(u uint64) int64 {
	if u&1 != 0 {
		return ^int64(u >> 1)
	}
	return int64(u >> 1)
}

// typeDefsLen returns the length of payload's leading type-definition
// messages (gob's count-delimited messages whose type id is negative),
// or -1 unless a whole value message follows them.
func typeDefsLen(payload []byte) int {
	for off := 0; ; {
		count, w := gobUint(payload[off:])
		if w == 0 || count > uint64(len(payload)-off-w) {
			return -1
		}
		u, idw := gobUint(payload[off+w : off+w+int(count)])
		if idw == 0 {
			return -1
		}
		if int32(gobInt(u)) >= 0 { // gob truncates ids to its int32 typeId
			return off
		}
		off += w + int(count)
	}
}

// plainDefs reports whether every type definition in prefix parses and
// none references gob's builtin interface type. Only such prefixes are
// cached: a value of an interface-free wire type carries no type
// definitions of its own, so a primed decoder's type table stays
// exactly what a fresh decoder builds from the same prefix.
func plainDefs(prefix []byte) bool {
	for len(prefix) > 0 {
		count, w := gobUint(prefix)
		s := defScan{b: prefix[w : w+int(count)]} // typeDefsLen vetted the framing
		s.uint()                                  // the (negative) id being defined
		s.wireType()
		if s.bad {
			return false
		}
		prefix = prefix[w+int(count):]
	}
	return true
}

// gobInterfaceID is the id gob's wire format reserves for interface
// values (the eighth bootstrap type).
const gobInterfaceID = 8

// defScan walks one encoded gob wireType: a struct of optional
// ArrayT/SliceT/StructT/MapT/GobEncoderT/BinaryMarshalerT/
// TextMarshalerT parts, each a struct whose first field is CommonType
// {Name, Id}. Anything it does not recognise marks the scan bad.
type defScan struct {
	b   []byte
	bad bool
}

func (s *defScan) uint() uint64 {
	x, n := gobUint(s.b)
	if n == 0 {
		s.bad = true
	}
	s.b = s.b[n:]
	return x
}

func (s *defScan) str() {
	if n := s.uint(); n <= uint64(len(s.b)) {
		s.b = s.b[n:]
	} else {
		s.bad = true
	}
}

// ref reads one type id field.
func (s *defScan) ref() {
	if gobInt(s.uint()) == gobInterfaceID {
		s.bad = true
	}
}

// fields walks one struct: gob sends (field-number delta, value) pairs
// ending at a zero delta or the end of the message, and field i's value
// is read by layout[i].
func (s *defScan) fields(layout ...func()) {
	for i := -1; !s.bad && len(s.b) > 0; {
		d := s.uint()
		if d == 0 {
			return
		}
		if d >= uint64(len(layout)-i) {
			s.bad = true
			return
		}
		i += int(d)
		layout[i]()
	}
}

// named reads a CommonType or a fieldType: both are {Name string; Id typeId}.
func (s *defScan) named() { s.fields(s.str, s.ref) }

func (s *defScan) wireType() {
	s.fields(
		func() { s.fields(s.named, s.ref, func() { s.uint() }) }, // ArrayT: Elem, Len
		func() { s.fields(s.named, s.ref) },                      // SliceT: Elem
		func() { s.fields(s.named, s.fieldList) },                // StructT: Field
		func() { s.fields(s.named, s.ref, s.ref) },               // MapT: Key, Elem
		func() { s.fields(s.named) },                             // GobEncoderT
		func() { s.fields(s.named) },                             // BinaryMarshalerT
		func() { s.fields(s.named) },                             // TextMarshalerT
	)
}

func (s *defScan) fieldList() {
	n := s.uint()
	if n > uint64(len(s.b)) {
		s.bad = true
		return
	}
	for ; n > 0 && !s.bad; n-- {
		s.named()
	}
}
