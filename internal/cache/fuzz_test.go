package cache

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary payloads to the codec: bytes read back
// from a -cache-dir are untrusted. Decode must never panic, and a
// payload it accepts must re-encode to a fixed point: encoding the
// decoded value and decoding that again reproduces the same bytes.
// Hand-made edge cases live in testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	for _, v := range sampleValues() {
		payload, ok := Encode(v)
		if !ok {
			f.Fatalf("Encode refused %T", v)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		v, err := Decode(payload)
		if err != nil {
			return
		}
		checkFixedPoint(t, v, Encode, Decode)
	})
}

// FuzzDecodeRecord feeds arbitrary files to the record framing (magic,
// version, length, crc) around the codec payload, with the same
// no-panic and fixed-point properties as FuzzDecode. Hand-made edge
// cases live in testdata/fuzz/FuzzDecodeRecord.
func FuzzDecodeRecord(f *testing.F) {
	for _, v := range sampleValues() {
		rec, ok := encodeValueRecord(v)
		if !ok {
			f.Fatalf("Encode refused %T", v)
		}
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		v, err := decodeRecord(rec)
		if err != nil {
			return
		}
		checkFixedPoint(t, v, encodeValueRecord, decodeRecord)
	})
}

// encodeValueRecord frames a value's payload the way Disk.Put does.
func encodeValueRecord(v any) ([]byte, bool) {
	payload, ok := Encode(v)
	if !ok {
		return nil, false
	}
	return encodeRecord(payload), true
}

// checkFixedPoint asserts that a decoded value re-encodes, and that the
// re-encoding survives another decode/encode cycle byte for byte.
func checkFixedPoint(t *testing.T, v any, enc func(any) ([]byte, bool), dec func([]byte) (any, error)) {
	t.Helper()
	b1, ok := enc(v)
	if !ok {
		t.Fatalf("decoded %T does not re-encode", v)
	}
	v2, err := dec(b1)
	if err != nil {
		t.Fatalf("re-encoded %T does not decode: %v", v, err)
	}
	b2, ok := enc(v2)
	if !ok || !bytes.Equal(b1, b2) {
		t.Fatalf("encoding is not a fixed point for %T:\n%x\n%x", v, b1, b2)
	}
}
