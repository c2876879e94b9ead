package kmatrix

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeCSV feeds arbitrary files to DecodeCSV (the -kmatrix
// flag). It must never panic, and a matrix it accepts must survive
// EncodeCSV: the encoding decodes to the identical matrix, and
// re-encoding that is byte-identical. Hand-made edge cases live in
// testdata/fuzz/FuzzDecodeCSV.
func FuzzDecodeCSV(f *testing.F) {
	for _, k := range []*KMatrix{
		Powertrain(GenConfig{Seed: 1, Messages: 3, ECUs: 2, Gateways: 1}),
		Powertrain(GenConfig{Seed: 2, Messages: 6, ECUs: 3, Gateways: 1, KnownJitterFraction: 0.5}),
	} {
		var buf strings.Builder
		if err := k.EncodeCSV(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Fuzz(func(t *testing.T, text string) {
		k, err := DecodeCSV(strings.NewReader(text))
		if err != nil {
			return
		}
		var enc strings.Builder
		if err := k.EncodeCSV(&enc); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeCSV(strings.NewReader(enc.String()))
		if err != nil {
			t.Fatalf("encoded matrix does not decode: %v\n%s", err, enc.String())
		}
		if !reflect.DeepEqual(back, k) {
			t.Fatalf("round trip changed the matrix:\n got %+v\nwant %+v", back, k)
		}
		var again strings.Builder
		if err := back.EncodeCSV(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != enc.String() {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", enc.String(), again.String())
		}
	})
}
