package scenario

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// FuzzParseSpec feeds arbitrary spec files to ParseSpec (the -spec
// flag and the service's corpus upload). It must never panic, and a
// spec it accepts must survive Encode: the encoding parses back to the
// same spec (NaN included), so re-encoding is a fixed point.
// Hand-made edge cases live in testdata/fuzz/FuzzParseSpec.
func FuzzParseSpec(f *testing.F) {
	for _, sp := range []Spec{
		{},
		Spec{}.WithDefaults(),
		Spec{Seed: -7, Count: 3, BitRates: []int{125000, 500000},
			GatewayPeriodMin: 700 * time.Microsecond, TDMAProbability: -1},
	} {
		var buf bytes.Buffer
		if err := sp.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Fuzz(func(t *testing.T, text string) {
		sp, err := ParseSpec(strings.NewReader(text))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := sp.Encode(&enc); err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("encoded spec does not parse: %v\n%s", err, enc.String())
		}
		if got, want := fmt.Sprintf("%#v", back), fmt.Sprintf("%#v", sp); got != want {
			t.Fatalf("round trip changed the spec:\n got %s\nwant %s", got, want)
		}
	})
}
