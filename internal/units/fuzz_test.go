package units

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseBytes checks the size parser never panics, that accepted
// values are finite and render back to something parseable, and that
// its number split accepts, rejects and rounds exactly as the
// strconv-only oracle does.
func FuzzParseBytes(f *testing.F) {
	for _, seed := range []string{"10GB", "1.5TB", "0", "-3MB", "GB", "1e9", "10 XB", "  7 kb ", ".5K", "5.", "0.000123MB", "1234567890123456"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkSplitMatchesStrconv(t, in)
		b, err := ParseBytes(in)
		if err != nil {
			return
		}
		if math.IsNaN(float64(b)) {
			t.Fatalf("ParseBytes(%q) accepted NaN", in)
		}
		if math.IsInf(float64(b), 0) {
			return // "1e999GB"-style inputs legitimately overflow
		}
		if _, err := ParseBytes(b.String()); err != nil {
			t.Fatalf("rendered value %q does not re-parse", b.String())
		}
	})
}

// FuzzParseRate does the same for the rate parser, whose number split
// runs on the input with its "/s" suffix removed.
func FuzzParseRate(f *testing.F) {
	for _, seed := range []string{"300MB/s", "10KB", "5", "/s", "MB/s", "10KB/s", "100KB/s", "10000", "2.5e3/s"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkSplitMatchesStrconv(t, strings.TrimSuffix(strings.TrimSpace(in), "/s"))
		r, err := ParseRate(in)
		if err != nil {
			return
		}
		if math.IsNaN(float64(r)) {
			t.Fatalf("ParseRate(%q) accepted NaN", in)
		}
	})
}
