package units

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// strconvSplitNumberUnit is splitNumberUnit before the decimal fast
// path: every number goes through strconv.ParseFloat. It is the oracle
// the fast path must match bit for bit.
func strconvSplitNumberUnit(s string) (float64, string, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, "", fmt.Errorf("empty input")
	}
	i := len(t)
	for i > 0 {
		c := t[i-1]
		if c >= '0' && c <= '9' || c == '.' {
			break
		}
		i--
	}
	num, unit := strings.TrimSpace(t[:i]), strings.TrimSpace(t[i:])
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, "", fmt.Errorf("bad number %q", num)
	}
	return v, unit, nil
}

// checkSplitMatchesStrconv requires splitNumberUnit to accept exactly
// what the strconv oracle accepts, with the same unit, the same error
// text and a bit-equal value.
func checkSplitMatchesStrconv(t *testing.T, in string) {
	t.Helper()
	v, unit, err := splitNumberUnit(in)
	wv, wunit, werr := strconvSplitNumberUnit(in)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("splitNumberUnit(%q) error %v, strconv oracle %v", in, err, werr)
	}
	if unit != wunit || math.Float64bits(v) != math.Float64bits(wv) {
		t.Fatalf("splitNumberUnit(%q) = %v (%#x) %q, strconv oracle %v (%#x) %q",
			in, v, math.Float64bits(v), unit, wv, math.Float64bits(wv), wunit)
	}
}

// randomDecimal builds a plain decimal of 1–15 digits: optional leading
// zeros, an optional dot anywhere (leading and trailing included).
func randomDecimal(rng *rand.Rand) string {
	var b strings.Builder
	for z := rng.Intn(4); z > 0; z-- {
		b.WriteByte('0')
	}
	digits := make([]byte, 1+rng.Intn(15))
	for i := range digits {
		digits[i] = byte('0' + rng.Intn(10))
	}
	dot := -1
	if rng.Intn(4) != 0 {
		dot = rng.Intn(len(digits) + 1) // 0: ".5"; len: "5."
	}
	for i, d := range digits {
		if i == dot {
			b.WriteByte('.')
		}
		b.WriteByte(d)
	}
	if dot == len(digits) {
		b.WriteByte('.')
	}
	return b.String()
}

// Every plain decimal of up to 15 digits takes the fast path and lands on
// the same float64 as strconv.ParseFloat, bare and with a unit.
func TestPlainDecimalMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		s := randomDecimal(rng)
		want, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("%q: generator produced a non-number: %v", s, err)
		}
		got, ok := parsePlainDecimal(s)
		if !ok {
			t.Fatalf("parsePlainDecimal(%q) declined a plain decimal of ≤ 15 digits", s)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("parsePlainDecimal(%q) = %v (%#x), ParseFloat %v (%#x)",
				s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		checkSplitMatchesStrconv(t, s+"KB/s")
	}
}

// Inputs outside the fast path's exact range go to strconv: the fast
// path declines them rather than rounding twice.
func TestPlainDecimalDeclines(t *testing.T) {
	for _, s := range []string{
		"", ".", "..", "1.2.3", "+5", "-5", "1e3", "0x10", "1_000", "Inf", "NaN",
		"1234567890123456",          // 16 significant digits
		"0.00000000000000000000001", // 23 fraction digits
		"12345678901234567890.5",    // long integer part
		"5 ",                        // splitNumberUnit trims; the fast path does not
	} {
		if v, ok := parsePlainDecimal(s); ok {
			t.Errorf("parsePlainDecimal(%q) = %v, want declined", s, v)
		}
		checkSplitMatchesStrconv(t, s)
	}
	// Leading zeros are not significant digits.
	if v, ok := parsePlainDecimal("000000000000000000001.5"); !ok || v != 1.5 {
		t.Errorf("parsePlainDecimal with 20 leading zeros = %v, %v; want 1.5, true", v, ok)
	}
}

// benchRate keeps the compiler from discarding the parse.
var benchRate ByteRate

// BenchmarkParseRate is the PLAY request's rate parse. It must not
// allocate: a PLAY handler parses one rate per connection.
func BenchmarkParseRate(b *testing.B) {
	for _, in := range []string{"10KB/s", "100KB/s"} {
		b.Run(in, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := ParseRate(in)
				if err != nil {
					b.Fatal(err)
				}
				benchRate = r
			}
		})
	}
}
