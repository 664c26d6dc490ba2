package units

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseBytes parses a human byte size such as "10GB", "512KB", "1.5TB" or a
// bare number of bytes. Units are decimal, matching the rest of the package.
func ParseBytes(s string) (Bytes, error) {
	v, unit, err := splitNumberUnit(s)
	if err != nil {
		return 0, fmt.Errorf("units: parse bytes %q: %w", s, err)
	}
	switch strings.ToUpper(unit) {
	case "", "B":
		return Bytes(v), nil
	case "KB", "K":
		return Bytes(v) * KB, nil
	case "MB", "M":
		return Bytes(v) * MB, nil
	case "GB", "G":
		return Bytes(v) * GB, nil
	case "TB", "T":
		return Bytes(v) * TB, nil
	}
	return 0, fmt.Errorf("units: parse bytes %q: unknown unit %q", s, unit)
}

// ParseRate parses a human data rate such as "300MB/s", "10KB/s" or a bare
// number of bytes per second.
func ParseRate(s string) (ByteRate, error) {
	t := strings.TrimSuffix(strings.TrimSpace(s), "/s")
	b, err := ParseBytes(t)
	if err != nil {
		return 0, fmt.Errorf("units: parse rate %q: %w", s, err)
	}
	return ByteRate(b), nil
}

func splitNumberUnit(s string) (float64, string, error) {
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
	if v, ok := parsePlainDecimal(num); ok {
		return v, unit, nil
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, "", fmt.Errorf("bad number %q", num)
	}
	return v, unit, nil
}

// Limits of the exact decimal fast path: a mantissa of at most 15
// significant digits is below 2^53, and 10^22 is the largest power of
// ten a float64 holds exactly.
const (
	maxFastDigits   = 15
	maxFastFraction = 22
)

// parsePlainDecimal parses digits with at most one dot ("10", "2.5",
// ".5", "5.") when the value is an exact integer mantissa over an exact
// power of ten. One IEEE division of two exact operands is correctly
// rounded, so the result is bit-equal to strconv.ParseFloat's, which
// takes the same fast path (Clinger's). It exists because ParseFloat's
// ~1 KB stack frame grew every PLAY handler's goroutine stack; anything
// it declines (signs, exponents, long mantissas, malformed input) goes
// to ParseFloat.
func parsePlainDecimal(s string) (float64, bool) {
	var mant uint64
	digits, frac := 0, -1 // frac counts digits after the dot; -1 before it
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '.' && frac < 0:
			frac = 0
			continue
		case c < '0' || c > '9':
			return 0, false
		}
		if frac >= 0 {
			frac++
		}
		if mant == 0 && c == '0' {
			continue // leading zeros are not significant
		}
		if digits++; digits > maxFastDigits {
			return 0, false
		}
		mant = mant*10 + uint64(c-'0')
	}
	switch {
	case frac < 0:
		return float64(mant), len(s) > 0
	case frac > maxFastFraction, len(s) == 1: // "." alone has no digits
		return 0, false
	}
	pow := 1.0
	for range frac {
		pow *= 10 // exact: every power of ten up to 10^22 is a float64
	}
	return float64(mant) / pow, true
}
