package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestByteConstants(t *testing.T) {
	if KB != 1e3 || MB != 1e6 || GB != 1e9 || TB != 1e12 {
		t.Fatalf("decimal byte constants wrong: KB=%v MB=%v GB=%v TB=%v", KB, MB, GB, TB)
	}
}

func TestBytesSeconds(t *testing.T) {
	tests := []struct {
		b    Bytes
		r    ByteRate
		want float64
	}{
		{300 * MB, 300 * MBPS, 1},
		{1 * GB, 100 * MBPS, 10},
		{0, 1 * MBPS, 0},
		{512 * KB, 1 * MBPS, 0.512},
	}
	for _, tc := range tests {
		if got := tc.b.Seconds(tc.r); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("(%v).Seconds(%v) = %v, want %v", tc.b, tc.r, got, tc.want)
		}
	}
}

func TestBytesSecondsZeroRate(t *testing.T) {
	if got := (1 * MB).Seconds(0); !math.IsInf(got, 1) {
		t.Errorf("Seconds with zero rate = %v, want +Inf", got)
	}
	if got := (1 * MB).Seconds(-5); !math.IsInf(got, 1) {
		t.Errorf("Seconds with negative rate = %v, want +Inf", got)
	}
}

func TestBytesDurationSaturates(t *testing.T) {
	d := (1 * TB).Duration(0)
	if d != time.Duration(math.MaxInt64) {
		t.Errorf("Duration at zero rate = %v, want max duration", d)
	}
	if got := (1 * MB).Duration(1 * MBPS); got != time.Second {
		t.Errorf("Duration = %v, want 1s", got)
	}
}

func TestBytesIn(t *testing.T) {
	if got := BytesIn(100*MBPS, 2*time.Second); got != 200*MB {
		t.Errorf("BytesIn = %v, want 200MB", got)
	}
}

func TestRateOf(t *testing.T) {
	if got := RateOf(100*MB, time.Second); got != 100*MBPS {
		t.Errorf("RateOf = %v, want 100MB/s", got)
	}
	if got := RateOf(100*MB, 0); got != 0 {
		t.Errorf("RateOf zero duration = %v, want 0", got)
	}
}

func TestPerGBCost(t *testing.T) {
	// Table 3: DRAM at $20/GB, 5GB costs $100.
	p := PerGB(20)
	if got := p.Cost(5 * GB); math.Abs(float64(got-100)) > 1e-9 {
		t.Errorf("Cost(5GB @ $20/GB) = %v, want $100", got)
	}
}

func TestBytesString(t *testing.T) {
	tests := []struct {
		b    Bytes
		want string
	}{
		{1500 * MB, "1.50GB"},
		{10 * GB, "10.00GB"},
		{2 * TB, "2.00TB"},
		{512, "512B"},
		{-3 * MB, "-3.00MB"},
		{10 * KB, "10.00KB"},
	}
	for _, tc := range tests {
		if got := tc.b.String(); got != tc.want {
			t.Errorf("(%g).String() = %q, want %q", float64(tc.b), got, tc.want)
		}
	}
}

func TestRateString(t *testing.T) {
	tests := []struct {
		r    ByteRate
		want string
	}{
		{300 * MBPS, "300.00MB/s"},
		{10 * KBPS, "10.00KB/s"},
		{2 * GBPS, "2.00GB/s"},
		{5, "5B/s"},
	}
	for _, tc := range tests {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("rate String = %q, want %q", got, tc.want)
		}
	}
}

func TestDollarsString(t *testing.T) {
	if got := Dollars(12.345).String(); got != "$12.35" {
		t.Errorf("Dollars String = %q", got)
	}
	if got := Dollars(-3).String(); got != "-$3.00" {
		t.Errorf("negative Dollars String = %q", got)
	}
}

func TestMillisecondsSeconds(t *testing.T) {
	if got := Milliseconds(2.8); got != 2800*time.Microsecond {
		t.Errorf("Milliseconds(2.8) = %v", got)
	}
	if got := Seconds(1.5); got != 1500*time.Millisecond {
		t.Errorf("Seconds(1.5) = %v", got)
	}
}

func TestParseBytes(t *testing.T) {
	tests := []struct {
		in   string
		want Bytes
	}{
		{"10GB", 10 * GB},
		{"10 GB", 10 * GB},
		{"1.5TB", 1.5 * TB},
		{"512KB", 512 * KB},
		{"128", 128},
		{"128B", 128},
		{"3M", 3 * MB},
	}
	for _, tc := range tests {
		got, err := ParseBytes(tc.in)
		if err != nil {
			t.Errorf("ParseBytes(%q) error: %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseBytes(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseBytesErrors(t *testing.T) {
	for _, in := range []string{"", "GB", "10XB", "ten GB"} {
		if _, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) succeeded, want error", in)
		}
	}
}

func TestParseRate(t *testing.T) {
	got, err := ParseRate("300MB/s")
	if err != nil || got != 300*MBPS {
		t.Fatalf("ParseRate(300MB/s) = %v, %v", got, err)
	}
	got, err = ParseRate("10KB")
	if err != nil || got != 10*KBPS {
		t.Fatalf("ParseRate(10KB) = %v, %v", got, err)
	}
	if _, err := ParseRate("fast"); err == nil {
		t.Fatal("ParseRate(fast) succeeded, want error")
	}
}

// Property: transfer time is additive in size — moving a+b bytes takes the
// sum of moving a and b separately at the same rate.
func TestSecondsAdditiveProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		r := ByteRate(50 * MBPS)
		ab := (Bytes(a) + Bytes(b)).Seconds(r)
		sum := Bytes(a).Seconds(r) + Bytes(b).Seconds(r)
		return math.Abs(ab-sum) < 1e-9*(1+math.Abs(ab))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BytesIn and RateOf are inverses for positive durations.
func TestRateRoundTripProperty(t *testing.T) {
	f := func(r uint32, ms uint16) bool {
		if ms == 0 {
			return true
		}
		rate := ByteRate(r) + 1
		d := time.Duration(ms) * time.Millisecond
		b := BytesIn(rate, d)
		got := RateOf(b, d)
		return math.Abs(float64(got-rate)) < 1e-6*float64(rate)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ParseBytes(b.String()) stays within rounding error of b for
// values rendered with two decimals.
func TestStringParseRoundTripProperty(t *testing.T) {
	f := func(v uint32) bool {
		b := Bytes(v) * KB
		parsed, err := ParseBytes(b.String())
		if err != nil {
			return false
		}
		return math.Abs(float64(parsed-b)) <= 0.005*math.Max(float64(b), 1)*1e3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
