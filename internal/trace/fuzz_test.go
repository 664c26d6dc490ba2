package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadText checks the text decoder never panics and that everything
// it accepts round-trips through the encoder.
func FuzzReadText(f *testing.F) {
	f.Add("0 r 1 2 3\n")
	f.Add("# comment\n\n100 w 5 6 7\n")
	f.Add("x r 1 2 3\n")
	f.Add("0 r 1 2\n")
	f.Add(strings.Repeat("1 r 2 3 4\n", 100))
	f.Fuzz(func(t *testing.T, in string) {
		events, err := ReadText(strings.NewReader(in))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, events); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		again, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed count: %d -> %d", len(events), len(again))
		}
		for i := range events {
			if events[i] != again[i] {
				t.Fatalf("event %d changed: %+v -> %+v", i, events[i], again[i])
			}
		}
	})
}
