package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"memstream/internal/device"
)

func sample() []Event {
	return []Event{
		{At: 0, Op: device.Read, Block: 100, Blocks: 8, Stream: 0},
		{At: 5 * time.Millisecond, Op: device.Write, Block: 2000, Blocks: 128, Stream: 1},
		{At: 12 * time.Millisecond, Op: device.Read, Block: 0, Blocks: 1, Stream: 2},
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if len(got) != len(want) {
		t.Fatalf("events = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestTextSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n0 r 1 2 3\n   \n# tail\n"
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Block != 1 {
		t.Fatalf("got %+v", got)
	}
}

func TestTextErrors(t *testing.T) {
	cases := []string{
		"0 r 1 2",   // too few fields
		"x r 1 2 3", // bad timestamp
		"0 q 1 2 3", // bad op
		"0 r x 2 3", // bad block
		"0 r 1 x 3", // bad length
		"0 r 1 2 x", // bad stream
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestEventRequest(t *testing.T) {
	e := Event{At: time.Second, Op: device.Write, Block: 7, Blocks: 3, Stream: 9}
	r := e.Request()
	if r != (device.Request{Op: device.Write, Block: 7, Blocks: 3, Stream: 9}) {
		t.Errorf("request = %+v", r)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sample())
	if s.Events != 3 || s.Reads != 2 || s.Writes != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.TotalBlocks != 137 {
		t.Errorf("blocks = %d, want 137", s.TotalBlocks)
	}
	if s.Span != 12*time.Millisecond {
		t.Errorf("span = %v", s.Span)
	}
	empty := Summarize(nil)
	if empty.Events != 0 || empty.Span != 0 {
		t.Error("empty summary wrong")
	}
}

// Property: the text codec round-trips arbitrary well-formed traces.
func TestCodecsRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		events := make([]Event, 0, len(raw)/4)
		for i := 0; i+3 < len(raw); i += 4 {
			op := device.Read
			if raw[i]%2 == 1 {
				op = device.Write
			}
			events = append(events, Event{
				At:     time.Duration(raw[i]) * time.Microsecond,
				Op:     op,
				Block:  int64(raw[i+1]),
				Blocks: int64(raw[i+2]%1024) + 1,
				Stream: int(raw[i+3] % 4096),
			})
		}
		var tb bytes.Buffer
		if err := WriteText(&tb, events); err != nil {
			return false
		}
		fromText, err := ReadText(&tb)
		if err != nil {
			return false
		}
		if len(fromText) != len(events) {
			return false
		}
		for i := range events {
			if fromText[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
