// Package trace records and replays device IO traces. Traces decouple
// workload generation from device evaluation: the memsim tool replays the
// same trace against disk and MEMS models to compare service behaviour,
// and tests use golden traces to pin scheduler behaviour.
//
// The codec is a line-oriented text form, one event per line (grep-able).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"memstream/internal/device"
)

// Event is one trace record: a request and when it was issued.
type Event struct {
	At     time.Duration
	Op     device.Op
	Block  int64
	Blocks int64
	Stream int
}

// Request converts the event to a device request. At is not part of the
// request: a device serves it at the now its caller passes in, and
// memsim -device serves a trace's events back to back, each starting
// when the one before it finished.
func (e Event) Request() device.Request {
	return device.Request{Op: e.Op, Block: e.Block, Blocks: e.Blocks, Stream: e.Stream}
}

// WriteText encodes events one per line:
//
//	<at_ns> <r|w> <block> <blocks> <stream>
func WriteText(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		op := "r"
		if e.Op == device.Write {
			op = "w"
		}
		if _, err := fmt.Fprintf(bw, "%d %s %d %d %d\n",
			e.At.Nanoseconds(), op, e.Block, e.Blocks, e.Stream); err != nil {
			return fmt.Errorf("trace: write: %w", err)
		}
	}
	return bw.Flush()
}

// ReadText decodes the text form. Blank lines and lines starting with '#'
// are skipped.
func ReadText(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 5 {
			return nil, fmt.Errorf("trace: line %d: want 5 fields, got %d", line, len(f))
		}
		at, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad timestamp %q", line, f[0])
		}
		var op device.Op
		switch f[1] {
		case "r":
			op = device.Read
		case "w":
			op = device.Write
		default:
			return nil, fmt.Errorf("trace: line %d: bad op %q", line, f[1])
		}
		block, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad block %q", line, f[2])
		}
		blocks, err := strconv.ParseInt(f[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad length %q", line, f[3])
		}
		stream, err := strconv.Atoi(f[4])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad stream %q", line, f[4])
		}
		events = append(events, Event{At: time.Duration(at), Op: op, Block: block, Blocks: blocks, Stream: stream})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	return events, nil
}

// Stats summarizes a trace.
type Stats struct {
	Events      int
	Reads       int
	Writes      int
	TotalBlocks int64
	Span        time.Duration
}

// Summarize computes trace statistics.
func Summarize(events []Event) Stats {
	var s Stats
	s.Events = len(events)
	for _, e := range events {
		if e.Op == device.Write {
			s.Writes++
		} else {
			s.Reads++
		}
		s.TotalBlocks += e.Blocks
		if e.At > s.Span {
			s.Span = e.At
		}
	}
	return s
}
