package serve

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
)

// bufioRequestLine is the request-line read readRequestLine replaced,
// kept as its oracle: a per-connection bufio.Reader over a LimitReader.
func bufioRequestLine(r io.Reader) (string, error) {
	return bufio.NewReaderSize(io.LimitReader(r, maxRequestLine), maxRequestLine).ReadString('\n')
}

// oracleReadCounters is how the handler charges a failed read: the
// (Reaped, Aborted) increments for the line read before err.
func oracleReadCounters(line string, err error) (reaped, aborted uint64) {
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		return 1, 0
	case errors.Is(err, io.EOF) && len(line) >= maxRequestLine:
		return 1, 0
	case len(line) > 0:
		return 0, 1
	}
	return 0, 0
}

var errReset = errors.New("connection reset by peer")

// How a scriptConn's request ends once its data is used up.
const (
	endEOF             = iota // (0, io.EOF)
	endEOFWithData            // io.EOF returned with the last bytes
	endTimeout                // (0, deadline exceeded)
	endTimeoutWithData        // deadline exceeded returned with the last bytes
	endReset                  // (0, a client reset)
	endSilent                 // zero-byte reads forever
	endModes
)

// scriptConn is a client that sends data in scripted read sizes, then
// ends the way its end mode says. A read size of 0 is a zero-byte read.
type scriptConn struct {
	nullConn // writes, deadlines and addresses
	data     []byte
	sizes    []byte
	reads    int
	end      int
}

func newScriptConn(data, sizes []byte, end byte) *scriptConn {
	return &scriptConn{data: data, sizes: sizes, end: int(end) % endModes}
}

func (c *scriptConn) endErr() error {
	switch c.end {
	case endEOF, endEOFWithData:
		return io.EOF
	case endTimeout, endTimeoutWithData:
		return os.ErrDeadlineExceeded
	case endReset:
		return errReset
	}
	return nil
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, c.endErr()
	}
	size := len(c.data)
	if len(c.sizes) > 0 {
		size = int(c.sizes[c.reads%len(c.sizes)])
		c.reads++
	}
	n := copy(p, c.data[:min(size, len(c.data))])
	c.data = c.data[n:]
	if len(c.data) == 0 && (c.end == endEOFWithData || c.end == endTimeoutWithData) {
		return n, c.endErr()
	}
	return n, nil
}

// FuzzRequestLine holds readRequestLine to the bufio oracle on clients
// that split their bytes arbitrarily, send zero-byte reads, and end with
// EOF, a timeout or a reset, alone or riding on their last bytes. Both
// readers must return the same line and the same error; when the read
// fails, the handler must charge the counter the oracle's result
// classifies to (Reaped, Aborted, or neither).
func FuzzRequestLine(f *testing.F) {
	long := strings.Repeat("X", maxRequestLine)
	for _, seed := range []struct {
		data, sizes string
		end         byte
	}{
		{"PLAY 100KB\n", "", endEOF},
		{"PLAY 100KB\nSTAT\n", "\x03", endReset},
		{"PLA", "\x01", endTimeout},
		{"PLA", "", endEOFWithData},
		{"STAT", "\x02\x00", endTimeoutWithData},
		{"", "", endSilent},
		{"PLAY", "\x00", endSilent},
		// Progress on the last tolerated empty read, and one past it.
		{"STAT\n", strings.Repeat("\x00", maxEmptyReads-1) + "\x01", endEOF},
		{"STAT\n", strings.Repeat("\x00", maxEmptyReads) + "\x01", endEOF},
		{long, "\xff\x07", endEOF},
		{long + "\n", "", endTimeout},
		{long[1:] + "\n", "", endEOFWithData},
	} {
		f.Add([]byte(seed.data), []byte(seed.sizes), seed.end)
	}
	// The handler only ever sees failed reads here, so it never streams:
	// the goroutine plane, which needs no Close, will do.
	cfg := testConfig(0)
	cfg.Pacing = PacingGoroutine
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data, sizes []byte, end byte) {
		got, gotErr := readRequestLine(newScriptConn(data, sizes, end))
		want, wantErr := bufioRequestLine(newScriptConn(data, sizes, end))
		if got != want || gotErr != wantErr {
			t.Fatalf("readRequestLine = %q, %v; bufio oracle %q, %v", got, gotErr, want, wantErr)
		}
		if wantErr == nil {
			return
		}
		reaped, aborted := s.metrics.Reaped.Load(), s.metrics.Aborted.Load()
		s.handle(&streamState{conn: newScriptConn(data, sizes, end)})
		dReaped, dAborted := s.metrics.Reaped.Load()-reaped, s.metrics.Aborted.Load()-aborted
		wantReaped, wantAborted := oracleReadCounters(want, wantErr)
		if dReaped != wantReaped || dAborted != wantAborted {
			t.Fatalf("line %q, %v: handler counted reaped+%d aborted+%d, want reaped+%d aborted+%d",
				want, wantErr, dReaped, dAborted, wantReaped, wantAborted)
		}
	})
}

// nextField takes the request line's first two fields exactly as
// strings.Fields splits them: on every unicode.IsSpace rune, ASCII or
// not, with invalid UTF-8 bytes inside fields.
func FuzzNextField(f *testing.F) {
	for _, seed := range []string{
		"", " ", "PLAY\n", "PLAY 100KB\n", "  play\t\t2MB  extra \r\n", "\v\fPLAY\u00a0100KB",
		"PLAY\u0085100KB", "PLAY\u2003100KB\u3000x", "\xffPLAY \xfe100KB", "PLAY\xc2 100KB",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		var want [2]string
		copy(want[:], strings.Fields(line))
		cmd, rest := nextField(line)
		arg, _ := nextField(rest)
		if cmd != want[0] || arg != want[1] {
			t.Fatalf("nextField(%q) twice = %q, %q; strings.Fields gives %q, %q", line, cmd, arg, want[0], want[1])
		}
	})
}

// The request-line read allocates only the line it returns: no reader,
// no limit wrapper and no buffer per connection.
func TestReadRequestLineAllocatesOnlyTheLine(t *testing.T) {
	req := []byte("PLAY 100KB\n")
	conn := &scriptConn{}
	allocs := testing.AllocsPerRun(1000, func() {
		*conn = scriptConn{data: req}
		if _, err := readRequestLine(conn); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("readRequestLine allocates %.0f/op, want 1 (the line)", allocs)
	}
}
