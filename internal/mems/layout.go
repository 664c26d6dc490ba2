package mems

import (
	"fmt"

	"memstream/internal/units"
)

// Contiguous is the naive placement: each stream's data occupies one
// contiguous extent. Round-robin service over N streams then pays a long
// X seek on every stream switch, because concurrent streams live far
// apart on the sled. The paper's future work (§7) calls for "intelligent
// placement policies for data on the MEMS device so as to improve the
// access characteristics"; Contiguous and Interleaved, both tier.Layouts,
// realize the baseline and the optimization.
type Contiguous struct {
	perStream int64 // blocks per stream extent
	streams   int
}

// NewContiguous allocates n equal extents over the device.
func NewContiguous(d *Device, n int) (*Contiguous, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mems: need at least one stream")
	}
	per := d.Geometry().Blocks / int64(n)
	if per < 1 {
		return nil, fmt.Errorf("mems: %d streams exceed device blocks", n)
	}
	return &Contiguous{perStream: per, streams: n}, nil
}

// Map places stream s's block b inside its extent (wrapping within it).
func (c *Contiguous) Map(stream int, block int64) (int64, error) {
	if stream < 0 || stream >= c.streams {
		return 0, fmt.Errorf("mems: stream %d outside layout of %d", stream, c.streams)
	}
	return int64(stream)*c.perStream + block%c.perStream, nil
}

// Interleaved is the streaming-aware placement: the j-th chunk of every
// stream is grouped into the j-th stripe, so streams progressing in lock
// step (which time-cycle scheduling guarantees) always access neighboring
// sled positions. Stream switches within a cycle then cost near-minimal X
// movement.
type Interleaved struct {
	chunk   int64 // blocks per chunk (one IO)
	streams int
	stripes int64 // chunks per stream that fit
}

// NewInterleaved builds the interleaving for n streams issuing IOs of
// ioSize bytes.
func NewInterleaved(d *Device, n int, ioSize units.Bytes) (*Interleaved, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mems: need at least one stream")
	}
	chunk := int64(ioSize / d.Geometry().BlockSize)
	if chunk < 1 {
		chunk = 1
	}
	stripes := d.Geometry().Blocks / (int64(n) * chunk)
	if stripes < 1 {
		return nil, fmt.Errorf("mems: %d streams with %v IOs exceed device capacity", n, ioSize)
	}
	return &Interleaved{chunk: chunk, streams: n, stripes: stripes}, nil
}

// Map sends stream s's block b to stripe (b/chunk), slot s within the
// stripe, wrapping when the stream outgrows the stripes. Requests must
// stay within one chunk (callers issue IO-sized requests, which is what
// the chunk is sized to).
func (il *Interleaved) Map(stream int, block int64) (int64, error) {
	if stream < 0 || stream >= il.streams {
		return 0, fmt.Errorf("mems: stream %d outside layout of %d", stream, il.streams)
	}
	stripe := (block / il.chunk) % il.stripes
	within := block % il.chunk
	return stripe*int64(il.streams)*il.chunk + int64(stream)*il.chunk + within, nil
}
