package disk

import (
	"fmt"
	"time"

	"memstream/internal/device"
	"memstream/internal/units"
)

// Array is a RAID-0-style stripe set over identical drives — the
// conventional way to scale a media server's disk bandwidth, and the
// alternative the MEMS bank is compared against (the paper's §6 points to
// the disk-array literature for load balancing; §5's cost argument is
// about beating exactly this kind of hardware scaling).
type Array struct {
	members    []*Device
	stripe     int64 // blocks per stripe unit
	geom       device.Geometry
	memberFree []time.Duration // when each member's last share completes
}

// NewArray builds an n-drive stripe set with the given stripe unit.
func NewArray(n int, p Params, stripeUnit units.Bytes) (*Array, error) {
	if n <= 0 {
		return nil, fmt.Errorf("disk: array needs at least one member")
	}
	if stripeUnit < p.SectorBytes {
		return nil, fmt.Errorf("disk: stripe unit %v below sector size", stripeUnit)
	}
	members := make([]*Device, n)
	for i := range members {
		d, err := New(p)
		if err != nil {
			return nil, fmt.Errorf("disk: array member %d: %w", i, err)
		}
		members[i] = d
	}
	stripe := int64(stripeUnit / p.SectorBytes)
	return &Array{
		members:    members,
		stripe:     stripe,
		memberFree: make([]time.Duration, n),
		geom: device.Geometry{
			BlockSize: p.SectorBytes,
			Blocks:    members[0].Geometry().Blocks * int64(n),
		},
	}, nil
}

// Members returns the number of drives.
func (a *Array) Members() int { return len(a.members) }

// Member returns drive i (for statistics).
func (a *Array) Member(i int) *Device { return a.members[i] }

// Geometry returns the combined logical space.
func (a *Array) Geometry() device.Geometry { return a.geom }

// Model returns the array's planner-facing description: aggregate
// bandwidth, single-drive latency (stripes seek independently but a
// request's completion waits for its slowest member).
func (a *Array) Model() device.Model {
	m := a.members[0].Model()
	m.Name = fmt.Sprintf("%dx %s", len(a.members), m.Name)
	m.Rate = units.ByteRate(float64(m.Rate) * float64(len(a.members)))
	m.Capacity = a.geom.Capacity()
	m.CostPerDev = units.Dollars(float64(m.CostPerDev) * float64(len(a.members)))
	return m
}

// locate maps an array LBN to (member, member LBN).
func (a *Array) locate(lbn int64) (int, int64) {
	stripeIdx := lbn / a.stripe
	within := lbn % a.stripe
	member := int(stripeIdx % int64(len(a.members)))
	memberStripe := stripeIdx / int64(len(a.members))
	return member, memberStripe*a.stripe + within
}

// subRequest is one member's share of an array request.
type subRequest struct {
	member int
	req    device.Request
}

// split decomposes an array request into member requests.
func (a *Array) split(r device.Request) ([]subRequest, error) {
	if err := a.geom.Validate(r); err != nil {
		return nil, err
	}
	var subs []subRequest
	remaining := r.Blocks
	lbn := r.Block
	for remaining > 0 {
		member, mlbn := a.locate(lbn)
		chunk := a.stripe - lbn%a.stripe
		if chunk > remaining {
			chunk = remaining
		}
		subs = append(subs, subRequest{
			member: member,
			req: device.Request{
				Op: r.Op, Block: mlbn, Blocks: chunk, Stream: r.Stream,
			},
		})
		lbn += chunk
		remaining -= chunk
	}
	return subs, nil
}

// Service performs one request starting at now: member shares proceed in
// parallel (each on its own drive, queued behind that drive's in-flight
// work as tracked by memberFree), and the request completes when the
// slowest share does.
func (a *Array) Service(now time.Duration, r device.Request) (device.Completion, error) {
	subs, err := a.split(r)
	if err != nil {
		return device.Completion{}, err
	}
	var finish time.Duration
	for _, s := range subs {
		start := now
		if t := a.memberFree[s.member]; t > start {
			start = t
		}
		c, err := a.members[s.member].Service(start, s.req)
		if err != nil {
			return device.Completion{}, err
		}
		a.memberFree[s.member] = c.Finish
		if c.Finish > finish {
			finish = c.Finish
		}
	}
	return r.Done(finish), nil
}
