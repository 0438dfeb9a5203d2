package main

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trafficgen"
)

// The traced pass records spans from this package only, around the calls it
// makes or forwards into each layer: Session.Step (the kernel loop),
// Pattern.Next (trafficgen), the controller's RecvTimingReq (core, through a
// port shim) and the workload probes' HandleEvent (obs). Spans nest on one
// stack, so a span's self time is its duration minus that of the spans it
// encloses. Counts are taken at the same boundaries.

// layer names a span boundary.
type layer int

const (
	spanStep  layer = iota // Session.Step
	spanNext               // trafficgen.Pattern.Next
	spanRecv               // controller RecvTimingReq via the port shim
	spanProbe              // workload probe HandleEvent
	numLayers
)

var layerNames = [numLayers]string{"system.Session.Step", "trafficgen.Pattern.Next", "core.RecvTimingReq", "obs.Probe.HandleEvent"}

// maxSamples caps the per-call durations kept per layer for percentiles.
const maxSamples = 1 << 21

type frame struct {
	start time.Time
	child time.Duration
}

// spanRec aggregates spans per layer. It is used by one goroutine at a time:
// in the sharded rig the frontend kernel runs on a worker while the
// coordinator, which holds the enclosing Step span, waits for it.
type spanRec struct {
	stack   []frame
	count   [numLayers]uint64
	total   [numLayers]time.Duration
	self    [numLayers]time.Duration
	samples [numLayers][]int32
}

func (s *spanRec) begin() {
	s.stack = append(s.stack, frame{start: time.Now()})
}

func (s *spanRec) end(l layer) {
	d := time.Since(s.stack[len(s.stack)-1].start)
	f := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	s.count[l]++
	s.total[l] += d
	s.self[l] += d - f.child
	if n := len(s.stack); n > 0 {
		s.stack[n-1].child += d
	}
	if len(s.samples[l]) < maxSamples {
		s.samples[l] = append(s.samples[l], int32(min(d, time.Second)))
	}
}

// percentile returns the p-th percentile (0-100) of layer l's span
// durations in nanoseconds, nearest rank.
func (s *spanRec) percentile(l layer, p float64) float64 {
	v := slices.Clone(s.samples[l])
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	i := int(p / 100 * float64(len(v)))
	if i >= len(v) {
		i = len(v) - 1
	}
	return float64(v[i])
}

// summary writes one line per layer: span count, total and self time.
func (s *spanRec) summary(w io.Writer) {
	for l := layer(0); l < numLayers; l++ {
		fmt.Fprintf(w, "span %-26s count=%-10d total=%-14s self=%s\n",
			layerNames[l], s.count[l], s.total[l], s.self[l])
	}
}

// instr is the traced pass's instrumentation. One instr serves every traced
// run of a pass; counters accumulate across runs.
type instr struct {
	spans spanRec
	// attempts and accepted count RecvTimingReq calls into the controllers.
	attempts, accepted uint64
	// addrs is a prefix of the workload's address stream, replayed through
	// dram.Decoder.Decode after the runs.
	addrs []mem.Addr
	// shards holds the sharded rig's per-shard admission counters (each
	// written only by its shard's worker), flush the barrier's packets.
	shards []*admitCounter
	flush  flushCounter
}

// maxAddrs caps the recorded address stream.
const maxAddrs = 1 << 16

// pattern wraps p so that each Next is a span and its address is recorded.
func (in *instr) pattern(p trafficgen.Pattern) trafficgen.Pattern {
	return &timedPattern{inner: p, in: in}
}

type timedPattern struct {
	inner trafficgen.Pattern
	in    *instr
}

func (p *timedPattern) Next() (mem.Addr, bool) {
	p.in.spans.begin()
	a, rd := p.inner.Next()
	p.in.spans.end(spanNext)
	if len(p.in.addrs) < maxAddrs {
		p.in.addrs = append(p.in.addrs, a)
	}
	return a, rd
}

// probe fans events out to the workload's probes inside one span.
func (in *instr) probe(ps ...obs.Probe) obs.Probe {
	return &timedProbe{inner: ps, in: in}
}

type timedProbe struct {
	inner []obs.Probe
	in    *instr
}

func (p *timedProbe) HandleEvent(ev obs.Event) {
	p.in.spans.begin()
	for _, q := range p.inner {
		q.HandleEvent(ev)
	}
	p.in.spans.end(spanProbe)
}

// connect links a requestor port to a controller port through a shim.
func (in *instr) connect(k *sim.Kernel, name string, req *mem.RequestPort, ctrl *mem.ResponsePort) {
	s := &portShim{in: in}
	s.up = mem.NewResponsePort(name+".shim.up", s, k)
	s.down = mem.NewRequestPort(name+".shim.down", s, k)
	mem.Connect(req, s.up)
	mem.Connect(s.down, ctrl)
}

// portShim forwards every call unchanged in both directions, timing and
// counting the controller's RecvTimingReq.
type portShim struct {
	in   *instr
	up   *mem.ResponsePort // faces the requestor
	down *mem.RequestPort  // faces the controller
}

func (s *portShim) RecvTimingReq(pkt *mem.Packet) bool {
	s.in.spans.begin()
	ok := s.down.SendTimingReq(pkt)
	s.in.spans.end(spanRecv)
	s.in.attempts++
	if ok {
		s.in.accepted++
	}
	return ok
}

func (s *portShim) RecvRespRetry()                      { s.down.SendRespRetry() }
func (s *portShim) RecvTimingResp(pkt *mem.Packet) bool { return s.up.SendTimingResp(pkt) }
func (s *portShim) RecvReqRetry()                       { s.up.SendReqRetry() }

// shardedHubs returns the sharded rig's frontend hub, which counts barrier
// flushes, and one hub per channel shard counting queue admissions.
func (in *instr) shardedHubs(channels int) (*obs.Hub, []*obs.Hub) {
	front := obs.NewHub()
	front.Attach(&in.flush)
	hubs := make([]*obs.Hub, channels)
	for i := range hubs {
		a := &admitCounter{}
		in.shards = append(in.shards, a)
		hubs[i] = obs.NewHub()
		hubs[i].Attach(a)
	}
	return front, hubs
}

// admitCounter counts one shard controller's queue admissions and refusals:
// the sharded rig's view of RecvTimingReq acceptances and attempts.
type admitCounter struct {
	admitted, refused uint64
}

func (a *admitCounter) HandleEvent(ev obs.Event) {
	switch ev.(type) {
	case obs.QueueAdmit:
		a.admitted++
	case obs.QueueRefuse:
		a.refused++
	}
}

// flushCounter counts packets published by ShardLink flushes at barriers.
type flushCounter struct {
	pkts uint64
}

func (f *flushCounter) HandleEvent(ev obs.Event) {
	if e, ok := ev.(obs.ShardQuantumFlush); ok {
		f.pkts += uint64(e.Requests + e.Responses)
	}
}

// admitRatio is accepted controller requests over attempts.
func (in *instr) admitRatio() float64 {
	acc, att := in.accepted, in.attempts
	for _, a := range in.shards {
		acc += a.admitted
		att += a.admitted + a.refused
	}
	return ratio(float64(acc), float64(att))
}
