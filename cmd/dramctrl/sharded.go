package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments/cliconfig"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/supervisor"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// shardedFlags is the flag subset the multi-channel sharded path supports.
type shardedFlags struct {
	spec  *cliconfig.Spec
	pol   *cliconfig.Policy
	traf  *cliconfig.Traffic
	shard *cliconfig.Shard

	powerDownNs   int64
	selfRefreshNs int64

	dumpStats bool
	jsonStats string
	traceIn   string
	traceOut  string
	faultsOn  bool
	sup       *cliconfig.Checkpoint
	obs       *cliconfig.Obs
}

// fingerprint canonicalizes the sharded configuration. The worker count is
// deliberately absent: statistics are worker-count independent, so a
// checkpoint taken with -parallel 4 resumes fine under -parallel 1. The
// lookahead quanta IS present: adaptive widening shifts the barrier
// schedule, so a checkpoint taken under one -lookahead-quanta must not be
// resumed under another. The observability flags are absent too — probes
// only observe — but a traced resume does need tracing enabled again (the
// trace sink is a strict checkpoint component).
func (f shardedFlags) fingerprint(spec dram.Spec) string {
	t := f.traf
	return fmt.Sprintf("dramctrl-sharded spec=%s standard=%s model=%s mapping=%s page=%s pattern=%s "+
		"reads=%d requests=%d bytes=%d outstanding=%d itt=%d stride=%d banks=%d burston=%d burstoff=%d seed=%d "+
		"powerdown=%d selfrefresh=%d channels=%d quanta=%d",
		spec.Name, spec.Standard(), f.pol.Model, f.pol.Mapping, f.pol.Page, t.Pattern,
		t.Reads, t.Requests, t.Bytes, t.Outstanding, t.ITTNs, t.Stride, t.Banks, t.BurstOn, t.BurstOffNs, t.Seed,
		f.powerDownNs, f.selfRefreshNs, f.shard.Channels, f.shard.Quanta)
}

// shardTracePidStride spaces the per-tracer pid ranges so the frontend's
// processes (crossbar) and each channel's processes land in disjoint,
// stable id ranges regardless of how many components each shard emits.
const shardTracePidStride = 1000

// buildShardedTrace wires one tracer per hub: the frontend hub observes the
// crossbar and the quantum barrier, each shard hub observes that channel's
// controller. The sink drains them in this fixed order from the
// single-threaded barrier, which is what makes the merged trace file
// independent of the worker count.
func buildShardedTrace(path string, channels int) (*obs.TraceWriter, *obs.TraceSink, *obs.Hub, []*obs.Hub, error) {
	tw, err := obs.NewTraceWriter(path)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	frontHub := obs.NewHub()
	frontTracer := obs.NewTracer(0)
	frontHub.Attach(frontTracer)
	tracers := []*obs.Tracer{frontTracer}
	shardHubs := make([]*obs.Hub, channels)
	for i := range shardHubs {
		h := obs.NewHub()
		t := obs.NewTracer((i + 1) * shardTracePidStride)
		h.Attach(t)
		shardHubs[i] = h
		tracers = append(tracers, t)
	}
	return tw, obs.NewTraceSink(tw, tracers...), frontHub, shardHubs, nil
}

// buildShardedRig wires the parallel per-channel rig from flags.
func buildShardedRig(f shardedFlags, spec dram.Spec, mapping dram.Mapping, kind system.Kind,
	frontHub *obs.Hub, shardHubs []*obs.Hub) (*system.ShardedRig, error) {
	pat, err := f.traf.BuildPattern(spec, mapping, f.shard.Channels)
	if err != nil {
		return nil, err
	}
	var tune func(*core.Config)
	if f.powerDownNs > 0 || f.selfRefreshNs > 0 {
		tune = func(c *core.Config) {
			c.PowerDownIdle = sim.Tick(f.powerDownNs) * sim.Nanosecond
			c.SelfRefreshIdle = sim.Tick(f.selfRefreshNs) * sim.Nanosecond
		}
	}
	return system.NewShardedRig(system.ShardedConfig{
		Kind:           kind,
		Spec:           spec,
		Mapping:        mapping,
		ClosedPage:     f.pol.ClosedPage(),
		TuneEvent:      tune,
		Channels:       f.shard.Channels,
		Xbar:           xbar.Config{Latency: 2 * sim.Nanosecond, QueueDepth: 64},
		Gens:           []trafficgen.Config{f.traf.GenConfig()},
		Patterns:       []trafficgen.Pattern{pat},
		Workers:        f.shard.Workers,
		AdaptiveQuanta: f.shard.Quanta,
		FrontProbes:    frontHub,
		ShardProbes:    shardHubs,
	})
}

// tracedSession wraps the rig session with the trace lifecycle: the header
// on fresh start, a file flush after every quantum, and error propagation.
type tracedSession struct {
	*system.Session
	tw       *obs.TraceWriter
	sink     *obs.TraceSink
	startErr error
}

// Start implements supervisor.Session (fresh runs only).
func (s *tracedSession) Start() {
	if err := s.tw.BeginFresh(); err != nil {
		s.startErr = err
		return
	}
	s.Session.Start()
}

// Step implements supervisor.Session.
func (s *tracedSession) Step() (bool, error) {
	if s.startErr != nil {
		return false, s.startErr
	}
	done, err := s.Session.Step()
	if err != nil {
		return done, err
	}
	if err := s.sink.Flush(); err != nil {
		return done, err
	}
	return done, nil
}

// runSharded drives the parallel per-channel rig: crossbar and generator on
// a frontend kernel, each channel's controller on its own kernel, stepped by
// -parallel worker goroutines. Statistics are identical for any worker
// count; only host wall-clock changes. The run is supervised like the
// single-channel path: shards checkpoint at quantum barriers, so -checkpoint
// and -resume work unchanged. With -trace, each shard's tracer buffers
// privately during the quantum and the sink merges them in fixed order at
// the barrier — the trace file is byte-identical for any -parallel value.
func runSharded(f shardedFlags) error {
	if err := f.sup.Validate(); err != nil {
		return err
	}
	if err := f.obs.Validate(f.sup.Enabled()); err != nil {
		return err
	}
	if f.obs.Sampling() {
		return fmt.Errorf("-obs-sample/-obs-http are single-channel only (drop -channels)")
	}
	if f.traceIn != "" || f.traceOut != "" {
		return fmt.Errorf("trace capture/replay is single-channel only (drop -channels)")
	}
	if f.faultsOn {
		return fmt.Errorf("fault injection is single-channel only (drop -channels)")
	}
	spec, err := f.spec.Resolve()
	if err != nil {
		return err
	}
	mapping, err := f.pol.ParseMapping()
	if err != nil {
		return err
	}
	kind, err := f.pol.SystemKind()
	if err != nil {
		return err
	}

	var rig *system.ShardedRig
	var sink *obs.TraceSink
	notify, stopNotify := supervisor.NotifySignals()
	defer stopNotify()
	res, err := supervisor.Run(f.sup.Config(notify), func() (supervisor.Session, error) {
		var tw *obs.TraceWriter
		var frontHub *obs.Hub
		var shardHubs []*obs.Hub
		sink = nil
		if f.obs.Tracing() {
			var err error
			tw, sink, frontHub, shardHubs, err = buildShardedTrace(f.obs.TracePath, f.shard.Channels)
			if err != nil {
				return nil, err
			}
		}
		r, err := buildShardedRig(f, spec, mapping, kind, frontHub, shardHubs)
		if err != nil {
			return nil, err
		}
		rig = r
		sess, err := r.NewSession(f.fingerprint(spec), 100*sim.Second)
		if err != nil {
			return nil, err
		}
		if sink == nil {
			return sess, nil
		}
		// The trace sink registers last: its save flushes every tracer, so
		// the recorded file length covers all events up to the checkpoint.
		sess.Manager().Register("trace", sink)
		return &tracedSession{Session: sess, tw: tw, sink: sink}, nil
	})
	if err != nil {
		return err
	}
	if res.Interrupted {
		fmt.Printf("interrupted at %s; partial results:\n", res.Now)
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (load in ui.perfetto.dev)\n", f.obs.TracePath)
	}

	var events uint64
	for _, k := range append([]*sim.Kernel{rig.Front}, rig.Chans...) {
		events += k.EventsExecuted()
	}
	fmt.Printf("spec %s, model %s, mapping %s, page %s\n", spec.Name, f.pol.Model, mapping, f.pol.Page)
	fmt.Printf("%d channels sharded over %d workers, lookahead %s\n",
		f.shard.Channels, f.shard.Workers, rig.Lookahead())
	fmt.Printf("simulated %s in %d events\n", rig.Front.Now(), events)
	fmt.Printf("aggregate bandwidth %.2f GB/s (%.1f%% avg bus utilisation)\n",
		rig.AggregateBandwidth()/1e9, rig.AvgBusUtilisation()*100)
	for i, c := range rig.Ctrls {
		fmt.Printf("  mc%d: %.2f GB/s, %.1f%% row hits\n",
			i, c.Bandwidth()/1e9, c.RowHitRate()*100)
	}
	gen := rig.Gens[0]
	fmt.Printf("mean read latency (generator): %.1f ns (p99 %.1f ns, %d samples)\n",
		gen.ReadLatency().Mean(), gen.ReadLatency().Percentile(99), gen.ReadLatency().Count())

	if f.jsonStats != "" {
		out, err := os.Create(f.jsonStats)
		if err != nil {
			return err
		}
		if err := rig.Reg.DumpJSON(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return fmt.Errorf("write %s: %w", f.jsonStats, err)
		}
		fmt.Printf("statistics written to %s\n", f.jsonStats)
	}
	if f.dumpStats {
		fmt.Println("\nstatistics:")
		if err := rig.Reg.Dump(os.Stdout); err != nil {
			return err
		}
	}
	if res.Interrupted {
		return errInterrupted
	}
	return nil
}
