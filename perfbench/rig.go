package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cyclesim"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// maxSim bounds every run's simulated time; a run that needs longer fails.
const maxSim = 100 * sim.Second

// session is what the system package's session types have in common.
type session interface {
	Start()
	Step() (bool, error)
	Close()
}

// rig is one built system with its session, ready to start.
type rig struct {
	reg     *stats.Registry
	kernels []*sim.Kernel
	ctrls   []system.Controller
	gens    []*trafficgen.Generator
	sess    session
	// tracer and cmds are the observed workload's own probes.
	tracer *obs.Tracer
	cmds   *cmdRecorder
}

// cmdRecorder is the observed workload's command recorder: it keeps every
// DRAM command for power.CheckTiming.
type cmdRecorder struct {
	cmds []power.Command
}

func (r *cmdRecorder) HandleEvent(ev obs.Event) {
	if c, ok := ev.(obs.DRAMCommand); ok {
		r.cmds = append(r.cmds, c.Cmd)
	}
}

// buildRig is the benchmark's one adapter onto the simulator: every system
// any pass runs is built here and nowhere else. Untraced runs use the
// system package's rig constructors unchanged. A traced run (in != nil) of
// a single-kernel topology is assembled from the public component
// constructors instead, so that a port shim can sit in front of each
// controller; the digest checks require it to match the constructor-built
// rig statistic for statistic.
func buildRig(w workload, seed int64, kind system.Kind, workers int, in *instr) (*rig, error) {
	pats, err := w.patterns(seed)
	if err != nil {
		return nil, err
	}
	gens := w.genConfigs()
	r := &rig{}
	var hub *obs.Hub
	if w.observed {
		r.tracer = obs.NewTracer(0)
		r.cmds = &cmdRecorder{}
		hub = obs.NewHub()
		if in != nil {
			hub.Attach(in.probe(r.tracer, r.cmds))
		} else {
			hub.Attach(r.tracer)
			hub.Attach(r.cmds)
		}
	}
	if in != nil {
		for i, p := range pats {
			pats[i] = in.pattern(p)
		}
	}

	switch w.topo {
	case single:
		var tr *system.TrafficRig
		if in == nil {
			tr, err = system.NewTrafficRig(system.RigConfig{
				Kind: kind, Spec: w.spec, Mapping: w.mapping, ClosedPage: w.closed,
				Gen: gens[0], Pattern: pats[0], Probes: hub,
			})
		} else {
			tr, err = assembleTrafficRig(w, kind, gens[0], pats[0], hub, in)
		}
		if err != nil {
			return nil, err
		}
		sess, err := tr.NewSession("", maxSim)
		if err != nil {
			return nil, err
		}
		r.reg, r.sess = tr.Reg, sess
		r.kernels = []*sim.Kernel{tr.K}
		r.ctrls = []system.Controller{tr.Ctrl}
		r.gens = []*trafficgen.Generator{tr.Gen}
	case multi:
		var mr *system.MultiChannelRig
		if in == nil {
			mr, err = system.NewMultiChannelRig(system.MultiChannelConfig{
				Kind: kind, Spec: w.spec, Mapping: w.mapping, ClosedPage: w.closed,
				Channels: w.channels, Xbar: crossbar, Gens: gens, Patterns: pats,
			})
		} else {
			mr, err = assembleMultiChannelRig(w, kind, gens, pats, in)
		}
		if err != nil {
			return nil, err
		}
		sess, err := mr.NewSession("", maxSim)
		if err != nil {
			return nil, err
		}
		r.reg, r.sess = mr.Reg, sess
		r.kernels = []*sim.Kernel{mr.K}
		r.ctrls, r.gens = mr.Ctrls, mr.Gens
	case sharded:
		cfg := system.ShardedConfig{
			Kind: kind, Spec: w.spec, Mapping: w.mapping, ClosedPage: w.closed,
			Channels: w.channels, Xbar: crossbar, Gens: gens, Patterns: pats,
			Workers: workers, AdaptiveQuanta: w.quanta,
		}
		if in != nil {
			// The sharded rig cannot be assembled outside the system
			// package, so its controllers are observed through per-shard
			// probes and the barrier through the frontend hub.
			cfg.FrontProbes, cfg.ShardProbes = in.shardedHubs(w.channels)
		}
		sr, err := system.NewShardedRig(cfg)
		if err != nil {
			return nil, err
		}
		sess, err := sr.NewSession("", maxSim)
		if err != nil {
			return nil, err
		}
		r.reg, r.sess = sr.Reg, sess
		r.kernels = append([]*sim.Kernel{sr.Front}, sr.Chans...)
		r.ctrls, r.gens = sr.Ctrls, sr.Gens
	}
	return r, nil
}

// newController builds one controller with the matched model configuration
// the system package's rigs use.
func newController(k *sim.Kernel, w workload, kind system.Kind, hub *obs.Hub, reg *stats.Registry, name string) (system.Controller, error) {
	channels := w.channels
	if kind == system.EventBased {
		cfg := system.MatchedEventConfig(w.spec, w.mapping, channels, w.closed)
		cfg.Probes = hub
		return core.NewController(k, cfg, reg, name)
	}
	cfg := system.MatchedCycleConfig(w.spec, w.mapping, channels, w.closed)
	cfg.Probes = hub
	return cyclesim.NewController(k, cfg, reg, name)
}

// assembleTrafficRig is system.NewTrafficRig with a port shim between the
// generator and the controller.
func assembleTrafficRig(w workload, kind system.Kind, gcfg trafficgen.Config, p trafficgen.Pattern, hub *obs.Hub, in *instr) (*system.TrafficRig, error) {
	k := sim.NewKernel()
	reg := stats.NewRegistry("sys")
	ctrl, err := newController(k, w, kind, hub, reg, "mc")
	if err != nil {
		return nil, err
	}
	gen, err := trafficgen.New(k, gcfg, p, reg, "gen")
	if err != nil {
		return nil, err
	}
	in.connect(k, "mc", gen.Port(), ctrl.Port())
	return &system.TrafficRig{K: k, Reg: reg, Gen: gen, Ctrl: ctrl}, nil
}

// assembleMultiChannelRig is system.NewMultiChannelRig with a port shim
// between the crossbar and each controller.
func assembleMultiChannelRig(w workload, kind system.Kind, gens []trafficgen.Config, pats []trafficgen.Pattern, in *instr) (*system.MultiChannelRig, error) {
	k := sim.NewKernel()
	reg := stats.NewRegistry("sys")
	dec, err := w.decoder()
	if err != nil {
		return nil, err
	}
	gran := dec.InterleaveBytes()
	for _, g := range gens {
		for gran < g.RequestBytes {
			gran *= 2
		}
	}
	xb, err := xbar.New(k, crossbar, xbar.InterleaveRoute(w.channels, gran), reg, "xbar")
	if err != nil {
		return nil, err
	}
	mr := &system.MultiChannelRig{K: k, Reg: reg, Xbar: xb}
	for i := 0; i < w.channels; i++ {
		name := fmt.Sprintf("mc%d", i)
		ctrl, err := newController(k, w, kind, nil, reg, name)
		if err != nil {
			return nil, err
		}
		in.connect(k, name, xb.AttachMemory("mem"), ctrl.Port())
		mr.Ctrls = append(mr.Ctrls, ctrl)
	}
	for i := range gens {
		gen, err := trafficgen.New(k, gens[i], pats[i], reg, fmt.Sprintf("gen%d", i))
		if err != nil {
			return nil, err
		}
		mem.Connect(gen.Port(), xb.AttachRequestor("gen"))
		mr.Gens = append(mr.Gens, gen)
	}
	return mr, nil
}
