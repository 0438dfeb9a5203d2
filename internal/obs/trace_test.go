// Trace determinism and checkpoint tests: the headline guarantees of the
// observability layer are that a trace is byte-identical across identical
// runs, byte-identical across -parallel worker counts, reconciles with the
// aggregate statistics, and survives a checkpoint/restore cycle exactly.
package obs_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trafficgen"
	"repro/internal/xbar"
)

// runCoreTraced drives a short random-traffic run through the event-based
// controller with a lifecycle tracer attached and returns the trace bytes
// plus the controller's aggregate activity.
func runCoreTraced(t *testing.T, path string, count uint64) power.Activity {
	t.Helper()
	tw, err := obs.NewTraceWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.BeginFresh(); err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(0)
	hub := obs.NewHub()
	hub.Attach(tracer)
	sink := obs.NewTraceSink(tw, tracer)

	k := sim.NewKernel()
	reg := stats.NewRegistry("obstest")
	spec := dram.DDR3_1600_x64()
	cfg := core.DefaultConfig(spec)
	cfg.Probes = hub
	ctrl, err := core.NewController(k, cfg, reg, "mc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trafficgen.New(k, trafficgen.Config{
		RequestBytes:   64,
		MaxOutstanding: 16,
		Count:          count,
	}, &trafficgen.Random{
		Start: 0, End: 1 << 26, Align: 64, ReadPercent: 60, Seed: 7,
	}, reg, "gen")
	if err != nil {
		t.Fatal(err)
	}
	mem.Connect(gen.Port(), ctrl.Port())
	gen.Start()
	for k.Now() < 10*sim.Second {
		if _, err := k.RunUntilErr(k.Now() + 10*sim.Microsecond); err != nil {
			t.Fatal(err)
		}
		// Flush mid-run at every poll: flush timing must not affect bytes.
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if gen.Done() {
			if !ctrl.Quiescent() {
				ctrl.Drain()
				continue
			}
			break
		}
	}
	if !gen.Done() {
		t.Fatal("traced run did not complete")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return ctrl.PowerStats()
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Two identical runs must produce byte-identical trace files, and the file
// must parse as strict Chrome trace JSON with balanced lifecycle spans.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	runCoreTraced(t, a, 500)
	runCoreTraced(t, b, 500)
	ab, bb := readFile(t, a), readFile(t, b)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("identical runs produced different traces (%d vs %d bytes)", len(ab), len(bb))
	}
	sum, err := obs.ValidateTraceStrict(a)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events == 0 || !sum.Terminated {
		t.Fatalf("trace not well formed: %+v", sum)
	}
	if sum.OpenSpans() != 0 {
		t.Fatalf("%d lifecycle spans left open (begins %d, ends %d)",
			sum.OpenSpans(), sum.SpanBegins, sum.SpanEnds)
	}
}

// The trace must tell the same story as the controller's own counters:
// every burst, activate and refresh the controller accounts for appears in
// the trace exactly once.
func TestTraceReconcilesWithStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rec.json")
	act := runCoreTraced(t, path, 800)
	sum, err := obs.ValidateTraceStrict(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := uint64(sum.Bursts), act.ReadBursts+act.WriteBursts; got != want {
		t.Errorf("trace has %d bursts, controller counted %d", got, want)
	}
	if got, want := uint64(sum.Activates), act.Activations; got != want {
		t.Errorf("trace has %d ACTs, controller counted %d", got, want)
	}
	if got, want := uint64(sum.Refreshes), act.Refreshes; got != want {
		t.Errorf("trace has %d REFs, controller counted %d", got, want)
	}
}

// runShardedTraced drives the multi-channel sharded rig with a frontend
// tracer plus one tracer per channel shard and returns the merged trace.
func runShardedTraced(t *testing.T, path string, channels, workers int) {
	t.Helper()
	tw, err := obs.NewTraceWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.BeginFresh(); err != nil {
		t.Fatal(err)
	}
	const stride = 1000
	frontTracer := obs.NewTracer(0)
	frontHub := obs.NewHub()
	frontHub.Attach(frontTracer)
	tracers := []*obs.Tracer{frontTracer}
	shardHubs := make([]*obs.Hub, channels)
	for i := range shardHubs {
		tr := obs.NewTracer((i + 1) * stride)
		h := obs.NewHub()
		h.Attach(tr)
		tracers = append(tracers, tr)
		shardHubs[i] = h
	}
	sink := obs.NewTraceSink(tw, tracers...)

	spec := dram.DDR3_1600_x64()
	gen := trafficgen.Config{
		RequestBytes:   spec.Org.BurstBytes(),
		MaxOutstanding: 16,
		Count:          400,
	}
	g0, g1 := gen, gen
	g0.RequestorID = 0
	g1.RequestorID = 1
	rig, err := system.NewShardedRig(system.ShardedConfig{
		Kind:     system.EventBased,
		Spec:     spec,
		Mapping:  dram.RoRaBaCoCh,
		Channels: channels,
		Xbar:     xbar.DefaultConfig(),
		Gens:     []trafficgen.Config{g0, g1},
		Patterns: []trafficgen.Pattern{
			&trafficgen.Linear{Start: 0, End: 1 << 24, Step: 64, ReadPercent: 80, Seed: 11},
			&trafficgen.Random{Start: 0, End: 1 << 24, Align: 64, ReadPercent: 60, Seed: 23},
		},
		Workers:     workers,
		FrontProbes: frontHub,
		ShardProbes: shardHubs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rig.Run(50 * sim.Millisecond) {
		t.Fatal("sharded rig did not complete")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

// The merged sharded trace must not depend on how many worker goroutines
// executed the channel shards: serial and parallel runs of the same
// topology produce byte-identical files.
func TestShardedTraceIndependentOfWorkers(t *testing.T) {
	dir := t.TempDir()
	serial := filepath.Join(dir, "w1.json")
	runShardedTraced(t, serial, 2, 1)
	ref := readFile(t, serial)
	for _, workers := range []int{2, 3} {
		path := filepath.Join(dir, "wn.json")
		runShardedTraced(t, path, 2, workers)
		if got := readFile(t, path); !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d trace differs from serial (%d vs %d bytes)",
				workers, len(got), len(ref))
		}
	}
	if _, err := obs.ValidateTraceStrict(serial); err != nil {
		t.Fatal(err)
	}
}

// stubRefs is a PacketTable/PacketLookup pair for checkpoint tests: packets
// are identified by index in a fixed slice.
type stubRefs struct{ pkts []*mem.Packet }

func (s *stubRefs) PacketRef(p *mem.Packet) int {
	for i, q := range s.pkts {
		if q == p {
			return i
		}
	}
	return -1
}

func (s *stubRefs) PacketByRef(ref int) *mem.Packet {
	if ref < 0 || ref >= len(s.pkts) {
		return nil
	}
	return s.pkts[ref]
}

// syntheticPhases returns two event batches: phase 1 leaves packet spans
// and a power-down interval open across the checkpoint boundary (the hard
// case — the restored tracer must close them with the original span ids),
// phase 2 closes everything and reuses tracks phase 1 created (bank r0b1,
// queue.read), so a restored tracer with a stale or missing track would
// write a duplicate thread_name line or a wrong tid.
func syntheticPhases(pkts []*mem.Packet) (phase1, phase2 []obs.Event) {
	us := func(n int64) sim.Tick { return sim.Tick(n) * sim.Microsecond }
	phase1 = []obs.Event{
		obs.QueueAdmit{Src: "mc", At: us(1), Queue: obs.QueueRead, Depth: 0},
		obs.PacketEnqueued{Src: "mc", At: us(1), Pkt: pkts[0], Queue: obs.QueueRead, Bursts: 1},
		obs.QueueAdmit{Src: "mc", At: us(2), Queue: obs.QueueWrite, Depth: 1},
		obs.PacketEnqueued{Src: "mc", At: us(2), Pkt: pkts[1], Queue: obs.QueueWrite, Bursts: 2},
		obs.DRAMCommand{Src: "mc", Cmd: power.Command{Kind: power.CmdACT, At: us(3), Rank: 0, Bank: 1}},
		obs.BurstScheduled{Src: "mc", At: us(4), Pkt: pkts[0], Read: true, Rank: 0, Bank: 1, Row: 7, DataEnd: us(5)},
		obs.WriteDrainEnter{Src: "mc", At: us(6), QueueLen: 3},
		obs.DRAMCommand{Src: "mc", Cmd: power.Command{Kind: power.CmdPDE, At: us(6), Rank: 1, Bank: power.PDActive}},
	}
	phase2 = []obs.Event{
		obs.ResponseSent{Src: "mc", At: us(7), Pkt: pkts[0]},
		obs.WriteDrainExit{Src: "mc", At: us(8), Writes: 3},
		obs.BurstScheduled{Src: "mc", At: us(9), Pkt: pkts[1], Read: false, Rank: 0, Bank: 2, Row: 9, DataEnd: us(10)},
		obs.RefreshStart{Src: "mc", At: us(11), Rank: 0, Bank: -1, Until: us(12)},
		obs.RefreshEnd{Src: "mc", At: us(12), Rank: 0, Bank: -1},
		obs.ResponseSent{Src: "mc", At: us(13), Pkt: pkts[1]},
		obs.QueueRefuse{Src: "xbar", At: us(14), Queue: obs.QueueRead, Depth: 16},
		obs.ShardQuantumFlush{Src: "xbar", At: us(15), Shard: 1, Requests: 2, Responses: 1},
		obs.DRAMCommand{Src: "mc", Cmd: power.Command{Kind: power.CmdPRE, At: us(16), Rank: 0, Bank: 1}},
		obs.DRAMCommand{Src: "mc", Cmd: power.Command{Kind: power.CmdACT, At: us(17), Rank: 0, Bank: 1}},
		obs.QueueAdmit{Src: "mc", At: us(18), Queue: obs.QueueRead, Depth: 0},
		obs.DRAMCommand{Src: "mc", Cmd: power.Command{Kind: power.CmdPDX, At: us(19), Rank: 1}},
	}
	return phase1, phase2
}

// A checkpoint taken mid-trace, followed by further (lost) progress and a
// restore into a fresh process, must reproduce the uninterrupted file
// byte-for-byte — including span ids allocated before the checkpoint.
func TestTraceSinkCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pkts := []*mem.Packet{{}, {}}
	refs := &stubRefs{pkts: pkts}
	phase1, phase2 := syntheticPhases(pkts)

	emit := func(tr *obs.Tracer, evs []obs.Event) {
		for _, ev := range evs {
			tr.HandleEvent(ev)
		}
	}

	// Reference: uninterrupted run.
	refPath := filepath.Join(dir, "ref.json")
	tw, err := obs.NewTraceWriter(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.BeginFresh(); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(0)
	sink := obs.NewTraceSink(tw, tr)
	emit(tr, phase1)
	emit(tr, phase2)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	want := readFile(t, refPath)

	// Crash run: phase 1, checkpoint, doomed post-checkpoint progress.
	path := filepath.Join(dir, "crash.json")
	tw1, err := obs.NewTraceWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw1.BeginFresh(); err != nil {
		t.Fatal(err)
	}
	tr1 := obs.NewTracer(0)
	sink1 := obs.NewTraceSink(tw1, tr1)
	emit(tr1, phase1)
	img, err := sink1.CheckpointSave(refs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(img)
	if err != nil {
		t.Fatal(err)
	}
	emit(tr1, phase2[:3]) // progress the crash will throw away
	if err := sink1.Flush(); err != nil {
		t.Fatal(err)
	}
	// No Close: the process died. The file ends mid-array, unterminated.

	// Resumed process: fresh writer/tracer over the same file, restore.
	tw2, err := obs.NewTraceWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	tr2 := obs.NewTracer(0)
	sink2 := obs.NewTraceSink(tw2, tr2)
	if err := sink2.CheckpointRestore(refs, nil, data); err != nil {
		t.Fatal(err)
	}
	emit(tr2, phase2)
	if err := sink2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); !bytes.Equal(got, want) {
		t.Fatalf("resumed trace differs from uninterrupted reference:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Restoring into the wrong topology must be rejected, not corrupt.
	tw3, err := obs.NewTraceWriter(filepath.Join(dir, "bad.json"))
	if err != nil {
		t.Fatal(err)
	}
	bad := obs.NewTraceSink(tw3, obs.NewTracer(0), obs.NewTracer(1000))
	if err := bad.CheckpointRestore(refs, nil, data); err == nil {
		t.Fatal("restore with mismatched tracer count unexpectedly succeeded")
	}
}

// The hub must normalize "nothing attached" to nil so components pay one
// pointer comparison, and the CommandFunc shim must see exactly the DRAM
// command stream.
func TestHubOrNilAndCommandFunc(t *testing.T) {
	var empty *obs.Hub
	if empty.OrNil() != nil {
		t.Error("nil hub did not normalize to nil")
	}
	if obs.NewHub().OrNil() != nil {
		t.Error("empty hub did not normalize to nil")
	}
	var got []power.Command
	h := obs.NewHub()
	h.Attach(obs.CommandFunc(func(c power.Command) { got = append(got, c) }))
	if h.OrNil() == nil {
		t.Fatal("hub with a probe normalized to nil")
	}
	h.Emit(obs.DRAMCommand{Src: "mc", Cmd: power.Command{Kind: power.CmdACT, At: 5}})
	h.Emit(obs.QueueAdmit{Src: "mc", At: 6})
	h.Emit(obs.DRAMCommand{Src: "mc", Cmd: power.Command{Kind: power.CmdPRE, At: 7}})
	if len(got) != 2 || got[0].Kind != power.CmdACT || got[1].Kind != power.CmdPRE {
		t.Fatalf("CommandFunc saw %v", got)
	}
}

// TestTracerSteadyStateZeroAlloc feeds a warmed tracer the event mix of one
// closed-page write (admit, enqueue, ACT, WR burst with its firstCmd mark,
// PRE, response) and drains it after every request: once its tracks exist
// and both buffers have grown, rendering allocates nothing.
func TestTracerSteadyStateZeroAlloc(t *testing.T) {
	tr := obs.NewTracer(0)
	pkt := &mem.Packet{Addr: 0x1f40, Size: 64}
	const at = 50 * sim.Nanosecond
	events := []obs.Event{
		obs.QueueAdmit{Src: "mc", At: at, Queue: obs.QueueWrite, Depth: 3},
		obs.PacketEnqueued{Src: "mc", At: at, Pkt: pkt, Queue: obs.QueueWrite, Bursts: 1},
		obs.DRAMCommand{Src: "mc", Cmd: power.Command{Kind: power.CmdACT, At: at + 10, Rank: 0, Bank: 5}},
		obs.DRAMCommand{Src: "mc", Cmd: power.Command{Kind: power.CmdWR, At: at + 20, Rank: 0, Bank: 5}},
		obs.BurstScheduled{Src: "mc", At: at + 20, Pkt: pkt, Rank: 0, Bank: 5, Row: 812, DataEnd: at + 25},
		obs.DRAMCommand{Src: "mc", Cmd: power.Command{Kind: power.CmdPRE, At: at + 40, Rank: 0, Bank: 5}},
		obs.ResponseSent{Src: "mc", At: at + 30, Pkt: pkt},
	}
	cycle := func() {
		for _, ev := range events {
			tr.HandleEvent(ev)
		}
		if len(tr.TakePending()) == 0 {
			t.Fatal("tracer rendered nothing")
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("steady-state traced write allocates %.2f objects, want 0", avg)
	}
}
