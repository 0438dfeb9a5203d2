package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mem"
	"repro/internal/power"
	"repro/internal/sim"
)

// Packet-lifecycle tracing in the Chrome trace-event JSON format, loadable
// directly in Perfetto (ui.perfetto.dev). The layout:
//
//   - one trace "process" per emitting component (a controller, the
//     crossbar), one "thread" per track inside it: the per-queue counter
//     tracks, one track per bank ("bank r0b3"), one per rank's refresh
//     windows, the write-drain track, the quantum-barrier track;
//   - each system packet's life is an async span ("b"/"e" events joined by
//     a trace-wide id) from queue admission to response, with an async
//     instant ("n") marking its first DRAM command — enqueue -> first
//     command -> response, the §V decomposition of latency into queueing
//     and device time;
//   - RD/WR bursts are complete spans ("X") on their bank's track covering
//     command-issue to end-of-data; ACT/PRE are instants; refreshes are
//     spans on the rank's refresh track.
//
// Determinism: every line is formatted with fixed-width logic from kernel
// ticks (no floats, no wall clock, no map iteration), and events are
// buffered per tracer and drained single-threadedly (TraceSink), so two
// identical runs — and sharded runs with different worker counts — produce
// byte-identical files.
//
// Cost: steady-state lines are rendered with plain appends into a reused
// buffer — no fmt, no per-event strings, open spans held by value — so a
// warmed tracer allocates nothing per event (TestTracerSteadyStateZeroAlloc).
// Only the first use of a process or track, which writes its metadata
// line, allocates.

// traceTimeDiv converts kernel ticks (picoseconds) to the trace format's
// microsecond timestamps: ts = tick / traceTimeDiv, with the remainder as
// the 6-digit fraction.
const traceTimeDiv = 1_000_000

// appendTS appends a tick as a fixed-point microsecond timestamp: the
// integer part, a dot, and the remainder zero-padded to six digits. The
// bytes equal fmt's "%d.%06d" of quotient and remainder for every tick,
// negative ones included (Go's remainder takes the dividend's sign, and
// "%06d" counts that sign in the width).
func appendTS(b []byte, t sim.Tick) []byte {
	q, r := int64(t)/traceTimeDiv, int64(t)%traceTimeDiv
	b = append(strconv.AppendInt(b, q, 10), '.')
	width := 6
	if r < 0 {
		b = append(b, '-')
		r, width = -r, 5
	}
	var digits [6]byte
	n := 0
	for ; r > 0 || n < width; r /= 10 {
		n++
		digits[6-n] = byte('0' + r%10)
	}
	return append(b, digits[6-n:]...)
}

// appendQuote appends s as a JSON/Go string literal, byte for byte what
// strconv.AppendQuote writes, without its per-rune decoding for the plain
// ASCII names every steady-state line carries.
func appendQuote(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendAddr appends an address the way every trace line spells it.
func appendAddr(b []byte, a mem.Addr) []byte {
	return strconv.AppendUint(append(b, "0x"...), uint64(a), 16)
}

// openSpan is one in-flight packet lifecycle.
type openSpan struct {
	id      uint64
	queue   Queue
	cmdSeen bool
}

// spanKey identifies a lifecycle span: the same packet pointer flows
// through several components (crossbar, then a controller), each with its
// own span.
type spanKey struct {
	src string
	pkt *mem.Packet
}

// pendingDrain is a write-drain episode whose exit has not been seen.
type pendingDrain struct {
	at       sim.Tick
	queueLen int
}

// powerKey identifies a rank's power-state track within one source.
type powerKey struct {
	src  string
	rank int
}

// pendingPower is a low-power interval (PDE/SRE seen, exit pending). The
// span name is fixed at entry: "PD(pre)", "PD(act)" or "SR".
type pendingPower struct {
	at   sim.Tick
	name string
}

// Tracer converts obs events into Chrome trace-event lines, buffering them
// until a TraceSink drains it. In sharded runs attach one Tracer per shard
// hub (plus one on the frontend hub) and give them distinct pid bases; the
// sink merges the buffers in fixed shard order at each quantum barrier.
type Tracer struct {
	pidBase int
	nextPid int
	pids    map[string]int // src -> pid
	tids    map[string]int // "pid|track" -> tid
	nextTid map[int]int    // pid -> next tid
	spans   map[spanKey]openSpan
	drains  map[string]pendingDrain   // src -> open drain episode
	powers  map[powerKey]pendingPower // src+rank -> open low-power interval
	nextID  uint64                    // async span ids, trace-wide per tracer
	buf     []byte                    // pending trace lines
	spare   []byte                    // the buffer TakePending handed out last
	key     []byte                    // scratch "pid|track" key for tid lookups
}

// NewTracer returns a tracer whose process ids start above pidBase. Give
// every tracer feeding one file a distinct base (TraceSink's merge order is
// by tracer index; pid bases keep their process tracks distinct).
func NewTracer(pidBase int) *Tracer {
	return &Tracer{
		pidBase: pidBase,
		pids:    make(map[string]int),
		tids:    make(map[string]int),
		nextTid: make(map[int]int),
		spans:   make(map[spanKey]openSpan),
		drains:  make(map[string]pendingDrain),
		powers:  make(map[powerKey]pendingPower),
	}
}

// TakePending returns the buffered trace bytes and starts an empty buffer.
// The returned slice is valid until the next TakePending: the tracer
// alternates between two buffers, so steady-state tracing never regrows
// one, and a caller must write or copy the bytes before taking again.
func (t *Tracer) TakePending() []byte {
	b := t.buf
	t.buf, t.spare = t.spare[:0], b
	return b
}

// pid returns the trace process id for a source, emitting the process-name
// metadata line on first use.
func (t *Tracer) pid(src string) int {
	if p, ok := t.pids[src]; ok {
		return p
	}
	t.nextPid++
	p := t.pidBase + t.nextPid
	t.pids[src] = p
	t.nextTid[p] = 1
	b := strconv.AppendInt(append(t.buf, `{"name":"process_name","ph":"M","pid":`...), int64(p), 10)
	b = appendQuote(append(b, `,"args":{"name":`...), src)
	t.buf = append(b, "}},\n"...)
	return p
}

// tid returns the thread (track) id for a named track of a process.
func (t *Tracer) tid(pid int, track string) int {
	t.key = append(t.trackKey(pid), track...)
	return t.lookupTid(pid)
}

// rankTid is tid for the track "<prefix><rank>" ("refresh r0", "power r1").
func (t *Tracer) rankTid(pid int, prefix string, rank int) int {
	t.key = strconv.AppendInt(append(t.trackKey(pid), prefix...), int64(rank), 10)
	return t.lookupTid(pid)
}

// bankTid is tid for the bank track "bank r<rank>b<bank>".
func (t *Tracer) bankTid(pid, rank, bank int) int {
	k := strconv.AppendInt(append(t.trackKey(pid), "bank r"...), int64(rank), 10)
	t.key = strconv.AppendInt(append(k, 'b'), int64(bank), 10)
	return t.lookupTid(pid)
}

// trackKey starts the scratch key "pid|" of a track of process pid.
func (t *Tracer) trackKey(pid int) []byte {
	return append(strconv.AppendInt(t.key[:0], int64(pid), 10), '|')
}

// lookupTid resolves the track named by the scratch key, emitting the
// thread-name metadata line on first use. Lookups index the map with the
// scratch bytes directly; only a new track allocates its key string.
func (t *Tracer) lookupTid(pid int) int {
	if id, ok := t.tids[string(t.key)]; ok {
		return id
	}
	key := string(t.key)
	id := t.nextTid[pid]
	t.nextTid[pid] = id + 1
	t.tids[key] = id
	b := strconv.AppendInt(append(t.buf, `{"name":"thread_name","ph":"M","pid":`...), int64(pid), 10)
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(id), 10)
	b = appendQuote(append(b, `,"args":{"name":`...), key[strings.IndexByte(key, '|')+1:])
	t.buf = append(b, "}},\n"...)
	return id
}

// head appends the common prefix of an event line up to and including the
// timestamp.
func (t *Tracer) head(name, cat, ph string, pid, tid int, at sim.Tick) {
	t.buf = appendQuote(append(t.buf, `{"name":`...), name)
	t.fields(cat, ph, pid, tid, at)
}

// pktHead is head for a packet span, named "<queue> 0x<addr>".
func (t *Tracer) pktHead(q Queue, addr mem.Addr, ph string, pid, tid int, at sim.Tick) {
	b := append(append(t.buf, `{"name":"`...), q.String()...)
	t.buf = append(appendAddr(append(b, ' '), addr), '"')
	t.fields("pkt", ph, pid, tid, at)
}

// fields appends the part of head after the name.
func (t *Tracer) fields(cat, ph string, pid, tid int, at sim.Tick) {
	b := append(append(t.buf, `,"cat":"`...), cat...)
	b = append(append(b, `","ph":"`...), ph...)
	b = strconv.AppendInt(append(b, `","pid":`...), int64(pid), 10)
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
	t.buf = appendTS(append(b, `,"ts":`...), at)
}

// arg and uarg append a JSON fragment ending in a key (`,"depth":`)
// followed by an integer value.
func (t *Tracer) arg(key string, v int) {
	t.buf = strconv.AppendInt(append(t.buf, key...), int64(v), 10)
}

func (t *Tracer) uarg(key string, v uint64) {
	t.buf = strconv.AppendUint(append(t.buf, key...), v, 10)
}

// dur appends a complete span's duration.
func (t *Tracer) dur(d sim.Tick) { t.buf = appendTS(append(t.buf, `,"dur":`...), d) }

// close terminates an event line; closeArgs also closes its args object.
func (t *Tracer) close()     { t.buf = append(t.buf, "},\n"...) }
func (t *Tracer) closeArgs() { t.buf = append(t.buf, "}},\n"...) }

// HandleEvent implements Probe.
func (t *Tracer) HandleEvent(ev Event) {
	switch e := ev.(type) {
	case PacketEnqueued:
		pid := t.pid(e.Src)
		tid := t.tid(pid, "packets")
		t.nextID++
		id := t.nextID
		t.spans[spanKey{e.Src, e.Pkt}] = openSpan{id: id, queue: e.Queue}
		t.pktHead(e.Queue, e.Pkt.Addr, "b", pid, tid, e.At)
		t.uarg(`,"id":`, id)
		t.buf = appendAddr(append(t.buf, `,"args":{"addr":"`...), e.Pkt.Addr)
		t.uarg(`","size":`, e.Pkt.Size)
		t.arg(`,"bursts":`, e.Bursts)
		t.arg(`,"requestor":`, e.Pkt.RequestorID)
		t.closeArgs()
	case QueueAdmit:
		pid := t.pid(e.Src)
		track := "queue." + e.Queue.String()
		tid := t.tid(pid, track)
		t.head(track, "queue", "C", pid, tid, e.At)
		t.arg(`,"args":{"depth":`, e.Depth)
		t.closeArgs()
	case QueueRefuse:
		pid := t.pid(e.Src)
		tid := t.tid(pid, "queue."+e.Queue.String())
		t.head("refuse."+e.Queue.String(), "queue", "i", pid, tid, e.At)
		t.arg(`,"s":"t","args":{"depth":`, e.Depth)
		t.closeArgs()
	case DRAMCommand:
		switch e.Cmd.Kind {
		case power.CmdPDE, power.CmdSRE:
			// Low-power intervals render as spans on the rank's power track,
			// opened here and closed by the matching PDX/SRX.
			name := "SR"
			if e.Cmd.Kind == power.CmdPDE {
				name = "PD(pre)"
				if e.Cmd.Bank == power.PDActive {
					name = "PD(act)"
				}
			}
			t.powers[powerKey{e.Src, e.Cmd.Rank}] = pendingPower{at: e.Cmd.At, name: name}
			return
		case power.CmdPDX, power.CmdSRX:
			key := powerKey{e.Src, e.Cmd.Rank}
			p, ok := t.powers[key]
			if !ok {
				return
			}
			delete(t.powers, key)
			pid := t.pid(e.Src)
			tid := t.rankTid(pid, "power r", e.Cmd.Rank)
			t.head(p.name, "power", "X", pid, tid, p.at)
			t.dur(e.Cmd.At - p.at)
			t.close()
			return
		case power.CmdACT, power.CmdPRE:
			// Instants on the bank track, below.
		default:
			// RD/WR render as bank-track spans via BurstScheduled; REF as a
			// refresh-track span via RefreshStart.
			return
		}
		pid := t.pid(e.Src)
		tid := t.bankTid(pid, e.Cmd.Rank, e.Cmd.Bank)
		t.head(e.Cmd.Kind.String(), "cmd", "i", pid, tid, e.Cmd.At)
		t.buf = append(t.buf, `,"s":"t"`...)
		t.close()
	case BurstScheduled:
		pid := t.pid(e.Src)
		tid := t.bankTid(pid, e.Rank, e.Bank)
		name := "WR"
		if e.Read {
			name = "RD"
		}
		t.head(name, "burst", "X", pid, tid, e.At)
		t.dur(e.DataEnd - e.At)
		t.uarg(`,"args":{"row":`, e.Row)
		t.closeArgs()
		if e.Pkt != nil {
			key := spanKey{e.Src, e.Pkt}
			if sp, ok := t.spans[key]; ok && !sp.cmdSeen {
				sp.cmdSeen = true
				t.spans[key] = sp
				ptid := t.tid(pid, "packets")
				t.head("firstCmd", "pkt", "n", pid, ptid, e.At)
				t.uarg(`,"id":`, sp.id)
				t.close()
			}
		}
	case ResponseSent:
		key := spanKey{e.Src, e.Pkt}
		sp, ok := t.spans[key]
		if !ok {
			return
		}
		delete(t.spans, key)
		pid := t.pid(e.Src)
		tid := t.tid(pid, "packets")
		t.pktHead(sp.queue, e.Pkt.Addr, "e", pid, tid, e.At)
		t.uarg(`,"id":`, sp.id)
		t.close()
	case RefreshStart:
		pid := t.pid(e.Src)
		tid := t.rankTid(pid, "refresh r", e.Rank)
		t.head("REF", "refresh", "X", pid, tid, e.At)
		t.dur(e.Until - e.At)
		t.arg(`,"args":{"bank":`, e.Bank)
		t.closeArgs()
	case RefreshEnd:
		// Rendered as part of the RefreshStart span.
	case WriteDrainEnter:
		t.drains[e.Src] = pendingDrain{at: e.At, queueLen: e.QueueLen}
	case WriteDrainExit:
		d, ok := t.drains[e.Src]
		if !ok {
			return
		}
		delete(t.drains, e.Src)
		pid := t.pid(e.Src)
		tid := t.tid(pid, "drain")
		t.head("writeDrain", "drain", "X", pid, tid, d.at)
		t.dur(e.At - d.at)
		t.arg(`,"args":{"queueLen":`, d.queueLen)
		t.arg(`,"writes":`, e.Writes)
		t.closeArgs()
	case ShardQuantumFlush:
		pid := t.pid(e.Src)
		tid := t.tid(pid, "quantum")
		t.buf = strconv.AppendInt(append(t.buf, `{"name":"flush.link`...), int64(e.Shard), 10)
		t.buf = append(t.buf, '"')
		t.fields("quantum", "i", pid, tid, e.At)
		t.arg(`,"s":"t","args":{"shard":`, e.Shard)
		t.arg(`,"requests":`, e.Requests)
		t.arg(`,"responses":`, e.Responses)
		t.closeArgs()
	}
}

// --- Checkpoint images -----------------------------------------------------
//
// A tracer carries exactly the state that makes a resumed trace match an
// uninterrupted one byte for byte: the pid/tid assignments already written
// as metadata lines, the open spans (by packet table reference, so they
// re-link to the shared restored packets), the async id counter, and any
// open write-drain episode. Pending buffered lines never appear here:
// TraceSink flushes every tracer to the file before saving.

type tracerPidState struct {
	Src string
	Pid int
}

type tracerTidState struct {
	Key string
	Tid int
}

type tracerSpanState struct {
	Src     string
	Pkt     int
	ID      uint64
	Queue   Queue
	CmdSeen bool
}

type tracerDrainState struct {
	Src      string
	At       sim.Tick
	QueueLen int
}

type tracerPowerState struct {
	Src  string
	Rank int
	At   sim.Tick
	Name string
}

type tracerState struct {
	NextPid int
	NextID  uint64
	Pids    []tracerPidState
	Tids    []tracerTidState
	Spans   []tracerSpanState
	Drains  []tracerDrainState
	Powers  []tracerPowerState
}

// saveState captures the tracer's checkpoint image. The pending buffer must
// already be empty (the sink flushes before saving).
func (t *Tracer) saveState(pt mem.PacketTable) (tracerState, error) {
	if len(t.buf) != 0 {
		return tracerState{}, fmt.Errorf("obs: tracer has %d unflushed bytes at save", len(t.buf))
	}
	st := tracerState{NextPid: t.nextPid, NextID: t.nextID}
	for src, pid := range t.pids {
		st.Pids = append(st.Pids, tracerPidState{Src: src, Pid: pid})
	}
	sort.Slice(st.Pids, func(i, j int) bool { return st.Pids[i].Pid < st.Pids[j].Pid })
	for key, tid := range t.tids {
		st.Tids = append(st.Tids, tracerTidState{Key: key, Tid: tid})
	}
	sort.Slice(st.Tids, func(i, j int) bool {
		if st.Tids[i].Key != st.Tids[j].Key {
			return st.Tids[i].Key < st.Tids[j].Key
		}
		return st.Tids[i].Tid < st.Tids[j].Tid
	})
	for key, sp := range t.spans {
		st.Spans = append(st.Spans, tracerSpanState{
			Src: key.src, Pkt: pt.PacketRef(key.pkt),
			ID: sp.id, Queue: sp.queue, CmdSeen: sp.cmdSeen,
		})
	}
	sort.Slice(st.Spans, func(i, j int) bool { return st.Spans[i].ID < st.Spans[j].ID })
	for src, d := range t.drains {
		st.Drains = append(st.Drains, tracerDrainState{Src: src, At: d.at, QueueLen: d.queueLen})
	}
	sort.Slice(st.Drains, func(i, j int) bool { return st.Drains[i].Src < st.Drains[j].Src })
	for key, p := range t.powers {
		st.Powers = append(st.Powers, tracerPowerState{Src: key.src, Rank: key.rank, At: p.at, Name: p.name})
	}
	sort.Slice(st.Powers, func(i, j int) bool {
		if st.Powers[i].Src != st.Powers[j].Src {
			return st.Powers[i].Src < st.Powers[j].Src
		}
		return st.Powers[i].Rank < st.Powers[j].Rank
	})
	return st, nil
}

// restoreState rebuilds the tracer from a checkpoint image.
func (t *Tracer) restoreState(pl mem.PacketLookup, st tracerState) error {
	t.buf = t.buf[:0]
	t.nextPid = st.NextPid
	t.nextID = st.NextID
	t.pids = make(map[string]int, len(st.Pids))
	t.nextTid = make(map[int]int, len(st.Pids))
	for _, p := range st.Pids {
		t.pids[p.Src] = p.Pid
		t.nextTid[p.Pid] = 1
	}
	t.tids = make(map[string]int, len(st.Tids))
	for _, e := range st.Tids {
		t.tids[e.Key] = e.Tid
		pidStr := e.Key
		for i := 0; i < len(pidStr); i++ {
			if pidStr[i] == '|' {
				pidStr = pidStr[:i]
				break
			}
		}
		pid, err := strconv.Atoi(pidStr)
		if err != nil {
			return fmt.Errorf("obs: bad tid key %q in checkpoint", e.Key)
		}
		if e.Tid >= t.nextTid[pid] {
			t.nextTid[pid] = e.Tid + 1
		}
	}
	t.spans = make(map[spanKey]openSpan, len(st.Spans))
	for _, s := range st.Spans {
		t.spans[spanKey{s.Src, pl.PacketByRef(s.Pkt)}] = openSpan{
			id: s.ID, queue: s.Queue, cmdSeen: s.CmdSeen,
		}
	}
	t.drains = make(map[string]pendingDrain, len(st.Drains))
	for _, d := range st.Drains {
		t.drains[d.Src] = pendingDrain{at: d.At, queueLen: d.QueueLen}
	}
	t.powers = make(map[powerKey]pendingPower, len(st.Powers))
	for _, p := range st.Powers {
		t.powers[powerKey{p.Src, p.Rank}] = pendingPower{at: p.At, name: p.Name}
	}
	return nil
}

// --- File writer -----------------------------------------------------------

// TraceWriter owns the on-disk trace file. The file uses the JSON Array
// format with one event object per line; Close appends the "{}]"
// terminator, making the file strict JSON, but Perfetto also loads a file
// that crashed mid-write (the format tolerates a missing terminator).
//
// The writer tracks its byte offset so checkpoints can record "the trace is
// valid up to byte N": restoring truncates back to N and a resumed run
// appends from there, reproducing the uninterrupted file exactly (clocks
// are absolute across resume, so no timestamp rewriting is needed).
type TraceWriter struct {
	path    string
	f       *os.File
	off     int64
	started bool
}

// traceHeader opens the JSON array.
const traceHeader = "[\n"

// NewTraceWriter opens (or creates) the trace file without touching its
// contents: a fresh run must call BeginFresh, a resumed run truncates via
// Truncate during checkpoint restore.
func NewTraceWriter(path string) (*TraceWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &TraceWriter{path: path, f: f, off: st.Size(), started: st.Size() > 0}, nil
}

// Path returns the trace file path.
func (w *TraceWriter) Path() string { return w.path }

// Offset returns the current valid length of the file in bytes.
func (w *TraceWriter) Offset() int64 { return w.off }

// BeginFresh truncates the file and writes the array header; call it
// exactly once, when starting a run from scratch.
func (w *TraceWriter) BeginFresh() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return err
	}
	n, err := w.f.WriteString(traceHeader)
	w.off = int64(n)
	w.started = err == nil
	return err
}

// Truncate cuts the file back to n bytes — the restore path. n must cover
// at least the header a started trace wrote.
func (w *TraceWriter) Truncate(n int64) error {
	if n < int64(len(traceHeader)) {
		return fmt.Errorf("obs: trace truncation to %d bytes would lose the header", n)
	}
	if err := w.f.Truncate(n); err != nil {
		return err
	}
	if _, err := w.f.Seek(n, 0); err != nil {
		return err
	}
	w.off = n
	w.started = true
	return nil
}

// Write appends drained tracer bytes.
func (w *TraceWriter) Write(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	if !w.started {
		return fmt.Errorf("obs: trace writer used before BeginFresh or restore")
	}
	n, err := w.f.Write(b)
	w.off += int64(n)
	return err
}

// Close terminates the JSON array and closes the file.
func (w *TraceWriter) Close() error {
	var werr error
	if w.started {
		_, werr = w.f.WriteString("{}]\n")
	}
	cerr := w.f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// --- Sink ------------------------------------------------------------------

// TraceSink couples tracers to one writer and implements the checkpoint
// hooks. Flush drains the tracers in construction order — in a sharded run
// that is the deterministic frontend-then-shards order, called only from
// the single-threaded barrier section, which is what makes the merged file
// independent of the worker count.
type TraceSink struct {
	w       *TraceWriter //ckpt:skip the writer's offset is saved explicitly below
	tracers []*Tracer    //ckpt:skip tracer images are saved explicitly below
}

// NewTraceSink builds a sink over the writer and tracers.
func NewTraceSink(w *TraceWriter, tracers ...*Tracer) *TraceSink {
	return &TraceSink{w: w, tracers: tracers}
}

// Flush drains every tracer to the file, in order.
func (s *TraceSink) Flush() error {
	for _, t := range s.tracers {
		if err := s.w.Write(t.TakePending()); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and finalizes the trace file.
func (s *TraceSink) Close() error {
	if err := s.Flush(); err != nil {
		return err
	}
	return s.w.Close()
}

// sinkState is the sink's checkpoint section.
type sinkState struct {
	FileBytes int64
	Tracers   []tracerState
}

// CheckpointSave implements checkpoint.Checkpointable: flush everything,
// then record the valid file length and each tracer's open state.
func (s *TraceSink) CheckpointSave(pt mem.PacketTable) (any, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	st := sinkState{FileBytes: s.w.Offset()}
	for _, t := range s.tracers {
		ts, err := t.saveState(pt)
		if err != nil {
			return nil, err
		}
		st.Tracers = append(st.Tracers, ts)
	}
	return st, nil
}

// CheckpointRestore implements checkpoint.Checkpointable: truncate the file
// to the saved length and rebuild the tracers. Resuming a traced run
// requires tracing to be enabled again (the checkpoint's component set is
// strict), with the same tracer topology.
func (s *TraceSink) CheckpointRestore(pl mem.PacketLookup, _ sim.Restorer, data []byte) error {
	var st sinkState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("obs: trace sink restore: %w", err)
	}
	if len(st.Tracers) != len(s.tracers) {
		return fmt.Errorf("obs: checkpoint has %d tracers, sink has %d (same -channels required)",
			len(st.Tracers), len(s.tracers))
	}
	if err := s.w.Truncate(st.FileBytes); err != nil {
		return err
	}
	for i, t := range s.tracers {
		if err := t.restoreState(pl, st.Tracers[i]); err != nil {
			return err
		}
	}
	return nil
}
