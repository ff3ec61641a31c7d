package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
)

// This file implements the recorded architectural trace that splits the
// simulator into a functional engine and a timing engine. One
// functional run (Record) captures everything timing depends on but
// interpretation produces: conditional-branch directions,
// speculative-load fault bits, the ALAT event stream (advanced-load
// inserts, check loads, store invalidations — each with its owning
// activation, register, and address), and per-latency-class retirement
// counts. A Replay walk (replay.go) then re-times the trace under any
// Config — serial or pipelined, any latencies, any ALAT size — without
// a register file or memory image, so an N-config sensitivity sweep
// costs one functional run plus N cheap re-timings.
//
// Under the serial model the re-timing is O(ALAT events), not
// O(instructions): serial cycles are a linear function of the class
// counts plus the per-check hit/miss outcomes, so the replayer walks
// only the (much shorter) ALAT event stream. The pipelined scoreboard
// genuinely depends on per-instruction operand availability, so that
// model replays the full instruction walk, driven by the branch bits.
//
// The trace deliberately does not record check-load hits or ALAT
// evictions: both depend on Config.ALATSize, so the replayer
// re-simulates ALAT contents from the recorded event stream with the
// same alat implementation the functional engine uses. What makes this
// sound is a well-formedness obligation on the code (which the code
// generator upholds and the differential tests check): the register of
// a check load still holds its advanced load's value when the check
// executes. Then a check's architectural effect is the same whether it
// hits or misses — the register ends up equal to memory — and only the
// timing differs, which is exactly what the replayer recomputes.
//
// Streams are append-only and chunked so recording never re-copies a
// growing flat slice and a finished trace can be shared read-only by
// any number of concurrent replays.

// bitChunkWords is the size of one bitstream chunk in 64-bit words
// (32 KiB of bits per chunk).
const bitChunkWords = 1 << 12

// opChunkLen is the number of ALAT events per chunk.
const opChunkLen = 1 << 12

// bitChunks is an append-only chunked bitstream.
type bitChunks struct {
	chunks [][]uint64
	n      int64 // bits appended
}

func (b *bitChunks) append(bit bool) {
	word := int(b.n >> 6)
	ci := word / bitChunkWords
	if ci == len(b.chunks) {
		b.chunks = append(b.chunks, make([]uint64, bitChunkWords))
	}
	if bit {
		b.chunks[ci][word%bitChunkWords] |= 1 << uint(b.n&63)
	}
	b.n++
}

// bitReader is one replay's private cursor over a bitChunks stream.
type bitReader struct {
	t   *bitChunks
	pos int64
}

func (r *bitReader) next() (bit, ok bool) {
	if r.pos >= r.t.n {
		return false, false
	}
	word := int(r.pos >> 6)
	bit = r.t.chunks[word/bitChunkWords][word%bitChunkWords]&(1<<uint(r.pos&63)) != 0
	r.pos++
	return bit, true
}

// ALAT event kinds, in the recorded stream's program order.
const (
	opInsert   uint8 = iota // ld.a / ldf.a / non-deferred ld.sa / ldf.sa
	opCheckInt              // ld.c
	opCheckFP               // ldf.c
	opInval                 // st / stf (conflicting-store invalidation)
)

// alatOp is one recorded ALAT-relevant event. The owning activation and
// register are part of the event because ALAT entries are keyed by
// (frameID, reg): the serial fast path re-simulates table contents under
// any capacity from these fields alone, never touching the instruction
// stream.
type alatOp struct {
	frameID int64
	addr    int64
	reg     int32
	fn      int32 // index into Trace.FnNames (per-function attribution)
	kind    uint8
}

// opChunks is an append-only chunked ALAT-event stream in columnar
// (struct-of-arrays) layout: each event field lives in its own parallel
// chunk array. The ALAT re-simulation walks kinds/regs/frames/addrs as
// four contiguous streams instead of striding over a 24-byte struct, so
// both the memoized serial walk and the batched replay stay in cache.
type opChunks struct {
	kinds  [][]uint8
	regs   [][]int32
	frames [][]int64
	addrs  [][]int64
	fns    [][]int32
	n      int64
}

func (a *opChunks) append(op alatOp) {
	ci := int(a.n) / opChunkLen
	if ci == len(a.kinds) {
		a.kinds = append(a.kinds, make([]uint8, 0, opChunkLen))
		a.regs = append(a.regs, make([]int32, 0, opChunkLen))
		a.frames = append(a.frames, make([]int64, 0, opChunkLen))
		a.addrs = append(a.addrs, make([]int64, 0, opChunkLen))
		a.fns = append(a.fns, make([]int32, 0, opChunkLen))
	}
	a.kinds[ci] = append(a.kinds[ci], op.kind)
	a.regs[ci] = append(a.regs[ci], op.reg)
	a.frames[ci] = append(a.frames[ci], op.frameID)
	a.addrs[ci] = append(a.addrs[ci], op.addr)
	a.fns[ci] = append(a.fns[ci], op.fn)
	a.n++
}

// opReader is one replay's private cursor over an opChunks stream. It
// caches the current chunk's column slices so the per-event hot path is
// four contiguous indexed loads, re-sliced only at chunk boundaries.
type opReader struct {
	t      *opChunks
	pos    int64
	chunk  int // cached chunk index; -1 before first read
	kinds  []uint8
	regs   []int32
	frames []int64
	addrs  []int64
	fns    []int32
}

func (r *opReader) next() (op alatOp, ok bool) {
	if r.pos >= r.t.n {
		return alatOp{}, false
	}
	ci, off := int(r.pos)/opChunkLen, int(r.pos)%opChunkLen
	if r.kinds == nil || ci != r.chunk {
		r.chunk = ci
		r.kinds = r.t.kinds[ci]
		r.regs = r.t.regs[ci]
		r.frames = r.t.frames[ci]
		r.addrs = r.t.addrs[ci]
		r.fns = r.t.fns[ci]
	}
	op = alatOp{
		kind:    r.kinds[off],
		reg:     r.regs[off],
		frameID: r.frames[off],
		addr:    r.addrs[off],
		fn:      r.fns[off],
	}
	r.pos++
	return op, true
}

// Instruction latency classes counted during recording. Every retired
// instruction outside these classes has unit latency (cHalt retires for
// free), so serial cycles are a linear function of the counts and the
// check outcomes. cSpec/cSpecFault/cAdv are statistics classes that
// overlap the load classes (a retired ld.sa is both cIntLoad for timing
// and cSpec/cAdv for the counters).
const (
	cMul = iota
	cDivMod
	cFPArith
	cFPDiv
	cIntLoad // ld, ld.a, ld.s, ld.sa (checks counted separately)
	cFPLoad  // ldf, ldf.a, ldf.s, ldf.sa
	cCheckInt
	cCheckFP
	cStore
	cHalt
	cSpec      // speculative loads retired
	cSpecFault // deferred speculative faults
	cAdv       // advanced loads retired (ALAT inserts)
	cFence     // speculation barriers (OpFence)
	cNumClasses
)

// Trace is the recorded architectural event stream of one (program,
// input) execution, plus the run's architectural outputs. A finished
// Trace is immutable and safe for concurrent Replay walks.
type Trace struct {
	bits bitChunks // branch directions and spec-load fault bits, in order
	ops  opChunks  // ALAT events (inserts, checks, invalidations), in order

	// alatMemo caches per-ALATSize event-walk summaries (alatSummary):
	// the walk's outcome is a pure function of (trace, capacity), so a
	// latency sweep at a fixed ALAT size pays for one walk. Concurrent
	// replays may race to fill an entry; they compute the same value.
	alatMemo sync.Map // int (ALATSize) -> alatSummary

	// counts are per-latency-class retirement counts (the c* constants);
	// they make serial re-timing independent of the instruction stream's
	// length.
	counts [cNumClasses]int64

	// Steps is the dynamic step count of the recorded run (one per
	// retired instruction); Replay reproduces step-limit faults from it.
	Steps int64
	// MaxDepth is the deepest call nesting the run reached.
	MaxDepth int
	// Frames is the total number of activations entered (including
	// main); each is charged Config.CallOverhead.
	Frames int64
	// StackSlots is the (normalized) Config.StackSlots the trace was
	// recorded under. Replay requires an identical value: the stack size
	// determines concrete addresses, so re-timing under a different
	// memory layout would not correspond to any direct execution.
	StackSlots int
	// Ret and Output are the architectural results of the run.
	Ret    int64
	Output string

	// FnNames is the function-name table for per-function attribution:
	// every recorded ALAT event carries a compact index into it. Order
	// is first-touch during recording and preserved by Marshal, so a
	// round-tripped trace replays to identical per-function counters.
	FnNames []string
	// fnIDs is the recording-side inverse of FnNames, keyed by code
	// pointer. Only the single-threaded functional engine touches it.
	fnIDs map[*FuncCode]int32
}

// fnID interns f into the trace's function-name table.
func (t *Trace) fnID(f *FuncCode) int32 {
	if id, ok := t.fnIDs[f]; ok {
		return id
	}
	if t.fnIDs == nil {
		t.fnIDs = make(map[*FuncCode]int32)
	}
	id := int32(len(t.FnNames))
	t.FnNames = append(t.FnNames, f.Name)
	t.fnIDs[f] = id
	return id
}

// Events reports the number of recorded events (bits plus ALAT ops),
// a size proxy for tests and observability.
func (t *Trace) Events() int64 { return t.bits.n + t.ops.n }

// Bytes reports the in-memory footprint of the trace's event streams:
// allocated chunks times chunk size, for the bitstream and each ALAT
// event column, plus the retained output string. It is an accounting
// figure for cache budgeting (the specd_trace_bytes gauge), not an
// exact heap measurement.
func (t *Trace) Bytes() int64 {
	b := int64(len(t.bits.chunks)) * bitChunkWords * 8
	b += int64(len(t.ops.kinds)) * opChunkLen * 1
	b += int64(len(t.ops.regs)) * opChunkLen * 4
	b += int64(len(t.ops.frames)) * opChunkLen * 8
	b += int64(len(t.ops.addrs)) * opChunkLen * 8
	b += int64(len(t.ops.fns)) * opChunkLen * 4
	for _, name := range t.FnNames {
		b += int64(len(name))
	}
	return b + int64(len(t.Output))
}

// Record executes prog functionally under cfg (latency fields are
// irrelevant; limits and StackSlots are honoured) and returns the
// architectural trace. A run that faults returns the same error direct
// execution would, and no trace.
func Record(prog *Program, args []int64, cfg Config) (*Trace, error) {
	// timing is recomputed per replay; force the cheap serial model so
	// recording never pays for the scoreboard
	cfg = cfg.withDefaults()
	cfg.Pipelined = false
	_, tr, err := execute(prog, args, cfg, nil, &Trace{})
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// traceMagic stamps the serialized form; the version is bumped whenever
// the stream layout or the event set changes (v2 added event kinds,
// activation/register fields, and the latency-class counts; v3 added
// the function-name table and a per-event function index for
// per-function counter attribution; v4 added the fence latency class —
// the counts are serialized by index, so the class set is part of the
// format).
const traceMagic = "reprotrace v4"

// Marshal serializes the trace for spilling through internal/cache
// (ALAT events are varint-encoded with activation ids delta-coded; the
// bitstream is stored raw).
func (t *Trace) Marshal() []byte {
	buf := make([]byte, 0, 128+len(t.Output)+int(t.bits.n/8)+int(t.ops.n)*5)
	buf = append(buf, traceMagic...)
	buf = binary.AppendUvarint(buf, uint64(t.Steps))
	buf = binary.AppendUvarint(buf, uint64(t.MaxDepth))
	buf = binary.AppendUvarint(buf, uint64(t.Frames))
	buf = binary.AppendUvarint(buf, uint64(t.StackSlots))
	buf = binary.AppendVarint(buf, t.Ret)
	for _, c := range t.counts {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.Output)))
	buf = append(buf, t.Output...)
	buf = binary.AppendUvarint(buf, uint64(len(t.FnNames)))
	for _, name := range t.FnNames {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	buf = binary.AppendUvarint(buf, uint64(t.bits.n))
	words := int((t.bits.n + 63) / 64)
	var w8 [8]byte
	for i := 0; i < words; i++ {
		binary.LittleEndian.PutUint64(w8[:], t.bits.chunks[i/bitChunkWords][i%bitChunkWords])
		buf = append(buf, w8[:]...)
	}
	buf = binary.AppendUvarint(buf, uint64(t.ops.n))
	r := opReader{t: &t.ops}
	var prevFrame int64
	for {
		op, ok := r.next()
		if !ok {
			break
		}
		buf = append(buf, op.kind)
		buf = binary.AppendUvarint(buf, uint64(op.reg))
		buf = binary.AppendVarint(buf, op.frameID-prevFrame)
		prevFrame = op.frameID
		buf = binary.AppendVarint(buf, op.addr)
		buf = binary.AppendUvarint(buf, uint64(op.fn))
	}
	return buf
}

// UnmarshalTrace reverses Marshal. Corrupt input returns an error (the
// cache layer treats that as a miss and re-records).
func UnmarshalTrace(data []byte) (*Trace, error) {
	bad := func(what string) (*Trace, error) {
		return nil, fmt.Errorf("machine: corrupt trace: %s", what)
	}
	if len(data) < len(traceMagic) || string(data[:len(traceMagic)]) != traceMagic {
		return bad("bad magic")
	}
	data = data[len(traceMagic):]
	uvar := func() (uint64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	ivar := func() (int64, bool) {
		v, n := binary.Varint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	// count reads a header count: it must survive the cast to int (and
	// so to int64) without going negative
	count := func() (int64, bool) {
		v, ok := uvar()
		return int64(v), ok && v <= math.MaxInt
	}
	t := &Trace{}
	hdr := []struct {
		what string
		dst  func(int64)
	}{
		{"steps", func(v int64) { t.Steps = v }},
		{"depth", func(v int64) { t.MaxDepth = int(v) }},
		{"frames", func(v int64) { t.Frames = v }},
		{"stack slots", func(v int64) { t.StackSlots = int(v) }},
	}
	for _, f := range hdr {
		v, ok := count()
		if !ok {
			return bad(f.what)
		}
		f.dst(v)
	}
	ret, ok := ivar()
	if !ok {
		return bad("ret")
	}
	t.Ret = ret
	// the latency classes partition the retired instructions, so they
	// sum to at most Steps; the statistics classes overlap them
	var retired int64
	for i := range t.counts {
		v, ok := count()
		if !ok || v > t.Steps {
			return bad("class counts")
		}
		t.counts[i] = v
		if i != cSpec && i != cSpecFault && i != cAdv {
			if retired += v; retired > t.Steps {
				return bad("class counts exceed steps")
			}
		}
	}
	outLen, ok := uvar()
	if !ok || uint64(len(data)) < outLen {
		return bad("output")
	}
	t.Output = string(data[:outLen])
	data = data[outLen:]
	nFns, ok := uvar()
	if !ok {
		return bad("fn count")
	}
	for i := uint64(0); i < nFns; i++ {
		nameLen, ok := uvar()
		if !ok || uint64(len(data)) < nameLen {
			return bad("fn name")
		}
		t.FnNames = append(t.FnNames, string(data[:nameLen]))
		data = data[nameLen:]
	}
	nbits, ok := count()
	if !ok {
		return bad("bit count")
	}
	words := int(nbits/64 + min(nbits%64, 1))
	if len(data)/8 < words {
		return bad("bit words")
	}
	t.bits.n = nbits
	for i := 0; i < words; i++ {
		if i%bitChunkWords == 0 {
			t.bits.chunks = append(t.bits.chunks, make([]uint64, bitChunkWords))
		}
		t.bits.chunks[i/bitChunkWords][i%bitChunkWords] = binary.LittleEndian.Uint64(data[i*8:])
	}
	data = data[words*8:]
	nops, ok := uvar()
	if !ok {
		return bad("op count")
	}
	var prevFrame int64
	var checks [2]int64 // int, fp
	for i := uint64(0); i < nops; i++ {
		if len(data) == 0 {
			return bad("op kind")
		}
		kind := data[0]
		if kind > opInval {
			return bad("op kind")
		}
		data = data[1:]
		reg, ok := uvar()
		if !ok {
			return bad("op reg")
		}
		dframe, ok := ivar()
		if !ok {
			return bad("op frame")
		}
		prevFrame += dframe
		addr, ok := ivar()
		if !ok {
			return bad("op addr")
		}
		fn, ok := uvar()
		if !ok || fn >= uint64(len(t.FnNames)) {
			return bad("op fn")
		}
		if kind == opCheckInt || kind == opCheckFP {
			checks[kind-opCheckInt]++
		}
		t.ops.append(alatOp{kind: kind, reg: int32(reg), frameID: prevFrame, addr: addr, fn: int32(fn)})
	}
	// the check ordinals of the replay walks index per-check outcome
	// streams sized from these counts
	if checks[0] != t.counts[cCheckInt] || checks[1] != t.counts[cCheckFP] {
		return bad("check events disagree with class counts")
	}
	return t, nil
}

// Fingerprint is a content hash of the compiled program (code, global
// layout, and initial data), suitable for keying recorded traces: two
// programs with equal fingerprints execute identically on equal inputs.
func (p *Program) Fingerprint() [sha256.Size]byte {
	// the hashed text is "globsize N", one "init A V" line per initialised
	// slot, then String(), streamed one function at a time through one
	// reused buffer so the whole text never exists at once
	h := sha256.New()
	buf := strconv.AppendInt(append(make([]byte, 0, 4096), "globsize "...), int64(p.GlobSize), 10)
	buf = append(buf, '\n')
	addrs := make([]int, 0, len(p.GlobalInit))
	for a := range p.GlobalInit {
		addrs = append(addrs, a)
	}
	sort.Ints(addrs)
	for _, a := range addrs {
		buf = strconv.AppendInt(append(buf, "init "...), int64(a), 10)
		buf = strconv.AppendUint(append(buf, ' '), p.GlobalInit[a], 10)
		buf = append(buf, '\n')
	}
	h.Write(buf)
	for _, name := range p.funcNames() {
		buf = appendFuncText(buf[:0], name, p.Funcs[name])
		h.Write(buf)
	}
	var fp [sha256.Size]byte
	h.Sum(fp[:0])
	return fp
}
