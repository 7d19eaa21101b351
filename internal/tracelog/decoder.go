package tracelog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/intern"
	"repro/internal/trace"
)

// Op identifies the kind of a decoded event. The values coincide with the
// on-disk opcodes.
type Op uint8

// Decoded event kinds.
const (
	OpAccess      Op = Op(opAccess)
	OpAcquire     Op = Op(opAcquire)
	OpRelease     Op = Op(opRelease)
	OpContended   Op = Op(opContended)
	OpAlloc       Op = Op(opAlloc)
	OpFree        Op = Op(opFree)
	OpSegment     Op = Op(opSegment)
	OpSync        Op = Op(opSync)
	OpRequest     Op = Op(opRequest)
	OpThreadStart Op = Op(opThreadStart)
	OpThreadExit  Op = Op(opThreadExit)
)

// Event is one decoded log event in a uniform representation. Only the
// fields relevant to Op are meaningful. Holding events as values (rather
// than delivering them straight into sinks, as Replay does) is what lets a
// caller inspect or filter an event between decode and delivery, as the
// ingest sampler does.
type Event struct {
	Op Op
	// Access is set for OpAccess.
	Access trace.Access
	// Block is set for OpAlloc and OpFree. It is a value copy: for OpFree it
	// carries the descriptor of the matching allocation, reconstructed by the
	// Decoder. The Tag string is interned process-wide (internal/intern), so
	// repeated tags share one allocation across every decoder and session.
	Block trace.Block
	// Segment is set for OpSegment. Its In slice points into a buffer the
	// Decoder reuses: it is valid only until the next call to Next (or
	// Reset). A consumer that retains segment events beyond that must copy
	// the slice — copy-on-retain, the same discipline trace.Sink already
	// demands for event pointers. The engine copies edges into its
	// batch-owned arenas; inline replay delivers before the next decode.
	Segment trace.SegmentStart
	// Sync is set for OpSync.
	Sync trace.SyncEvent
	// Request is set for OpRequest.
	Request trace.Request
	// Thread is set for OpAcquire, OpRelease, OpContended, OpFree,
	// OpThreadStart and OpThreadExit.
	Thread trace.ThreadID
	// Parent is set for OpThreadStart.
	Parent trace.ThreadID
	// Lock and LockKind are set for OpAcquire, OpRelease and OpContended
	// (LockKind only for the first two).
	Lock     trace.LockID
	LockKind trace.LockKind
	// Stack is set for OpAcquire, OpRelease, OpContended and OpFree.
	Stack trace.StackID
}

// Deliver invokes the Sink callback corresponding to the event. Pointers
// passed to the sink point into the Event itself, so the usual trace.Sink
// contract applies: the sink must not retain them beyond the call.
func (e *Event) Deliver(s trace.Sink) {
	switch e.Op {
	case OpAccess:
		s.Access(&e.Access)
	case OpAcquire:
		s.Acquire(e.Thread, e.Lock, e.LockKind, e.Stack)
	case OpRelease:
		s.Release(e.Thread, e.Lock, e.LockKind, e.Stack)
	case OpContended:
		s.Contended(e.Thread, e.Lock, e.Stack)
	case OpAlloc:
		s.Alloc(&e.Block)
	case OpFree:
		s.Free(&e.Block, e.Thread, e.Stack)
	case OpSegment:
		s.Segment(&e.Segment)
	case OpSync:
		s.Sync(&e.Sync)
	case OpRequest:
		s.Request(&e.Request)
	case OpThreadStart:
		s.ThreadStart(e.Thread, e.Parent)
	case OpThreadExit:
		s.ThreadExit(e.Thread)
	}
}

// Corruption bounds: a decoder must fail cleanly on a corrupt or hostile
// log, never allocate from an attacker-controlled length. The VM caps stacks
// far below these, so no legitimate log comes near them.
const (
	// maxSegmentEdges bounds a segment's incoming-edge count. Real segments
	// have a handful of edges (program order plus create/join/queue/...).
	maxSegmentEdges = 1 << 16
	// maxTagLen bounds an allocation tag's byte length.
	maxTagLen = 1 << 20
)

// maxEventFields is the most uvarint fields any opcode carries outside the
// variable segment-edge list (OpAccess, with 9); the decode scratch array is
// sized to it with headroom for future opcodes.
const maxEventFields = 16

// blockChunk is the slab granule: live block descriptors are allocated 256
// at a time and recycled through a free list, so steady-state alloc/free
// traffic touches the heap only when the live set reaches a new high-water
// mark.
const blockChunk = 256

// blockSlab hands out *trace.Block descriptors from fixed-size chunks plus a
// free list of evicted descriptors. Chunks are never individually released
// (pointers into them live in the Decoder's block map), but reset rewinds
// the cursor so a reused Decoder recycles all of them.
type blockSlab struct {
	chunks [][]trace.Block
	ci     int // current chunk index
	next   int // next unused slot in chunks[ci]
	free   []*trace.Block
}

func (s *blockSlab) get() *trace.Block {
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free = s.free[:n-1]
		return b
	}
	for {
		if s.ci == len(s.chunks) {
			s.chunks = append(s.chunks, make([]trace.Block, blockChunk))
		}
		if c := s.chunks[s.ci]; s.next < len(c) {
			b := &c[s.next]
			s.next++
			return b
		}
		s.ci++
		s.next = 0
	}
}

func (s *blockSlab) put(b *trace.Block) {
	*b = trace.Block{}
	s.free = append(s.free, b)
}

func (s *blockSlab) reset() {
	s.ci, s.next = 0, 0
	s.free = s.free[:0]
}

// Decoder reads a binary trace log event by event. It reconstructs block
// descriptors so that OpFree events carry the matching allocation, exactly
// as Replay does.
//
// The steady-state decode path is allocation-free: fixed-size field scratch,
// slab-recycled block descriptors (an OpFree evicts and recycles its
// descriptor, so the block table is bounded by the live set, not the event
// count), process-wide interned allocation tags, and a reused segment-edge
// buffer (see Event.Segment). A Decoder is not safe for concurrent use.
type Decoder struct {
	br     *bufio.Reader
	blocks map[trace.BlockID]*trace.Block
	slab   blockSlab
	events int64

	scratch [maxEventFields]uint64 // per-event field decode, no per-call slice
	tagBuf  []byte                 // reused tag read buffer; interned before use
	edges   []trace.SegmentEdge    // reused Segment.In backing; see Event.Segment
}

// NewDecoder creates a decoder reading the binary log from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{
		br:     bufio.NewReader(r),
		blocks: make(map[trace.BlockID]*trace.Block),
	}
}

// Reset rewires the decoder to a new log, recycling its buffers, block slab
// and table: a decoder in a long-lived server (or a benchmark loop) decodes
// any number of streams with no per-stream allocation beyond what a larger
// live set or a new tag vocabulary demands.
func (d *Decoder) Reset(r io.Reader) {
	d.br.Reset(r)
	clear(d.blocks)
	d.slab.reset()
	d.events = 0
}

// Events returns the number of events decoded so far, counting an event
// whose payload turned out to be truncated.
func (d *Decoder) Events() int64 { return d.events }

// readFields decodes n uvarint fields into the fixed scratch array. Running
// out of input mid-payload is a truncated log, not a clean end, and must not
// look like io.EOF.
func (d *Decoder) readFields(n int) ([]uint64, error) {
	out := d.scratch[:n]
	for i := range out {
		v, err := binary.ReadUvarint(d.br)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// readTag reads a length-prefixed allocation tag into the reused buffer and
// interns it, so a repeated tag costs no allocation.
func (d *Decoder) readTag() (string, error) {
	n, err := binary.ReadUvarint(d.br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", err
	}
	if n > maxTagLen {
		return "", fmt.Errorf("tracelog: corrupt string length %d", n)
	}
	if uint64(cap(d.tagBuf)) < n {
		d.tagBuf = make([]byte, n)
	}
	buf := d.tagBuf[:n]
	if _, err := io.ReadFull(d.br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return "", err
	}
	return intern.Bytes(buf), nil
}

// Next decodes the next event into *ev, overwriting all fields. It returns
// io.EOF at a clean end of log; any other error means a corrupt or truncated
// log.
func (d *Decoder) Next(ev *Event) error {
	op, err := d.br.ReadByte()
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return err
	}
	d.events++
	switch op {
	case opAccess:
		f, err := d.readFields(9)
		if err != nil {
			return err
		}
		// Detectors walk the granules [Off, Off+Size-1]: an empty or
		// wrapping range would turn that walk into a 2^32-step (or endless)
		// loop, so it stops here. The VM never emits one.
		off, size := uint32(f[4]), uint32(f[5])
		if size == 0 || off+size < off {
			return fmt.Errorf("tracelog: corrupt access event: offset %d size %d", off, size)
		}
		ev.Op = OpAccess
		ev.Access = trace.Access{
			Thread: trace.ThreadID(f[0]), Seg: trace.SegmentID(f[1]),
			Block: trace.BlockID(f[2]), Addr: trace.Addr(f[3]),
			Off: off, Size: size,
			Kind: trace.AccessKind(f[6]), Atomic: f[7] != 0,
			Stack: trace.StackID(f[8]),
		}
	case opAcquire, opRelease:
		f, err := d.readFields(4)
		if err != nil {
			return err
		}
		if op == opAcquire {
			ev.Op = OpAcquire
		} else {
			ev.Op = OpRelease
		}
		ev.Thread = trace.ThreadID(f[0])
		ev.Lock = trace.LockID(f[1])
		ev.LockKind = trace.LockKind(f[2])
		ev.Stack = trace.StackID(f[3])
	case opContended:
		f, err := d.readFields(3)
		if err != nil {
			return err
		}
		ev.Op = OpContended
		ev.Thread = trace.ThreadID(f[0])
		ev.Lock = trace.LockID(f[1])
		ev.Stack = trace.StackID(f[2])
	case opAlloc:
		f, err := d.readFields(5)
		if err != nil {
			return err
		}
		tag, err := d.readTag()
		if err != nil {
			return err
		}
		id := trace.BlockID(f[0])
		blk := d.blocks[id]
		if blk == nil {
			blk = d.slab.get()
			d.blocks[id] = blk
		}
		*blk = trace.Block{
			ID: id, Base: trace.Addr(f[1]), Size: uint32(f[2]),
			Thread: trace.ThreadID(f[3]), Stack: trace.StackID(f[4]), Tag: tag,
		}
		ev.Op = OpAlloc
		ev.Block = *blk
	case opFree:
		f, err := d.readFields(3)
		if err != nil {
			return err
		}
		id := trace.BlockID(f[0])
		ev.Op = OpFree
		if blk := d.blocks[id]; blk != nil {
			// Evict: the free event carries the value copy, so nothing needs
			// the table entry afterwards — keeping it (as earlier revisions
			// did) leaks the whole history of freed blocks over a long
			// stream. A later double free of the same ID resolves to the bare
			// ID, which is all the tools use from it (memcheck records the
			// base itself at first free, exactly as it must on the live path).
			ev.Block = *blk
			delete(d.blocks, id)
			d.slab.put(blk)
		} else {
			ev.Block = trace.Block{ID: id}
		}
		ev.Thread = trace.ThreadID(f[1])
		ev.Stack = trace.StackID(f[2])
	case opSegment:
		f, err := d.readFields(3)
		if err != nil {
			return err
		}
		if f[2] > maxSegmentEdges {
			return fmt.Errorf("tracelog: corrupt segment event: %d incoming edges", f[2])
		}
		// The header fields live in the shared scratch array the edge reads
		// below overwrite; take them out first.
		seg, thr, n := trace.SegmentID(f[0]), trace.ThreadID(f[1]), int(f[2])
		d.edges = d.edges[:0]
		for i := 0; i < n; i++ {
			ef, err := d.readFields(2)
			if err != nil {
				return err
			}
			d.edges = append(d.edges, trace.SegmentEdge{From: trace.SegmentID(ef[0]), Kind: trace.EdgeKind(ef[1])})
		}
		ev.Op = OpSegment
		ev.Segment = trace.SegmentStart{Seg: seg, Thread: thr, In: d.edges}
	case opSync:
		f, err := d.readFields(5)
		if err != nil {
			return err
		}
		ev.Op = OpSync
		ev.Sync = trace.SyncEvent{
			Op: trace.SyncOp(f[0]), Obj: trace.SyncID(f[1]),
			Thread: trace.ThreadID(f[2]), Msg: int64(f[3]), Stack: trace.StackID(f[4]),
		}
	case opRequest:
		f, err := d.readFields(6)
		if err != nil {
			return err
		}
		ev.Op = OpRequest
		ev.Request = trace.Request{
			Kind: trace.RequestKind(f[0]), Thread: trace.ThreadID(f[1]),
			Block: trace.BlockID(f[2]), Off: uint32(f[3]), Size: uint32(f[4]),
			Stack: trace.StackID(f[5]),
		}
	case opThreadStart:
		f, err := d.readFields(2)
		if err != nil {
			return err
		}
		ev.Op = OpThreadStart
		ev.Thread = trace.ThreadID(f[0])
		ev.Parent = trace.ThreadID(f[1])
	case opThreadExit:
		f, err := d.readFields(1)
		if err != nil {
			return err
		}
		ev.Op = OpThreadExit
		ev.Thread = trace.ThreadID(f[0])
	default:
		return fmt.Errorf("tracelog: unknown opcode %d", op)
	}
	return nil
}
