// Package wire is the cswapd service's binary frame protocol: the
// length-prefixed envelope that carries the ten service operations (and
// their tensor-bearing responses) over HTTP bodies between the Go client
// and the swap daemon, and the one table — Ops — that says which
// operations exist and what each one's URL, request frame, response frame
// and default admission lane are.
//
// A frame is a fixed 16-byte header followed by the payload:
//
//	[0:4)   magic "CSWP"
//	[4]     version (currently 1)
//	[5]     frame type
//	[6:8)   flags, big-endian (only FlagSched defined; others must be zero)
//	[8:12)  payload length, big-endian
//	[12:16) CRC-32 (IEEE) of the payload, big-endian
//
// The payload always begins with a length-prefixed name (uint16 length +
// bytes) — a tensor's, or a paged block pool's — so PeekName, and with it
// cluster routing, reads every frame type the same way. What follows is a
// list of fields, in this order, of which each frame type carries the few
// its Ops row names:
//
//	sched      lane byte + uvarint relative deadline in microseconds
//	           (only under FlagSched, only on the schedulable requests)
//	options    compress flag + algorithm byte                 (swap-outs)
//	geometry   u32 elements per block + u32 block count       (register-pool)
//	data       u32 element count + little-endian float32s     (register, tensor-data)
//	ids        uvarint count + uvarint block IDs              (batch swaps)
//	runs       u32 elements per block + uvarint run count
//	           + (uvarint start, uvarint count) per run
//	           + the runs' blocks as packed float32s          (batch-data)
//
// ID lists travel as varints because decode-step batches are dominated by
// small IDs; they may repeat and arrive unsorted — the executor's coalescer
// sorts and dedups. The batch-data frame instead carries a canonical run
// table (sorted, disjoint, non-empty runs): only a coalescer produces it,
// and the canonical form lets the decoder check the table against the
// payload length exactly. Every inner length is cross-checked against the
// outer one and trailing bytes are refused, so a frame either decodes
// exactly or fails loudly.
//
// A float field (data, runs) is always a frame's last, and little-endian
// IEEE-754 is the memory of a []float32 on every platform cswapd ships for:
// Prepare leaves the field where its owner keeps it and streams it from
// there, ReadInto reads it off the stream into the slice that will hold it.
// Neither stages nor converts (compress.FloatBytes is the view; big-endian
// hosts take the portable pair); Encode, Append, Read and Decode are wrappers
// over those two.
//
// FlagSched's lane byte is 0 critical, 1 normal, 2 speculative
// (internal/sched's lane values); a zero deadline is a lane hint only.
// Decoders that predate the flag refuse such frames loudly (non-zero flags
// were always corrupt), never misread them.
//
// Malformed frames reuse the compress package's recoverable-error
// taxonomy: bytes missing at any boundary surface as compress.ErrTruncated
// and structural damage (bad magic, CRC mismatch, lying inner lengths,
// out-of-range fields, trailing bytes) as compress.ErrCorrupt, so
// compress.Recoverable reports exactly the frames a client can sensibly
// retransmit. The one deliberately unrecoverable refusal is ErrTooLarge —
// a hostile or misconfigured length prefix past the decoder's cap,
// rejected before any allocation happens. An encoder handed a frame with a
// bad type, name or sched extension fails with a plain error: caller
// misuse, which no retransmission cures.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"cswap/internal/compress"
)

// Protocol constants.
const (
	// Version is the protocol version this package speaks.
	Version = 1
	// HeaderLen is the fixed frame-header size in bytes.
	HeaderLen = 16
	// MaxNameLen bounds the name field.
	MaxNameLen = 4096
	// DefaultMaxPayload is the decoder's payload cap when the caller
	// passes zero: 1 GiB, matching the executor arena's largest class.
	DefaultMaxPayload = 1 << 30
	// MaxBlockID caps block indices (16M blocks — at typical KV block
	// sizes, far past any one pool this service would hold).
	MaxBlockID = 1 << 24
	// MaxBatchBlocks caps how many blocks one frame may address, so a
	// hostile count prefix cannot force a huge allocation before the
	// per-ID bytes are checked.
	MaxBatchBlocks = 1 << 20
)

var magic = [4]byte{'C', 'S', 'W', 'P'}

// FlagSched marks the scheduling extension; all other header flag bits are
// reserved and refused.
const FlagSched uint16 = 1 << 0

// Lane bytes of the sched extension (wire names them without importing
// internal/sched; laneSpeculative is also the highest legal value).
const (
	laneNormal      = 1
	laneSpeculative = 2
)

// ErrTooLarge reports a payload length prefix past the decoder's cap. It
// is a policy refusal, not data damage, and deliberately does not satisfy
// compress.Recoverable: retransmitting the same frame cannot succeed.
var ErrTooLarge = fmt.Errorf("wire: frame payload exceeds cap")

// Type is the frame opcode.
type Type uint8

// Frame types. Errors travel as HTTP status codes, not frames.
const (
	TypeRegister   Type = iota + 1 // name + data
	TypeSwapOut                    // name + options
	TypeSwapIn                     // name
	TypePrefetch                   // name
	TypeFree                       // name
	TypeTensorData                 // name + data (response)
	TypeAck                        // name (response)

	// Block-pool batch frames: one frame addresses a named pool of
	// fixed-size blocks, so a whole decode step's working set moves in one
	// round trip.
	TypeRegisterPool  // name + geometry
	TypeBatchSwapOut  // name + options + ids
	TypeBatchSwapIn   // name + ids
	TypeBatchPrefetch // name + ids
	TypeBatchData     // name + runs (batch-write request, batch-swap-in response)
)

// fieldKind names one kind of payload field; each has exactly one cursor
// method that sizes, appends, parses and validates it.
type fieldKind uint8

const (
	fieldOptions fieldKind = iota
	fieldGeometry
	fieldData
	fieldIDs
	fieldRuns
)

// Op is one row of the operation table: everything the layers above the
// executor need to know about a frame type. Rows with a Path are the ten
// service operations, keyed by their request type.
type Op struct {
	name   string      // Type.String
	fields []fieldKind // payload fields after the name, in wire order

	// Path is the operation's URL suffix under /v1/ and its op label on the
	// server's request series; empty on the two response-only types.
	Path string
	// Resp is the frame type a 200 answers with.
	Resp Type
	// Sched marks the operations the admission scheduler orders: they claim
	// one slot, and their frames may carry FlagSched. Lane is the lane byte
	// they ride without one.
	Sched bool
	Lane  uint8
	// Register marks the operations that create the name they address (a
	// cluster never falls back to a draining shard for those).
	Register bool
	// Pool marks the operations that address a block pool, not a tensor.
	Pool bool
}

// Ops is the operation table, indexed by frame type. Read-only.
var Ops = [...]Op{
	TypeRegister:   {name: "register", fields: []fieldKind{fieldData}, Path: "register", Resp: TypeAck, Register: true},
	TypeSwapOut:    {name: "swap-out", fields: []fieldKind{fieldOptions}, Path: "swap-out", Resp: TypeAck, Sched: true, Lane: laneNormal},
	TypeSwapIn:     {name: "swap-in", Path: "swap-in", Resp: TypeTensorData, Sched: true, Lane: laneNormal},
	TypePrefetch:   {name: "prefetch", Path: "prefetch", Resp: TypeAck, Sched: true, Lane: laneSpeculative},
	TypeFree:       {name: "free", Path: "free", Resp: TypeAck},
	TypeTensorData: {name: "tensor-data", fields: []fieldKind{fieldData}},
	TypeAck:        {name: "ack"},

	TypeRegisterPool:  {name: "register-pool", fields: []fieldKind{fieldGeometry}, Path: "register-pool", Resp: TypeAck, Register: true, Pool: true},
	TypeBatchSwapOut:  {name: "batch-swap-out", fields: []fieldKind{fieldOptions, fieldIDs}, Path: "batch-swap-out", Resp: TypeAck, Sched: true, Lane: laneNormal, Pool: true},
	TypeBatchSwapIn:   {name: "batch-swap-in", fields: []fieldKind{fieldIDs}, Path: "batch-swap-in", Resp: TypeBatchData, Sched: true, Lane: laneNormal, Pool: true},
	TypeBatchPrefetch: {name: "batch-prefetch", fields: []fieldKind{fieldIDs}, Path: "batch-prefetch", Resp: TypeAck, Sched: true, Lane: laneSpeculative, Pool: true},
	TypeBatchData:     {name: "batch-data", fields: []fieldKind{fieldRuns}, Path: "batch-write", Resp: TypeAck, Pool: true},
}

// String names the frame type for errors and logs.
func (t Type) String() string {
	if !t.valid() {
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
	return Ops[t].name
}

func (t Type) valid() bool { return t >= TypeRegister && int(t) < len(Ops) }

// BlockRun is one contiguous run of block IDs: Count blocks starting at
// Start. The coalescer's unit — one codec/pool operation per run.
type BlockRun struct {
	Start, Count int
}

// TotalBlocks returns how many blocks a run table covers.
func TotalBlocks(runs []BlockRun) int {
	n := 0
	for _, r := range runs {
		n += r.Count
	}
	return n
}

// Frame is one decoded protocol frame.
type Frame struct {
	Type Type
	// Name is the tensor or pool name the operation addresses (non-empty).
	Name string
	// Compress and Alg are meaningful for TypeSwapOut and TypeBatchSwapOut.
	Compress bool
	Alg      compress.Algorithm
	// Data is the float32 payload of register, tensor-data, and batch-data
	// frames (for batch-data: the runs' blocks packed back to back).
	Data []float32

	// Block-pool fields. BlockElems is the per-block element count
	// (register-pool, batch-data); NumBlocks the pool size in blocks
	// (register-pool); BlockIDs the requested blocks (batch-swap-out/
	// swap-in/prefetch, any order, duplicates legal); Runs the canonical
	// run table describing Data's layout (batch-data).
	BlockElems int
	NumBlocks  int
	BlockIDs   []int
	Runs       []BlockRun

	// Scheduling extension (FlagSched). HasSched marks its presence;
	// Lane is the priority lane byte (0 critical .. 2 speculative) and
	// DeadlineMicros the relative deadline in microseconds (0 = lane
	// hint only). Only the schedulable request frames may carry it.
	HasSched       bool
	Lane           uint8
	DeadlineMicros uint64

	// DataCRC is the CRC-32 (IEEE) of the float field's wire bytes alone,
	// known when HasDataCRC is set: ReadInto records it, and Prepare takes
	// it in place of a pass over the field. Both are derived, not part of
	// the frame's meaning, and Equal ignores them.
	HasDataCRC bool
	DataCRC    uint32
}

// truncErr and corruptErr wrap the compress taxonomy with frame context.
func truncErr(format string, args ...any) error {
	return fmt.Errorf("wire: %s: %w", fmt.Sprintf(format, args...), compress.ErrTruncated)
}

func corruptErr(format string, args ...any) error {
	return fmt.Errorf("wire: %s: %w", fmt.Sprintf(format, args...), compress.ErrCorrupt)
}

// mode is what a cursor does with each field it visits.
type mode uint8

const (
	sizing  mode = iota // add the field's encoded size to n
	writing             // append the field to b
	reading             // consume the field from b into the frame
)

// cursor walks one frame's payload field by field. Each field kind is one
// method below that parses it (reading), validates it (reading and sizing —
// the bounds an encoder controls are the ones a decoder checks), and sizes
// or appends it. Writing always follows a sizing pass over the same frame,
// so it neither validates nor fails.
//
// The float field — always a frame's last — never passes through b. Sizing
// and writing know only its element count: the floats stay in their owners'
// memory (Encoding.segs). Reading takes it from the stream after the
// buffered bytes, straight into the destination slice.
type cursor struct {
	mode  mode
	n     int    // sizing: bytes so far
	b     []byte // writing: the frame so far; reading: the buffered payload left
	elems int    // sizing, writing: the float field's element count

	// Reading. buf is all of the payload buffered so far (b is its unparsed
	// tail) and rest counts the payload bytes still in r; a float field lands
	// in dst when it fits, and sum is the header's CRC it must total to.
	buf  []byte
	rest int
	r    io.Reader
	dst  []float32
	sum  uint32
}

// errShort reports a field that runs past the buffered bytes but not past
// the payload: a reader buffers more and parses again.
var errShort = truncErr("frame continues past the bytes buffered")

// envelopeErr refuses a bad type, name or sched extension — the parts every
// frame shares. Read off the wire that is damage; handed to an encoder it is
// caller misuse, a plain error no retransmission can cure.
func (c *cursor) envelopeErr(format string, args ...any) error {
	if c.mode == reading {
		return corruptErr(format, args...)
	}
	return fmt.Errorf("wire: cannot encode: "+format, args...)
}

// walk visits f's fields in wire order: the name, the sched extension when
// f carries one, then the fields f's type lists.
func (c *cursor) walk(f *Frame) error {
	if !f.Type.valid() {
		return c.envelopeErr("unknown frame type %d", uint8(f.Type))
	}
	if err := c.name(f); err != nil {
		return err
	}
	if f.HasSched {
		if !Ops[f.Type].Sched {
			return c.envelopeErr("%s frame cannot carry a sched extension", f.Type)
		}
		if err := c.sched(f); err != nil {
			return err
		}
	}
	for _, k := range Ops[f.Type].fields {
		var err error
		switch k {
		case fieldOptions:
			err = c.options(f)
		case fieldGeometry:
			err = c.geometry(f)
		case fieldData:
			err = c.data(f)
		case fieldIDs:
			err = c.ids(f)
		case fieldRuns:
			err = c.runs(f)
		}
		if err != nil {
			return err
		}
	}
	if c.mode == reading && len(c.b)+c.rest != 0 {
		return corruptErr("%s frame carries %d trailing bytes", f.Type, len(c.b)+c.rest)
	}
	return nil
}

// uvarint reads one uvarint, surfacing truncation in the frame taxonomy.
func (c *cursor) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n == 0 && c.rest > 0 {
		return 0, errShort
	}
	if n == 0 {
		return 0, truncErr("payload ends inside %s varint", what)
	}
	if n < 0 {
		return 0, corruptErr("%s varint overflows 64 bits", what)
	}
	c.b = c.b[n:]
	return v, nil
}

// short reports whether a fixed-width field of k bytes runs past the
// buffered bytes but not past the payload: the reader buffers more
// (errShort) before the field is judged.
func (c *cursor) short(k int) bool { return len(c.b) < k && len(c.b)+c.rest >= k }

// u32 reads one big-endian uint32; the caller has checked four bytes remain
// (what a missing fixed-width field reports differs by field).
func (c *cursor) u32() int {
	v := binary.BigEndian.Uint32(c.b)
	c.b = c.b[4:]
	return int(v)
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// name is the leading field of every frame: u16 length + bytes.
func (c *cursor) name(f *Frame) error {
	n := len(f.Name)
	if c.mode == reading {
		if len(c.b) < 2 {
			return truncErr("payload of %d bytes lacks name length", len(c.b)+c.rest)
		}
		n = int(binary.BigEndian.Uint16(c.b))
	}
	if n == 0 || n > MaxNameLen {
		return c.envelopeErr("name of %d bytes, want 1..%d", n, MaxNameLen)
	}
	switch c.mode {
	case sizing:
		c.n += 2 + n
	case writing:
		c.b = append(binary.BigEndian.AppendUint16(c.b, uint16(n)), f.Name...)
	case reading:
		if len(c.b) < 2+n && 2+n <= len(c.b)+c.rest {
			return errShort
		}
		if len(c.b) < 2+n {
			return corruptErr("name of %d bytes overruns payload of %d", n, len(c.b))
		}
		f.Name, c.b = string(c.b[2:2+n]), c.b[2+n:]
	}
	return nil
}

// sched is the FlagSched extension: lane byte + uvarint relative deadline.
func (c *cursor) sched(f *Frame) error {
	if c.mode == reading {
		if len(c.b) < 1 {
			return truncErr("payload ends before sched lane byte")
		}
		f.Lane, c.b = c.b[0], c.b[1:]
		var err error
		if f.DeadlineMicros, err = c.uvarint("sched deadline"); err != nil {
			return err
		}
	}
	if f.Lane > laneSpeculative {
		return c.envelopeErr("sched lane byte %d out of range", f.Lane)
	}
	switch c.mode {
	case sizing:
		c.n += 1 + uvarintLen(f.DeadlineMicros)
	case writing:
		c.b = binary.AppendUvarint(append(c.b, f.Lane), f.DeadlineMicros)
	}
	return nil
}

// options is a swap-out's two option bytes: compress flag + algorithm. The
// bytes are judged where they are read; an encoder's are the server's to
// refuse.
func (c *cursor) options(f *Frame) error {
	switch c.mode {
	case reading:
		if len(c.b) < 2 {
			// A swap-out ends with its options, so it is the wrong size; a
			// batch swap-out's ID list is yet to come, so it stops short.
			if Ops[f.Type].Pool {
				return truncErr("%s frame lacks option bytes", f.Type)
			}
			return corruptErr("%s frame carries %d option bytes, want 2", f.Type, len(c.b))
		}
		if c.b[0] > 1 {
			return corruptErr("%s compress flag %d", f.Type, c.b[0])
		}
		f.Compress, f.Alg, c.b = c.b[0] == 1, compress.Algorithm(c.b[1]), c.b[2:]
		// Auto (the zero byte) is a legal selector, not a codec: the server
		// resolves it to a concrete algorithm at swap time.
		if f.Compress && f.Alg != compress.Auto {
			if _, err := compress.New(f.Alg); err != nil {
				return corruptErr("%s algorithm byte %d", f.Type, uint8(f.Alg))
			}
		}
	case sizing:
		c.n += 2
	case writing:
		var flag byte
		if f.Compress {
			flag = 1
		}
		c.b = append(c.b, flag, byte(f.Alg))
	}
	return nil
}

// geometry is a pool's shape: u32 elements per block + u32 block count.
func (c *cursor) geometry(f *Frame) error {
	if c.mode == reading {
		if len(c.b) < 8 {
			return corruptErr("%s frame carries %d geometry bytes, want 8", f.Type, len(c.b))
		}
		f.BlockElems, f.NumBlocks = c.u32(), c.u32()
	}
	if f.BlockElems <= 0 || f.NumBlocks <= 0 || f.NumBlocks > MaxBlockID {
		return corruptErr("%s frame with %d elems/block, %d blocks (limit %d)", f.Type, f.BlockElems, f.NumBlocks, MaxBlockID)
	}
	switch c.mode {
	case sizing:
		c.n += 8
	case writing:
		c.b = binary.BigEndian.AppendUint32(c.b, uint32(f.BlockElems))
		c.b = binary.BigEndian.AppendUint32(c.b, uint32(f.NumBlocks))
	}
	return nil
}

// nativeLE reports whether this host keeps a float32 in memory the way the
// wire's float field carries it: little-endian IEEE-754. Where it does — on
// every platform cswapd ships for — tensor memory is the wire payload, and
// the float-field reader and writer move it without conversion; where it
// does not, they fall back to the portable element-by-element pair.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatReader streams data's wire encoding: data's own memory where that is
// the encoding already, the portable conversion where it is not.
func floatReader(data []float32) io.Reader {
	if nativeLE {
		return bytes.NewReader(compress.FloatBytes(data))
	}
	return &portableReader{data: data}
}

// floatChunk is how much of a float field is read, summed and (portably)
// converted at a time: small enough that the CRC pass finds the bytes the
// read just left in cache.
const floatChunk = 256 << 10

// portableReader packs float32 values little-endian a chunk at a time and
// serves reads from the chunk: the float-field writer of big-endian hosts,
// and the reference the native one is tested against.
type portableReader struct {
	data      []float32
	buf, left []byte // the conversion buffer, and the part of it not yet read
}

func (p *portableReader) Read(b []byte) (int, error) {
	if len(p.left) == 0 {
		if len(p.data) == 0 {
			return 0, io.EOF
		}
		if p.buf == nil {
			p.buf = make([]byte, min(4*len(p.data), floatChunk))
		}
		part := p.data[:min(len(p.data), len(p.buf)/4)]
		for i, v := range part {
			binary.LittleEndian.PutUint32(p.buf[4*i:], math.Float32bits(v))
		}
		p.data, p.left = p.data[len(part):], p.buf[:4*len(part)]
	}
	n := copy(b, p.left)
	p.left = p.left[n:]
	return n, nil
}

// readFloats fills data with its wire encoding: pre, the part of it a reader
// has already buffered, copied in first, then the rest read from r straight
// into data's memory, and returns the encoding's CRC, folded chunk by chunk.
// Where that memory is not the wire encoding, each chunk is then converted
// where it lies — the portable float-field reader, and the native one's test
// reference.
func readFloats(pre []byte, r io.Reader, data []float32) (crc uint32, err error) {
	b := compress.FloatBytes(data)
	have := copy(b, pre)
	for off := 0; off < len(b); {
		end := min(len(b), off+floatChunk)
		if have < end {
			if err := readFull(r, b[have:end], "payload"); err != nil {
				return crc, err
			}
			have = end
		}
		crc = crc32.Update(crc, crc32.IEEETable, b[off:end])
		if !nativeLE {
			for i := off / 4; i < end/4; i++ {
				data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
			}
		}
		off = end
	}
	return crc, nil
}

// floats consumes the rest of the payload as exactly elems little-endian
// float32 values: the buffered bytes first, then the stream, into c.dst when
// it is large enough, and records their CRC. It is where a streamed
// payload's CRC verdict falls — after the last byte, so the destination's
// content is unspecified on error.
func (c *cursor) floats(f *Frame, elems int) error {
	if len(c.b)+c.rest != 4*elems {
		return corruptErr("%s frame claims %d elements but carries %d bytes", f.Type, elems, len(c.b)+c.rest)
	}
	data := c.dst
	if elems > len(data) {
		data = make([]float32, elems)
	}
	data = data[:elems]
	parsed := c.buf[:len(c.buf)-len(c.b)]
	dataCRC, err := readFloats(c.b, c.r, data)
	if err != nil {
		return err
	}
	if crc := crcCombine(crc32.ChecksumIEEE(parsed), dataCRC, 4*int64(elems)); crc != c.sum {
		return corruptErr("payload CRC %#x, header says %#x", crc, c.sum)
	}
	f.Data, f.DataCRC, f.HasDataCRC, c.b, c.rest = data, dataCRC, true, nil, 0
	return nil
}

// data is a counted tensor payload: u32 element count + float32s. It is
// always a frame's last field.
func (c *cursor) data(f *Frame) error {
	switch c.mode {
	case sizing:
		c.n += 4 + 4*c.elems
	case writing:
		c.b = binary.BigEndian.AppendUint32(c.b, uint32(c.elems))
	case reading:
		if c.short(4) {
			return errShort
		}
		if len(c.b) < 4 {
			return corruptErr("%s frame lacks element count", f.Type)
		}
		return c.floats(f, c.u32())
	}
	return nil
}

// blockID refuses a block ID outside [0, MaxBlockID). Negative ints arrive
// here as huge unsigned values.
func blockID(t Type, id uint64) error {
	if id >= MaxBlockID {
		return corruptErr("%s frame block ID %d out of range", t, int64(id))
	}
	return nil
}

// ids is a block-ID list: uvarint count + one uvarint per ID.
func (c *cursor) ids(f *Frame) error {
	count := uint64(len(f.BlockIDs))
	if c.mode == reading {
		var err error
		if count, err = c.uvarint("block-ID count"); err != nil {
			return err
		}
		// Each ID takes at least one byte, so a count past the remaining
		// payload is structurally a lie — refused before allocating.
		if count > uint64(len(c.b)) {
			return corruptErr("%s frame claims %d block IDs but carries %d bytes", f.Type, count, len(c.b))
		}
	}
	if count > MaxBatchBlocks {
		return corruptErr("%s frame with %d block IDs exceeds limit %d", f.Type, count, MaxBatchBlocks)
	}
	switch c.mode {
	case sizing:
		c.n += uvarintLen(count)
		for _, id := range f.BlockIDs {
			if err := blockID(f.Type, uint64(id)); err != nil {
				return err
			}
			c.n += uvarintLen(uint64(id))
		}
	case writing:
		c.b = binary.AppendUvarint(c.b, count)
		for _, id := range f.BlockIDs {
			c.b = binary.AppendUvarint(c.b, uint64(id))
		}
	case reading:
		f.BlockIDs = make([]int, count)
		for i := range f.BlockIDs {
			id, err := c.uvarint("block ID")
			if err == nil {
				err = blockID(f.Type, id)
			}
			if err != nil {
				return err
			}
			f.BlockIDs[i] = int(id)
		}
	}
	return nil
}

// runTable checks a run table as it streams by, in either direction: every
// run non-empty and in range, the table sorted and disjoint. blocks is the
// running total; end is one past the last block seen.
type runTable struct{ blocks, end uint64 }

func (rt *runTable) add(start, count uint64) error {
	if count == 0 || start >= MaxBlockID || count > MaxBlockID || start+count > MaxBlockID {
		return corruptErr("batch-data run [%d,+%d) out of range", int64(start), int64(count))
	}
	if start < rt.end {
		return corruptErr("batch-data run table not sorted and disjoint at start %d", start)
	}
	rt.blocks, rt.end = rt.blocks+count, start+count
	return nil
}

// runs is the batch-data body: u32 elements per block, the canonical run
// table, and the runs' blocks as packed float32s. The table and the data
// must agree exactly: a table that promises more (or fewer) blocks than
// the data shipped is structural damage, not a short read.
func (c *cursor) runs(f *Frame) error {
	count := uint64(len(f.Runs))
	if c.mode == reading {
		if c.short(4) {
			return errShort
		}
		if len(c.b) < 4 {
			return truncErr("batch-data frame lacks block-elems field")
		}
		f.BlockElems = c.u32()
		var err error
		if count, err = c.uvarint("run count"); err != nil {
			return err
		}
		// Each run takes at least two bytes: a count past that is a lie.
		if count > uint64(len(c.b)+c.rest)/2 {
			return corruptErr("batch-data frame claims %d runs but carries %d bytes", count, len(c.b)+c.rest)
		}
	}
	if f.BlockElems <= 0 {
		return corruptErr("batch-data frame with %d elems/block", f.BlockElems)
	}
	// A run covers at least one block, so the block cap bounds the table too
	// — checked before the table is allocated: a run entry in memory is
	// eight times its smallest encoding.
	if count > MaxBatchBlocks {
		return corruptErr("batch-data frame with %d runs exceeds limit %d", count, MaxBatchBlocks)
	}
	var rt runTable
	switch c.mode {
	case sizing:
		c.n += 4 + uvarintLen(count) + 4*c.elems
		for _, r := range f.Runs {
			if err := rt.add(uint64(r.Start), uint64(r.Count)); err != nil {
				return err
			}
			c.n += uvarintLen(uint64(r.Start)) + uvarintLen(uint64(r.Count))
		}
	case writing:
		c.b = binary.AppendUvarint(binary.BigEndian.AppendUint32(c.b, uint32(f.BlockElems)), count)
		for _, r := range f.Runs {
			c.b = binary.AppendUvarint(binary.AppendUvarint(c.b, uint64(r.Start)), uint64(r.Count))
		}
		return nil
	case reading:
		f.Runs = make([]BlockRun, count)
		for i := range f.Runs {
			start, err := c.uvarint("run start")
			if err != nil {
				return err
			}
			n, err := c.uvarint("run length")
			if err == nil {
				err = rt.add(start, n)
			}
			if err != nil {
				return err
			}
			f.Runs[i] = BlockRun{Start: int(start), Count: int(n)}
		}
	}
	if rt.blocks > MaxBatchBlocks {
		return corruptErr("batch-data frame with %d blocks exceeds limit %d", rt.blocks, MaxBatchBlocks)
	}
	elems := int(rt.blocks) * f.BlockElems
	if c.mode == reading {
		return c.floats(f, elems)
	}
	if elems != c.elems {
		return corruptErr("batch-data run table covers %d elements but frame carries %d", elems, c.elems)
	}
	return nil
}

// hasFloats reports whether the frame type ends in a float field.
func (t Type) hasFloats() bool {
	return t.valid() && (slices.Contains(Ops[t].fields, fieldData) || slices.Contains(Ops[t].fields, fieldRuns))
}

// Encoding is a frame ready to stream: the header and every field before the
// float field encoded, the payload CRC taken, and the float field itself
// still where its owner keeps it — on a little-endian host that memory is
// the wire's bytes, and it goes to the writer without staging or conversion.
// The owner must not change it until the last byte is written.
type Encoding struct {
	head []byte
	segs [][]float32
	one  [1][]float32 // segs when the float field is f.Data, in one piece
	n    int64        // the whole encoding's size in bytes
}

// Prepare validates f, encodes all of it but the float field onto head[:0]
// and takes the payload CRC. head is a buffer to reuse, or nil: one too
// short is outgrown, and one given must not be touched again until the
// encoding has been written. segs, when given, is the float field in pieces
// (a pool's runs, each in place) and stands in for f.Data. When f carries
// the float field's recorded CRC (HasDataCRC) the field is not read: its CRC
// is combined with that of the bytes before it. Otherwise Prepare makes the
// one CRC pass over the whole payload.
func Prepare(head []byte, f *Frame, segs ...[]float32) (*Encoding, error) {
	e := new(Encoding)
	if !f.Type.hasFloats() {
		segs = nil
	} else if len(segs) == 0 {
		e.one[0] = f.Data
		segs = e.one[:]
	}
	elems := 0
	for _, seg := range segs {
		elems += len(seg)
	}
	c := cursor{mode: sizing, elems: elems}
	if err := c.walk(f); err != nil {
		return nil, err
	}
	plen := c.n
	var flags uint16
	if f.HasSched {
		flags |= FlagSched
	}
	head = slices.Grow(head[:0], HeaderLen+plen-4*elems)
	head = append(head, magic[:]...)
	head = append(head, Version, byte(f.Type))
	head = binary.BigEndian.AppendUint16(head, flags)
	head = binary.BigEndian.AppendUint32(head, uint32(plen))
	head = append(head, 0, 0, 0, 0) // CRC placeholder
	c = cursor{mode: writing, b: head, elems: elems}
	_ = c.walk(f)
	e.head, e.segs, e.n = c.b, segs, int64(HeaderLen+plen)
	sum := crc32.ChecksumIEEE(e.head[HeaderLen:])
	if f.HasDataCRC && segs != nil {
		sum = crcCombine(sum, f.DataCRC, 4*int64(elems))
	} else {
		for _, seg := range segs {
			sum = floatsCRC(sum, seg)
		}
	}
	binary.BigEndian.PutUint32(e.head[12:16], sum)
	return e, nil
}

// floatsCRC folds data's wire encoding into the CRC-32 (IEEE) crc: data's
// own memory where that is the encoding already, the portable conversion
// where it is not.
func floatsCRC(crc uint32, data []float32) uint32 {
	if nativeLE {
		return crc32.Update(crc, crc32.IEEETable, compress.FloatBytes(data))
	}
	sum := crcSum(crc)
	_, _ = io.Copy(&sum, &portableReader{data: data})
	return uint32(sum)
}

// crcSum is a running CRC-32 (IEEE) of what is written to it.
type crcSum uint32

func (c *crcSum) Write(p []byte) (int, error) {
	*c = crcSum(crc32.Update(uint32(*c), crc32.IEEETable, p))
	return len(p), nil
}

// Len is the encoding's size in bytes.
func (e *Encoding) Len() int64 { return e.n }

// Reader returns a fresh reader over the whole encoding (a request body; one
// per attempt).
func (e *Encoding) Reader() io.Reader {
	if len(e.segs) == 0 {
		return bytes.NewReader(e.head)
	}
	rs := make([]io.Reader, 1, 1+len(e.segs))
	rs[0] = bytes.NewReader(e.head)
	for _, seg := range e.segs {
		rs = append(rs, floatReader(seg))
	}
	return io.MultiReader(rs...)
}

// WriteTo streams the encoding to w: the head, then each piece of the float
// field in one Write from where it lives — where that memory is not the
// wire encoding, through the portable conversion. (Not io.Copy from Reader:
// a MultiReader's WriteTo allocates a 32 KiB buffer it would never use.)
func (e *Encoding) WriteTo(w io.Writer) (int64, error) {
	k, err := w.Write(e.head)
	n := int64(k)
	for i := 0; err == nil && i < len(e.segs); i++ {
		if nativeLE {
			k, err = w.Write(compress.FloatBytes(e.segs[i]))
			n += int64(k)
		} else {
			var m int64
			m, err = io.Copy(w, &portableReader{data: e.segs[i]})
			n += m
		}
	}
	return n, err
}

// appender is the io.Writer over a byte slice that Append streams into. It
// grows by append, which — unlike a pre-sized buffer — never zeroes bytes
// the copy is about to overwrite.
type appender []byte

func (a *appender) Write(p []byte) (int, error) {
	*a = append(*a, p...)
	return len(p), nil
}

// Append encodes f onto dst and returns the extended slice.
func Append(dst []byte, f *Frame) ([]byte, error) {
	e, err := Prepare(nil, f)
	if err != nil {
		return dst, err
	}
	_, _ = e.WriteTo((*appender)(&dst))
	return dst, nil
}

// Encode returns f's wire encoding.
func Encode(f *Frame) ([]byte, error) {
	return Append(nil, f)
}

// header is a validated frame header.
type header struct {
	typ   Type
	flags uint16
	plen  uint32
	crc   uint32
}

// parseHeader validates a complete 16-byte header. maxPayload of zero
// selects DefaultMaxPayload.
func parseHeader(h []byte, maxPayload uint32) (header, error) {
	if maxPayload == 0 {
		maxPayload = DefaultMaxPayload
	}
	if [4]byte(h[0:4]) != magic {
		return header{}, corruptErr("bad magic %q", h[0:4])
	}
	if h[4] != Version {
		return header{}, corruptErr("unsupported version %d", h[4])
	}
	hd := header{
		typ:   Type(h[5]),
		flags: binary.BigEndian.Uint16(h[6:8]),
		plen:  binary.BigEndian.Uint32(h[8:12]),
		crc:   binary.BigEndian.Uint32(h[12:16]),
	}
	if !hd.typ.valid() {
		return header{}, corruptErr("unknown frame type %d", h[5])
	}
	if hd.flags&^FlagSched != 0 {
		return header{}, corruptErr("unknown flags %#x", hd.flags)
	}
	if hd.plen > maxPayload {
		return header{}, fmt.Errorf("%w: %d bytes, cap %d", ErrTooLarge, hd.plen, maxPayload)
	}
	return hd, nil
}

// PeekLen is how many leading bytes of a frame hold everything before a
// float field or a run table: the header, the longest name, an element count
// (or block size) and a run count.
const PeekLen = HeaderLen + 2 + MaxNameLen + 4 + binary.MaxVarintLen64

// firstRead is how much of the payload of a frame with a float field
// ReadInto buffers at first: enough for a short name, the count fields and a
// few runs — a decode step's batch-data answer. A longer prefix doubles the
// buffer until it fits: each field such a frame carries before its float
// field (name, element count, run table) reports errShort when it runs past
// the buffered bytes but not past the payload.
const firstRead = 64

// Decode parses exactly one frame from b, refusing trailing bytes.
// maxPayload of zero selects DefaultMaxPayload.
func Decode(b []byte, maxPayload uint32) (*Frame, error) {
	r := bytes.NewReader(b)
	f, err := Read(r, maxPayload)
	if err == nil && r.Len() != 0 {
		return nil, corruptErr("%d trailing bytes after payload", r.Len())
	}
	return f, err
}

// Read parses one frame from a stream, allocating its float field.
func Read(r io.Reader, maxPayload uint32) (*Frame, error) {
	return ReadInto(r, maxPayload, nil)
}

// ReadInto parses one frame from a stream: the fixed header first (so a
// hostile length prefix is rejected before any payload allocation), then
// the fields before the float field from a small buffer, then the float
// field — the part of it the buffer already holds, then the rest from r
// directly — into dst, or into a fresh slice when dst is too short for it,
// with its own CRC folded chunk by chunk, combined with the prefix's for the
// header check and recorded on the frame (DataCRC), so the frame prepared
// again needs no pass over the field. Every inner length is checked against
// the payload bounds and trailing bytes are refused, so corruption the CRC
// happened to miss still cannot decode; but the CRC's own verdict comes
// after the last byte, so dst's content is unspecified on any error. An EOF
// mid-frame surfaces as compress.ErrTruncated.
func ReadInto(r io.Reader, maxPayload uint32, dst []float32) (*Frame, error) {
	var h [HeaderLen]byte
	if err := readFull(r, h[:], "header"); err != nil {
		return nil, err
	}
	hd, err := parseHeader(h[:], maxPayload)
	if err != nil {
		return nil, err
	}
	// Control frames are buffered whole. Of a frame with a float field only
	// what precedes it is: firstRead bytes, doubled while a field before the
	// float field runs past them (errShort).
	n := int(hd.plen)
	if hd.typ.hasFloats() {
		n = min(n, firstRead)
	}
	buf := make([]byte, n)
	f := new(Frame)
	for {
		if err := readFull(r, buf[len(buf)-n:], "payload"); err != nil {
			return nil, err
		}
		*f = Frame{Type: hd.typ, HasSched: hd.flags&FlagSched != 0}
		c := cursor{mode: reading, b: buf, buf: buf, rest: int(hd.plen) - len(buf),
			r: r, dst: dst, sum: hd.crc}
		// A payload buffered whole is judged before it is parsed.
		if c.rest == 0 && crc32.ChecksumIEEE(buf) != hd.crc {
			return nil, corruptErr("payload CRC is not the header's %#x", hd.crc)
		}
		switch err := c.walk(f); err {
		case nil:
			return f, nil
		default:
			return nil, err
		case errShort:
			n = min(c.rest, len(buf))
			buf = append(buf, make([]byte, n)...)
		}
	}
}

// readFull fills p from r, mapping a short stream onto the taxonomy.
func readFull(r io.Reader, p []byte, what string) error {
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return truncErr("stream ended inside %s", what)
		}
		return fmt.Errorf("wire: read %s: %w", what, err)
	}
	return nil
}

// PeekName extracts the frame type and name from a frame's first bytes — b
// holds PeekLen of them, or the whole frame when that is shorter — without
// reading the rest of the payload or checking its CRC: the cluster router's
// fast path. Routing only needs the placement key; full validation (CRC,
// inner lengths, data decode) happens once, in the shard that serves the
// request. The header and the name bounds are still checked here, so a
// hostile frame is refused in O(header) and cannot make the router slice
// out of range.
func PeekName(b []byte, maxPayload uint32) (Type, string, error) {
	if len(b) < HeaderLen {
		return 0, "", truncErr("%d bytes, need %d-byte header", len(b), HeaderLen)
	}
	hd, err := parseHeader(b[:HeaderLen], maxPayload)
	if err != nil {
		return 0, "", err
	}
	body := b[HeaderLen:]
	body = body[:min(len(body), int(hd.plen))]
	f := Frame{Type: hd.typ}
	c := cursor{mode: reading, b: body, rest: int(hd.plen) - len(body)}
	if err := c.name(&f); err != nil {
		return 0, "", err
	}
	return hd.typ, f.Name, nil
}

// Equal reports whether two frames are semantically identical — the
// round-trip invariant the fuzzer pins (float payloads compare by bit
// pattern, so NaNs round-trip like any other tensor value). The recorded
// float-field CRC is derived and not compared.
func Equal(a, b *Frame) bool {
	return a.Type == b.Type && a.Name == b.Name && a.Compress == b.Compress && a.Alg == b.Alg &&
		a.HasSched == b.HasSched && a.Lane == b.Lane && a.DeadlineMicros == b.DeadlineMicros &&
		a.BlockElems == b.BlockElems && a.NumBlocks == b.NumBlocks &&
		slices.Equal(a.BlockIDs, b.BlockIDs) && slices.Equal(a.Runs, b.Runs) &&
		slices.EqualFunc(a.Data, b.Data, func(x, y float32) bool {
			return math.Float32bits(x) == math.Float32bits(y)
		})
}
