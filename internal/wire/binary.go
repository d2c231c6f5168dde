package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/types"
)

// The binary payload encoding ("wire protocol v2"). Layout discipline
// follows types.EncodeTuple: every message's encoded size is computed
// exactly before encoding, so one frame is one grow (≤1 allocation) and
// the length prefix is written without buffering the payload separately.
//
// Integers are varints (uvarint for IDs/counts, zig-zag varint for
// signed fields), strings and byte blobs are length-prefixed, tuples use
// the types package's self-describing value encoding — the same bytes the
// WAL writes. Optional response sections are gated by a flags byte.
//
// Request payload:
//
//	u8      opcode
//	uvarint id
//	uvarint handle
//	uvarint session
//	uvarint idem
//	string  sql
//	string  codec
//	string  client
//	[uvarint trace]  — present only when Trace != 0; decoders read it iff
//	                   payload bytes remain, so a traceless frame is
//	                   byte-identical to the PR 6 encoding
//
// Response payload:
//
//	uvarint id
//	u8      flags (bit0 OK, bit1 Done, bit2 Result, bit3 Outcome,
//	               bit4 Stats, bit5 Tables, bit6 Trace)
//	varint  version
//	uvarint handle
//	uvarint session
//	string  error
//	string  err_code
//	string  codec
//	[Result]  uvarint ncols, ncols×string; uvarint nrows, nrows×tuple;
//	          varint rows_affected
//	[Outcome] string status; string error; string err_code; varint attempts
//	[Stats]   bytes (raw JSON, opaque to the codec)
//	[Tables]  uvarint n, n×(string name; string schema; varint rows)
//	[Trace]   uvarint trace id
//
// Decoding is strict: unknown opcodes, truncated fields, element counts
// exceeding the remaining payload (rejected before allocating), and
// trailing garbage are all errors. The fuzz wall in binary_fuzz_test.go
// holds the decoder to "never panic, never over-allocate".

// Binary opcodes, one per Op* string.
const (
	opcodePing         = 1
	opcodeExec         = 2
	opcodeDDL          = 3
	opcodeSubmit       = 4
	opcodeWait         = 5
	opcodePoll         = 6
	opcodeSessionOpen  = 7
	opcodeSessionExec  = 8
	opcodeSessionClose = 9
	// 10 was the retired stats frame; never reuse it.
	opcodeTables       = 11
	opcodeHello        = 12
	opcodeMetrics      = 13
	opcodeTrace        = 14
	opcodePlacement    = 15
	opcodeShardOffer   = 16
	opcodeShardPrepare = 17
	opcodeShardVote    = 18
	opcodeShardDecide  = 19
	opcodeShardStatus  = 20
)

func opcodeOf(op string) (byte, bool) {
	switch op {
	case OpPing:
		return opcodePing, true
	case OpExec:
		return opcodeExec, true
	case OpDDL:
		return opcodeDDL, true
	case OpSubmit:
		return opcodeSubmit, true
	case OpWait:
		return opcodeWait, true
	case OpPoll:
		return opcodePoll, true
	case OpSessionOpen:
		return opcodeSessionOpen, true
	case OpSessionExec:
		return opcodeSessionExec, true
	case OpSessionClose:
		return opcodeSessionClose, true
	case OpTables:
		return opcodeTables, true
	case OpHello:
		return opcodeHello, true
	case OpMetrics:
		return opcodeMetrics, true
	case OpTrace:
		return opcodeTrace, true
	case OpPlacement:
		return opcodePlacement, true
	case OpShardOffer:
		return opcodeShardOffer, true
	case OpShardPrepare:
		return opcodeShardPrepare, true
	case OpShardVote:
		return opcodeShardVote, true
	case OpShardDecide:
		return opcodeShardDecide, true
	case OpShardStatus:
		return opcodeShardStatus, true
	}
	return 0, false
}

func opOf(code byte) (string, bool) {
	switch code {
	case opcodePing:
		return OpPing, true
	case opcodeExec:
		return OpExec, true
	case opcodeDDL:
		return OpDDL, true
	case opcodeSubmit:
		return OpSubmit, true
	case opcodeWait:
		return OpWait, true
	case opcodePoll:
		return OpPoll, true
	case opcodeSessionOpen:
		return OpSessionOpen, true
	case opcodeSessionExec:
		return OpSessionExec, true
	case opcodeSessionClose:
		return OpSessionClose, true
	case opcodeTables:
		return OpTables, true
	case opcodeHello:
		return OpHello, true
	case opcodeMetrics:
		return OpMetrics, true
	case opcodeTrace:
		return OpTrace, true
	case opcodePlacement:
		return OpPlacement, true
	case opcodeShardOffer:
		return OpShardOffer, true
	case opcodeShardPrepare:
		return OpShardPrepare, true
	case opcodeShardVote:
		return OpShardVote, true
	case opcodeShardDecide:
		return OpShardDecide, true
	case opcodeShardStatus:
		return OpShardStatus, true
	}
	return "", false
}

// Response flag bits.
const (
	respFlagOK      = 1 << 0
	respFlagDone    = 1 << 1
	respFlagResult  = 1 << 2
	respFlagOutcome = 1 << 3
	respFlagStats   = 1 << 4
	respFlagTables  = 1 << 5
	respFlagTrace   = 1 << 6
)

// --- sizes ---------------------------------------------------------------

func uvlen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func vlen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvlen(ux)
}

func strSize(s string) int { return uvlen(uint64(len(s))) + len(s) }

func binaryRequestSize(r *Request) int {
	n := 1 + uvlen(r.ID) + uvlen(r.Handle) + uvlen(r.Session) +
		uvlen(r.Idem) + strSize(r.SQL) + strSize(r.Codec) + strSize(r.Client)
	if r.Trace != 0 {
		n += uvlen(r.Trace)
	}
	return n
}

func binaryResultSize(res *Result) int {
	n := uvlen(uint64(len(res.Columns)))
	for _, c := range res.Columns {
		n += strSize(c)
	}
	n += uvlen(uint64(len(res.Rows)))
	for _, t := range res.Rows {
		n += t.EncodedSize()
	}
	return n + vlen(int64(res.RowsAffected))
}

func binaryResponseSize(r *Response) int {
	n := uvlen(r.ID) + 1 + vlen(int64(r.Version)) + uvlen(r.Handle) +
		uvlen(r.Session) + strSize(r.Error) + strSize(r.ErrCode) + strSize(r.Codec)
	if r.Result != nil {
		n += binaryResultSize(r.Result)
	}
	if r.Outcome != nil {
		o := r.Outcome
		n += strSize(o.Status) + strSize(o.Error) + strSize(o.ErrCode) + vlen(int64(o.Attempts))
	}
	if len(r.Stats) > 0 {
		n += uvlen(uint64(len(r.Stats))) + len(r.Stats)
	}
	if len(r.Tables) > 0 {
		n += uvlen(uint64(len(r.Tables)))
		for _, t := range r.Tables {
			n += strSize(t.Name) + strSize(t.Schema) + vlen(int64(t.Rows))
		}
	}
	if r.Trace != 0 {
		n += uvlen(r.Trace)
	}
	return n
}

// --- encode --------------------------------------------------------------

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

type binaryCodec struct{}

func (binaryCodec) Name() string { return CodecBinary }

func (binaryCodec) AppendRequestFrame(buf []byte, req *Request) ([]byte, error) {
	opcode, ok := opcodeOf(req.Op)
	if !ok {
		return buf, fmt.Errorf("%w: unknown op %q", ErrEncode, req.Op)
	}
	size := binaryRequestSize(req)
	if size > MaxFrameSize {
		return buf, ErrFrameTooLarge
	}
	out := grow(buf, headerSize+size)
	out = appendUint32(out, uint32(size))
	out = append(out, opcode)
	out = binary.AppendUvarint(out, req.ID)
	out = binary.AppendUvarint(out, req.Handle)
	out = binary.AppendUvarint(out, req.Session)
	out = binary.AppendUvarint(out, req.Idem)
	out = appendStr(out, req.SQL)
	out = appendStr(out, req.Codec)
	out = appendStr(out, req.Client)
	if req.Trace != 0 {
		out = binary.AppendUvarint(out, req.Trace)
	}
	return out, nil
}

func (binaryCodec) AppendResponseFrame(buf []byte, resp *Response) ([]byte, error) {
	size := binaryResponseSize(resp)
	if size > MaxFrameSize {
		return buf, ErrFrameTooLarge
	}
	var flags byte
	if resp.OK {
		flags |= respFlagOK
	}
	if resp.Done {
		flags |= respFlagDone
	}
	if resp.Result != nil {
		flags |= respFlagResult
	}
	if resp.Outcome != nil {
		flags |= respFlagOutcome
	}
	if len(resp.Stats) > 0 {
		flags |= respFlagStats
	}
	if len(resp.Tables) > 0 {
		flags |= respFlagTables
	}
	if resp.Trace != 0 {
		flags |= respFlagTrace
	}
	out := grow(buf, headerSize+size)
	out = appendUint32(out, uint32(size))
	out = binary.AppendUvarint(out, resp.ID)
	out = append(out, flags)
	out = binary.AppendVarint(out, int64(resp.Version))
	out = binary.AppendUvarint(out, resp.Handle)
	out = binary.AppendUvarint(out, resp.Session)
	out = appendStr(out, resp.Error)
	out = appendStr(out, resp.ErrCode)
	out = appendStr(out, resp.Codec)
	if resp.Result != nil {
		res := resp.Result
		out = binary.AppendUvarint(out, uint64(len(res.Columns)))
		for _, c := range res.Columns {
			out = appendStr(out, c)
		}
		out = binary.AppendUvarint(out, uint64(len(res.Rows)))
		for _, t := range res.Rows {
			out = types.EncodeTuple(out, t)
		}
		out = binary.AppendVarint(out, int64(res.RowsAffected))
	}
	if resp.Outcome != nil {
		o := resp.Outcome
		out = appendStr(out, o.Status)
		out = appendStr(out, o.Error)
		out = appendStr(out, o.ErrCode)
		out = binary.AppendVarint(out, int64(o.Attempts))
	}
	if len(resp.Stats) > 0 {
		out = binary.AppendUvarint(out, uint64(len(resp.Stats)))
		out = append(out, resp.Stats...)
	}
	if len(resp.Tables) > 0 {
		out = binary.AppendUvarint(out, uint64(len(resp.Tables)))
		for _, t := range resp.Tables {
			out = appendStr(out, t.Name)
			out = appendStr(out, t.Schema)
			out = binary.AppendVarint(out, int64(t.Rows))
		}
	}
	if resp.Trace != 0 {
		out = binary.AppendUvarint(out, resp.Trace)
	}
	return out, nil
}

// --- decode --------------------------------------------------------------

// breader is a bounds-checked payload reader. The first failure sticks;
// every accessor after it returns a zero value, so decode functions read
// straight through and check err once.
type breader struct {
	buf []byte
	pos int
	err error
}

func (r *breader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: binary decode: "+format, args...)
	}
}

func (r *breader) remaining() int { return len(r.buf) - r.pos }

func (r *breader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail("truncated byte")
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *breader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.pos += n
	return v
}

func (r *breader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.pos += n
	return v
}

func (r *breader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(r.remaining()) {
		r.fail("string length %d exceeds remaining %d bytes", n, r.remaining())
		return ""
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

// raw reads a length-prefixed byte blob (copied out of the frame buffer).
func (r *breader) raw() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.fail("blob length %d exceeds remaining %d bytes", n, r.remaining())
		return nil
	}
	b := append([]byte(nil), r.buf[r.pos:r.pos+int(n)]...)
	r.pos += int(n)
	return b
}

// count reads an element count and rejects counts that cannot fit in the
// remaining payload (every element is at least one byte), so a lying
// count cannot trigger a huge allocation.
func (r *breader) count(what string) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()) {
		r.fail("%s count %d exceeds remaining %d bytes", what, n, r.remaining())
		return 0
	}
	return int(n)
}

func (r *breader) tuple() types.Tuple {
	if r.err != nil {
		return nil
	}
	t, n, err := types.DecodeTuple(r.buf[r.pos:])
	if err != nil {
		r.fail("tuple: %v", err)
		return nil
	}
	r.pos += n
	return t
}

// done returns the sticky error, or a trailing-garbage error if the
// payload was not fully consumed.
func (r *breader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("wire: binary decode: %d trailing bytes", len(r.buf)-r.pos)
	}
	return nil
}

func (binaryCodec) DecodeRequest(payload []byte, req *Request) error {
	r := breader{buf: payload}
	opcode := r.u8()
	op, known := opOf(opcode)
	if r.err == nil && !known {
		r.fail("unknown opcode %d", opcode)
	}
	req.Op = op
	req.ID = r.uvarint()
	req.Handle = r.uvarint()
	req.Session = r.uvarint()
	req.Idem = r.uvarint()
	req.SQL = r.str()
	req.Codec = r.str()
	req.Client = r.str()
	// Optional trailing trace id: a PR 6 encoder simply never writes it,
	// and "read iff bytes remain" keeps the strict no-trailing-garbage
	// rule intact — anything after the trace uvarint still fails done().
	req.Trace = 0
	if r.err == nil && r.remaining() > 0 {
		req.Trace = r.uvarint()
	}
	return r.done()
}

func (binaryCodec) DecodeResponse(payload []byte, resp *Response) error {
	r := breader{buf: payload}
	resp.ID = r.uvarint()
	flags := r.u8()
	resp.OK = flags&respFlagOK != 0
	resp.Done = flags&respFlagDone != 0
	resp.Version = int(r.varint())
	resp.Handle = r.uvarint()
	resp.Session = r.uvarint()
	resp.Error = r.str()
	resp.ErrCode = r.str()
	resp.Codec = r.str()
	resp.Result = nil
	resp.Outcome = nil
	resp.Stats = nil
	resp.Tables = nil
	if flags&respFlagResult != 0 {
		res := &Result{}
		if n := r.count("column"); n > 0 {
			res.Columns = make([]string, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				res.Columns = append(res.Columns, r.str())
			}
		}
		if n := r.count("row"); n > 0 {
			res.Rows = make([]types.Tuple, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				res.Rows = append(res.Rows, r.tuple())
			}
		}
		res.RowsAffected = int(r.varint())
		resp.Result = res
	}
	if flags&respFlagOutcome != 0 {
		o := &Outcome{}
		o.Status = r.str()
		o.Error = r.str()
		o.ErrCode = r.str()
		o.Attempts = int(r.varint())
		resp.Outcome = o
	}
	if flags&respFlagStats != 0 {
		resp.Stats = json.RawMessage(r.raw())
	}
	if flags&respFlagTables != 0 {
		if n := r.count("table"); n > 0 {
			resp.Tables = make([]TableInfo, 0, n)
			for i := 0; i < n && r.err == nil; i++ {
				var t TableInfo
				t.Name = r.str()
				t.Schema = r.str()
				t.Rows = int(r.varint())
				resp.Tables = append(resp.Tables, t)
			}
		}
	}
	resp.Trace = 0
	if flags&respFlagTrace != 0 {
		resp.Trace = r.uvarint()
	}
	return r.done()
}
