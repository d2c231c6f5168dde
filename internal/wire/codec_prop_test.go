package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/types"
)

// Cross-codec property: for every wire message, the binary codec and the
// JSON codec decode to the same struct. The JSON path is the v1 protocol
// that every remote test already exercises end to end, so it acts as the
// oracle; the binary path must be observationally identical, including
// the err_code sentinel mapping that errors.Is depends on.

// genValue draws one types.Value covering every kind, with zero/empty and
// extreme edge cases. Dates stay within years JSON can round-trip (the
// JSON codec ships dates in display form).
func genValue(rng *rand.Rand) types.Value {
	switch rng.Intn(12) {
	case 0:
		return types.Null()
	case 1:
		return types.Int(0)
	case 2:
		return types.Int(math.MaxInt64)
	case 3:
		return types.Int(math.MinInt64)
	case 4:
		return types.Int(rng.Int63() - rng.Int63())
	case 5:
		return types.Str("")
	case 6:
		return types.Str("héllo – 世界 \x00\n\"")
	case 7:
		return types.Str(randString(rng, rng.Intn(40)))
	case 8:
		return types.Bool(true)
	case 9:
		return types.Bool(false)
	case 10:
		return types.Date(int64(rng.Intn(80000) - 20000)) // ~1915..2189
	default:
		return types.Date(0)
	}
}

// alphabet is drawn per rune so generated strings are valid UTF-8: the
// JSON oracle cannot carry invalid UTF-8 (encoding/json substitutes
// U+FFFD), and the protocol never does — SQL text and error strings are
// Go strings. Control bytes, quotes, and multibyte runes all appear.
var alphabet = []rune("abcdefghijklmnopqrstuvwxyzABC =',;\"\\{}[]\x00\n\x7fé世–")

func randString(rng *rand.Rand, n int) string {
	b := make([]rune, 0, n)
	for i := 0; i < n; i++ {
		b = append(b, alphabet[rng.Intn(len(alphabet))])
	}
	return string(b)
}

func genTuple(rng *rand.Rand) types.Tuple {
	t := make(types.Tuple, 0, rng.Intn(5))
	for i := 0; i < cap(t); i++ {
		t = append(t, genValue(rng))
	}
	return t
}

var allOps = []string{
	OpPing, OpExec, OpDDL, OpSubmit, OpWait, OpPoll,
	OpSessionOpen, OpSessionExec, OpSessionClose, OpTables, OpHello,
	OpMetrics, OpTrace,
}

var allErrCodes = []string{
	"", ErrCodeTimeout, ErrCodeEngineClosed, ErrCodeRolledBack, ErrCodeDraining,
	ErrCodeOverloaded,
}

func genRequest(rng *rand.Rand) Request {
	return Request{
		ID:      rng.Uint64() >> uint(rng.Intn(64)),
		Op:      allOps[rng.Intn(len(allOps))],
		SQL:     randString(rng, rng.Intn(60)),
		Handle:  rng.Uint64() >> uint(rng.Intn(64)),
		Session: rng.Uint64() >> uint(rng.Intn(64)),
		Codec:   []string{"", CodecJSON, CodecBinary}[rng.Intn(3)],
		Idem:    rng.Uint64() >> uint(rng.Intn(64)),
		Client:  []string{"", randString(rng, 1+rng.Intn(16))}[rng.Intn(2)],
		Trace:   []uint64{0, rng.Uint64() >> uint(rng.Intn(64))}[rng.Intn(2)],
	}
}

func genResult(rng *rand.Rand) *Result {
	res := &Result{RowsAffected: rng.Intn(100) - 10}
	for i := rng.Intn(4); i > 0; i-- {
		res.Columns = append(res.Columns, randString(rng, rng.Intn(12)))
	}
	for i := rng.Intn(5); i > 0; i-- {
		res.Rows = append(res.Rows, genTuple(rng))
	}
	return res
}

func genResponse(rng *rand.Rand) Response {
	resp := Response{
		ID:      rng.Uint64() >> uint(rng.Intn(64)),
		OK:      rng.Intn(2) == 0,
		Error:   randString(rng, rng.Intn(30)),
		ErrCode: allErrCodes[rng.Intn(len(allErrCodes))],
		Version: rng.Intn(5),
		Codec:   []string{"", CodecJSON, CodecBinary}[rng.Intn(3)],
		Handle:  rng.Uint64() >> uint(rng.Intn(64)),
		Session: rng.Uint64() >> uint(rng.Intn(64)),
		Done:    rng.Intn(2) == 0,
		Trace:   []uint64{0, rng.Uint64() >> uint(rng.Intn(64))}[rng.Intn(2)],
	}
	if rng.Intn(3) == 0 {
		resp.Result = genResult(rng)
	}
	if rng.Intn(3) == 0 {
		resp.Outcome = &Outcome{
			Status:   []string{"COMMITTED", "ROLLED-BACK", "TIMED-OUT", "FAILED", ""}[rng.Intn(5)],
			Error:    randString(rng, rng.Intn(20)),
			ErrCode:  allErrCodes[rng.Intn(len(allErrCodes))],
			Attempts: rng.Intn(50),
		}
	}
	if rng.Intn(4) == 0 {
		resp.Stats = json.RawMessage(fmt.Sprintf(`{"commits":%d,"runs":%d}`, rng.Intn(1000), rng.Intn(100)))
	}
	for i := rng.Intn(3); i > 0; i-- {
		resp.Tables = append(resp.Tables, TableInfo{
			Name:   randString(rng, 1+rng.Intn(10)),
			Schema: randString(rng, rng.Intn(30)),
			Rows:   rng.Intn(10000),
		})
	}
	return resp
}

// frameRoundTrip encodes msg as one frame with codec c and reads the
// payload back through the shared frame layer.
func framePayload(t *testing.T, frame []byte) []byte {
	t.Helper()
	payload, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("re-read frame: %v", err)
	}
	return payload
}

// TestBinaryOpcodesStable pins every opcode's byte: a binary frame must
// mean the same op to peers built before and after an op is added or
// retired. Opcode 10 (the retired stats frame) must stay unassigned.
func TestBinaryOpcodesStable(t *testing.T) {
	want := map[string]byte{
		OpPing: 1, OpExec: 2, OpDDL: 3, OpSubmit: 4, OpWait: 5, OpPoll: 6,
		OpSessionOpen: 7, OpSessionExec: 8, OpSessionClose: 9,
		OpTables: 11, OpHello: 12, OpMetrics: 13, OpTrace: 14,
		OpPlacement: 15, OpShardOffer: 16, OpShardPrepare: 17,
		OpShardVote: 18, OpShardDecide: 19, OpShardStatus: 20,
	}
	for op, code := range want {
		if got, ok := opcodeOf(op); !ok || got != code {
			t.Errorf("opcodeOf(%q) = %d, %v; want %d", op, got, ok, code)
		}
		if got, ok := opOf(code); !ok || got != op {
			t.Errorf("opOf(%d) = %q, %v; want %q", code, got, ok, op)
		}
	}
	if op, ok := opOf(10); ok {
		t.Errorf("retired opcode 10 decodes as %q", op)
	}
	if _, ok := opcodeOf("stats"); ok {
		t.Error(`retired op "stats" still has an opcode`)
	}
}

func TestCodecCrossPropertyRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 3000; i++ {
		req := genRequest(rng)

		jf, err := JSON.AppendRequestFrame(nil, &req)
		if err != nil {
			t.Fatalf("#%d json encode: %v", i, err)
		}
		bf, err := Binary.AppendRequestFrame(nil, &req)
		if err != nil {
			t.Fatalf("#%d binary encode: %v", i, err)
		}
		var viaJSON, viaBinary Request
		if err := JSON.DecodeRequest(framePayload(t, jf), &viaJSON); err != nil {
			t.Fatalf("#%d json decode: %v", i, err)
		}
		if err := Binary.DecodeRequest(framePayload(t, bf), &viaBinary); err != nil {
			t.Fatalf("#%d binary decode: %v", i, err)
		}
		if !reflect.DeepEqual(viaJSON, viaBinary) {
			t.Fatalf("#%d request diverges:\n json:   %+v\n binary: %+v\n orig:   %+v", i, viaJSON, viaBinary, req)
		}
		if !reflect.DeepEqual(viaBinary, req) {
			t.Fatalf("#%d binary not lossless:\n got:  %+v\n want: %+v", i, viaBinary, req)
		}
	}
}

func TestCodecCrossPropertyResponses(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 3000; i++ {
		resp := genResponse(rng)

		jf, err := JSON.AppendResponseFrame(nil, &resp)
		if err != nil {
			t.Fatalf("#%d json encode: %v", i, err)
		}
		bf, err := Binary.AppendResponseFrame(nil, &resp)
		if err != nil {
			t.Fatalf("#%d binary encode: %v", i, err)
		}
		var viaJSON, viaBinary Response
		if err := JSON.DecodeResponse(framePayload(t, jf), &viaJSON); err != nil {
			t.Fatalf("#%d json decode: %v", i, err)
		}
		if err := Binary.DecodeResponse(framePayload(t, bf), &viaBinary); err != nil {
			t.Fatalf("#%d binary decode: %v", i, err)
		}
		if !reflect.DeepEqual(viaJSON, viaBinary) {
			t.Fatalf("#%d response diverges:\n json:   %+v\n binary: %+v\n orig:   %+v", i, viaJSON, viaBinary, resp)
		}
	}
}

// TestCodecSentinelErrorsSurviveBinary pins the err_code chain end to end:
// an engine sentinel encoded on the server side must satisfy errors.Is
// after a binary round trip, exactly as it does after a JSON one.
func TestCodecSentinelErrorsSurviveBinary(t *testing.T) {
	sentinels := []error{core.ErrTimeout, core.ErrEngineClosed, core.ErrRolledBack, core.ErrDraining}
	for _, sentinel := range sentinels {
		o := core.Outcome{Status: core.StatusTimedOut, Err: fmt.Errorf("wrapped: %w", sentinel), Attempts: 3}
		resp := Response{ID: 7, OK: true, Done: true, Outcome: FromOutcome(o)}
		for _, c := range []Codec{JSON, Binary} {
			frame, err := c.AppendResponseFrame(nil, &resp)
			if err != nil {
				t.Fatalf("%s encode: %v", c.Name(), err)
			}
			var got Response
			if err := c.DecodeResponse(framePayload(t, frame), &got); err != nil {
				t.Fatalf("%s decode: %v", c.Name(), err)
			}
			if got.Outcome == nil {
				t.Fatalf("%s: outcome lost", c.Name())
			}
			back := got.Outcome.ToOutcome()
			if !errors.Is(back.Err, sentinel) {
				t.Errorf("%s: errors.Is lost for %v: got %v", c.Name(), sentinel, back.Err)
			}
			if back.Attempts != 3 || back.Status != core.StatusTimedOut {
				t.Errorf("%s: outcome fields drifted: %+v", c.Name(), back)
			}
		}
	}
}

// TestBinaryEncodeExactSize pins the ≤1-alloc discipline: the encoder's
// size computation must match the bytes actually emitted, and encoding
// into a pre-sized buffer must not allocate.
func TestBinaryEncodeExactSize(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for i := 0; i < 500; i++ {
		resp := genResponse(rng)
		frame, err := Binary.AppendResponseFrame(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		if want := headerSize + binaryResponseSize(&resp); len(frame) != want {
			t.Fatalf("#%d size mismatch: frame %d bytes, computed %d", i, len(frame), want)
		}
		req := genRequest(rng)
		frame, err = Binary.AppendRequestFrame(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		if want := headerSize + binaryRequestSize(&req); len(frame) != want {
			t.Fatalf("#%d request size mismatch: frame %d bytes, computed %d", i, len(frame), want)
		}
	}

	resp := Response{ID: 42, OK: true, Result: &Result{
		Columns: []string{"who"},
		Rows:    []types.Tuple{{types.Str("LA")}, {types.Int(7)}},
	}}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		out, err := Binary.AppendResponseFrame(buf, &resp)
		if err != nil {
			t.Fatal(err)
		}
		_ = out
	})
	if allocs > 0 {
		t.Errorf("encode into pre-sized buffer allocates %v times", allocs)
	}
}

// TestBinaryTraceOptionality pins the compat contract of the trace field:
// a Trace=0 request encodes to exactly the PR 6 byte layout (no trailing
// uvarint at all), a traced frame round-trips, and attaching a trace to
// the encode hot path costs zero allocations either way.
func TestBinaryTraceOptionality(t *testing.T) {
	base := Request{ID: 9, Op: OpSubmit, SQL: "BEGIN; COMMIT"}
	traced := base
	traced.Trace = 0xdeadbeefcafe

	plain, err := Binary.AppendRequestFrame(nil, &base)
	if err != nil {
		t.Fatal(err)
	}
	withTrace, err := Binary.AppendRequestFrame(nil, &traced)
	if err != nil {
		t.Fatal(err)
	}
	plainPayload := framePayload(t, plain)
	tracedPayload := framePayload(t, withTrace)
	if want := len(plainPayload) + uvlen(traced.Trace); len(tracedPayload) != want {
		t.Fatalf("traced payload %d bytes, want plain %d + uvarint %d", len(tracedPayload), len(plainPayload), uvlen(traced.Trace))
	}
	if !bytes.Equal(tracedPayload[:len(plainPayload)], plainPayload) {
		t.Fatal("traced payload does not extend the plain encoding byte-for-byte")
	}
	var back Request
	if err := Binary.DecodeRequest(framePayload(t, withTrace), &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace != traced.Trace {
		t.Fatalf("trace id lost: got %#x want %#x", back.Trace, traced.Trace)
	}
	var backPlain Request
	if err := Binary.DecodeRequest(framePayload(t, plain), &backPlain); err != nil {
		t.Fatal(err)
	}
	if backPlain.Trace != 0 {
		t.Fatalf("traceless frame decoded trace %#x", backPlain.Trace)
	}

	for name, req := range map[string]*Request{"absent": &base, "present": &traced} {
		buf := make([]byte, 0, 4096)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Binary.AppendRequestFrame(buf, req); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("request encode (trace %s) allocates %v times", name, allocs)
		}
	}
}

// TestBinaryDecodeRejectsLyingCounts: a frame whose element count
// announces more elements than the payload has bytes must be rejected
// before any allocation sized by that count.
func TestBinaryDecodeRejectsLyingCounts(t *testing.T) {
	resp := Response{ID: 1, OK: true, Result: &Result{Rows: []types.Tuple{{types.Int(1)}}}}
	frame, err := Binary.AppendResponseFrame(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	payload := framePayload(t, frame)
	// Corrupt every single byte in turn; decode must fail cleanly or
	// succeed, never panic or over-allocate.
	for i := range payload {
		mut := append([]byte(nil), payload...)
		mut[i] ^= 0xff
		var got Response
		_ = Binary.DecodeResponse(mut, &got)
	}
	// A directly lying row count: uvarint 2^62 rows in a tiny payload.
	var r Response
	lying := []byte{1 /*id*/, respFlagResult | respFlagOK /*flags*/, 0 /*version*/, 0, 0, 0, 0, 0 /*hdl,ses,strs*/, 0 /*ncols*/}
	lying = append(lying, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x3f) // nrows = huge
	if err := Binary.DecodeResponse(lying, &r); err == nil {
		t.Fatal("lying row count decoded without error")
	}
	// Truncations of a valid payload must all error (or stop cleanly),
	// never panic.
	for i := 0; i < len(payload); i++ {
		var got Response
		_ = Binary.DecodeResponse(payload[:i], &got)
	}
}
