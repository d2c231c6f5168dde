package wire

import (
	"encoding/json"

	"repro/internal/storage"
	"repro/internal/types"
)

// ProtocolVersion is bumped on incompatible frame-shape changes; hello
// and ping responses carry it so clients can detect mismatched servers.
// The binary codec is negotiated on top of the JSON-framed protocol
// (OpHello) without changing the version.
const ProtocolVersion = 1

// Codec names negotiated by OpHello. A connection always starts in JSON,
// the bootstrap codec: a hello is readable by any server, and a peer that
// never sends one (netcat, a debugging script) keeps speaking JSON. Both
// directions switch to the agreed codec immediately after the hello
// response.
const (
	CodecJSON   = "json"
	CodecBinary = "binary"
)

// Request ops. One TCP connection carries any mix; the server answers each
// request with exactly one Response bearing the same ID, not necessarily
// in order (a Wait parks server-side while later requests proceed).
const (
	// OpPing: liveness + protocol version check.
	OpPing = "ping"
	// OpExec: run a classical SQL script (autocommit; DDL allowed) and
	// return the last statement's result. Entangled queries are rejected —
	// they need OpSubmit so the run scheduler can coordinate them.
	OpExec = "exec"
	// OpDDL: run a DDL-only script (CREATE TABLE / CREATE INDEX).
	OpDDL = "ddl"
	// OpSubmit: submit a (typically BEGIN...COMMIT, possibly entangled)
	// script to the run scheduler; returns a server-side handle id
	// immediately.
	OpSubmit = "submit"
	// OpWait: block until the handle's program completes; returns its
	// Outcome.
	OpWait = "wait"
	// OpPoll: non-blocking completion check on a handle.
	OpPoll = "poll"
	// OpSessionOpen: open an interactive session (statement-at-a-time
	// classical transactions: BEGIN/COMMIT/ROLLBACK, host variables).
	OpSessionOpen = "session_open"
	// OpSessionExec: execute statements in an interactive session.
	OpSessionExec = "session_exec"
	// OpSessionClose: close an interactive session (open transaction rolls
	// back).
	OpSessionClose = "session_close"
	// OpTables: catalog listing.
	OpTables = "tables"
	// OpHello: codec negotiation and client identity. Must be the first
	// request on a connection, always JSON-framed; the response names the
	// codec the client asked for, which both sides speak from then on. A
	// client refuses a server that does not answer it.
	OpHello = "hello"
	// OpMetrics: observability registry snapshot — engine and service
	// counters plus latency histogram percentiles (obs.Snapshot), carried
	// as raw JSON in Response.Stats. The shell's \stats prints its
	// counters, \metrics all of it.
	OpMetrics = "metrics"
	// OpTrace: fetch one trace's span tree by id (Request.Handle carries
	// the trace id — it is the same "server-side opaque u64" shape a
	// handle is, so the binary frame needs no new field). The rendered
	// obs.Trace rides in Response.Stats as raw JSON; unknown ids answer
	// OK=false.
	OpTrace = "trace"

	// Sharding ops (PR 10). Payloads are the internal/dist message structs
	// rendered as JSON — requests carry theirs in Request.SQL, responses in
	// Response.Stats — so the binary codec needs no new frame fields and a
	// JSON peer sees ordinary requests. Server-to-server traffic (offer /
	// prepare / vote / decide) reuses the same client protocol: each serve
	// process dials its peers like any client would.

	// OpPlacement: fetch the cluster's versioned shard placement map
	// (shard.Map as JSON in Response.Stats). Clients call it once at pool
	// dial time and re-fetch when a routed request misses.
	OpPlacement = "placement"
	// OpShardOffer: participant → coordinator. A dist.Offer for a query
	// blocked with no local partner.
	OpShardOffer = "shard_offer"
	// OpShardPrepare: coordinator → participant. A dist.Prepare delivering
	// a tentative cross-shard answer for revalidation.
	OpShardPrepare = "shard_prepare"
	// OpShardVote: participant → coordinator. A dist.Vote (yes = parked and
	// prepared durably; no = validation failed).
	OpShardVote = "shard_vote"
	// OpShardDecide: coordinator → participant. A dist.Decide carrying the
	// logged group verdict.
	OpShardDecide = "shard_decide"
	// OpShardStatus: participant → coordinator. Inquire a group's verdict
	// (Request.Handle carries the group id; dist.Status returns in
	// Response.Stats). Recovery uses it to resolve in-doubt groups.
	OpShardStatus = "shard_status"
)

// Request is the client→server frame payload.
type Request struct {
	ID      uint64 `json:"id"`
	Op      string `json:"op"`
	SQL     string `json:"sql,omitempty"`     // exec / ddl / submit / session_exec
	Handle  uint64 `json:"handle,omitempty"`  // wait / poll
	Session uint64 `json:"session,omitempty"` // session_exec / session_close
	Codec   string `json:"codec,omitempty"`   // hello: codec the client wants
	Idem    uint64 `json:"idem,omitempty"`    // client-assigned idempotency id (0 = none)
	Client  string `json:"client,omitempty"`  // hello: stable client identity for dedup across reconnects
	Trace   uint64 `json:"trace,omitempty"`   // lifecycle trace id (0 = untraced; see internal/obs)
}

// Response is the server→client frame payload. Exactly one per request,
// correlated by ID. OK false carries Error (and ErrCode when the error is
// one of the engine's sentinel conditions).
//
// One exception to the correlation rule: a well-framed request whose JSON
// cannot be decoded at all has an unrecoverable ID, so the server answers
// with ID 0 and then closes the connection (the stream can no longer be
// trusted). Clients should treat an ID-0 error response as fatal to the
// connection, not to any particular request.
type Response struct {
	ID      uint64 `json:"id"`
	OK      bool   `json:"ok"`
	Error   string `json:"error,omitempty"`
	ErrCode string `json:"err_code,omitempty"`

	Version int             `json:"version,omitempty"` // ping / hello
	Codec   string          `json:"codec,omitempty"`   // hello: codec the server chose
	Result  *Result         `json:"result,omitempty"`  // exec / session_exec
	Handle  uint64          `json:"handle,omitempty"`  // submit
	Session uint64          `json:"session,omitempty"` // session_open
	Done    bool            `json:"done,omitempty"`    // poll: outcome present
	Outcome *Outcome        `json:"outcome,omitempty"` // wait / poll
	Stats   json.RawMessage `json:"stats,omitempty"`   // stats / metrics / trace payloads
	Tables  []TableInfo     `json:"tables,omitempty"`  // tables

	// Trace echoes the request's trace id — canonicalized, so after an
	// entanglement merge the client learns which trace its spans now live
	// under. Zero when the request was untraced; JSON peers that predate
	// the field simply never see it (omitempty), and the binary codec
	// gates it behind a flags bit, so absent = zero bytes on the wire.
	Trace uint64 `json:"trace,omitempty"`
}

// Result is a query result in wire form; rows reuse the value encoding of
// internal/types (see types/json.go).
type Result struct {
	Columns      []string      `json:"columns,omitempty"`
	Rows         []types.Tuple `json:"rows,omitempty"`
	RowsAffected int           `json:"rows_affected,omitempty"`
}

// Outcome is a program's final disposition in wire form. Status is the
// core.Status string (COMMITTED, ROLLED-BACK, TIMED-OUT, FAILED).
type Outcome struct {
	Status   string `json:"status"`
	Error    string `json:"error,omitempty"`
	ErrCode  string `json:"err_code,omitempty"`
	Attempts int    `json:"attempts"`
}

// ErrCode values let the client map sentinel failures back onto the
// engine's error variables, so errors.Is works across the wire.
const (
	ErrCodeTimeout      = "timeout"       // core.ErrTimeout
	ErrCodeEngineClosed = "engine_closed" // core.ErrEngineClosed
	ErrCodeRolledBack   = "rolled_back"   // core.ErrRolledBack
	ErrCodeDraining     = "draining"      // core.ErrDraining
	ErrCodeOverloaded   = "overloaded"    // wire.ErrOverloaded (admission control shed)

	// ErrCodeUnknownSession marks a session id the server no longer knows —
	// the connection that owned it died (sessions are connection-scoped and
	// roll back on disconnect) and the client reconnected underneath it.
	// Typed so callers can open a fresh session instead of parsing text.
	ErrCodeUnknownSession = "unknown_session" // wire.ErrUnknownSession
)

// TableInfo is one catalog entry.
type TableInfo struct {
	Name   string `json:"name"`
	Schema string `json:"schema"`
	Rows   int    `json:"rows"`
}

// TableInfos renders a catalog in wire form — one shared implementation
// for the server's tables frame and the shell's embedded \tables, so the
// two listings cannot drift.
func TableInfos(cat *storage.Catalog) []TableInfo {
	var out []TableInfo
	for _, name := range cat.Names() {
		tbl, err := cat.Get(name)
		if err != nil {
			continue // dropped between Names and Get
		}
		out = append(out, TableInfo{Name: name, Schema: tbl.Schema().String(), Rows: tbl.Len()})
	}
	return out
}
