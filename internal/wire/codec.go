package wire

import (
	"encoding/json"
	"fmt"
)

// A Codec turns Request/Response payloads into frame bytes and back. The
// frame envelope (4-byte big-endian length prefix, MaxFrameSize cap) is
// shared; only the payload encoding differs. Connections negotiate a codec
// with OpHello and then use one Codec for their whole lifetime in each
// direction.
//
// The Append*Frame methods append a complete frame (header + payload) to
// buf so a writer can coalesce many frames into one buffer and flush them
// with a single Write. On error buf is returned unchanged — nothing
// half-encoded reaches the stream, so the caller may substitute a
// different frame (e.g. an error response).
type Codec interface {
	// Name is the negotiated codec name (CodecJSON or CodecBinary).
	Name() string
	// AppendRequestFrame appends one framed request to buf.
	AppendRequestFrame(buf []byte, req *Request) ([]byte, error)
	// DecodeRequest decodes one request payload (as returned by ReadFrame).
	DecodeRequest(payload []byte, req *Request) error
	// AppendResponseFrame appends one framed response to buf.
	AppendResponseFrame(buf []byte, resp *Response) ([]byte, error)
	// DecodeResponse decodes one response payload.
	DecodeResponse(payload []byte, resp *Response) error
}

// JSON is the bootstrap and debugging codec: framed JSON documents. Every
// connection starts in it (the hello travels as JSON), and the shell pins
// it so sessions stay readable with netcat.
var JSON Codec = jsonCodec{}

// Binary is the negotiated fast-path codec: exact-size binary payloads
// built on the types package's value encoding.
var Binary Codec = binaryCodec{}

// CodecByName resolves a negotiated codec name ("" means JSON, the
// connection's starting state).
func CodecByName(name string) (Codec, error) {
	switch name {
	case CodecJSON, "":
		return JSON, nil
	case CodecBinary:
		return Binary, nil
	default:
		return nil, fmt.Errorf("wire: unknown codec %q", name)
	}
}

type jsonCodec struct{}

func (jsonCodec) Name() string { return CodecJSON }

// appendJSONFrame marshals v and appends header + payload.
func appendJSONFrame(buf []byte, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return buf, fmt.Errorf("%w: %v", ErrEncode, err)
	}
	if len(payload) > MaxFrameSize {
		return buf, ErrFrameTooLarge
	}
	buf = grow(buf, headerSize+len(payload))
	buf = appendUint32(buf, uint32(len(payload)))
	return append(buf, payload...), nil
}

func (jsonCodec) AppendRequestFrame(buf []byte, req *Request) ([]byte, error) {
	return appendJSONFrame(buf, req)
}

func (jsonCodec) DecodeRequest(payload []byte, req *Request) error {
	if err := json.Unmarshal(payload, req); err != nil {
		return fmt.Errorf("wire: decode frame: %w", err)
	}
	return nil
}

func (jsonCodec) AppendResponseFrame(buf []byte, resp *Response) ([]byte, error) {
	return appendJSONFrame(buf, resp)
}

func (jsonCodec) DecodeResponse(payload []byte, resp *Response) error {
	if err := json.Unmarshal(payload, resp); err != nil {
		return fmt.Errorf("wire: decode frame: %w", err)
	}
	return nil
}

// grow ensures buf has room for need more bytes with at most one
// allocation (mirrors types.grow).
func grow(buf []byte, need int) []byte {
	if cap(buf)-len(buf) >= need {
		return buf
	}
	grown := make([]byte, len(buf), len(buf)+need)
	copy(grown, buf)
	return grown
}

func appendUint32(buf []byte, v uint32) []byte {
	return append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
