package server

// Codec negotiation: the binary codec is opt-in per connection, so every
// pairing of client options and peers must land on a working codec or a
// clear error — never a hang. The fake server below replays a server that
// predates hello (hello is an unknown op), which the client refuses.

import (
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/wire"
)

// TestNegotiateDefault: default client against a default server lands on
// binary, and the connection actually works afterwards.
func TestNegotiateDefault(t *testing.T) {
	addr, _ := startServer(t, entangle.Options{})
	c := dialTest(t, addr)
	if c.Codec() != wire.CodecBinary {
		t.Fatalf("negotiated %q, want binary", c.Codec())
	}
	roundTrip(t, c)
}

// TestNegotiateJSONPinnedClient: a client pinned to JSON never upgrades,
// even against a binary-capable server.
func TestNegotiateJSONPinnedClient(t *testing.T) {
	addr, _ := startServer(t, entangle.Options{})
	c, err := client.DialOptions(addr, client.Options{Codec: wire.CodecJSON})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Codec() != wire.CodecJSON {
		t.Fatalf("negotiated %q, want json", c.Codec())
	}
	roundTrip(t, c)
}

// TestNegotiateUnknownCodecOption: an unknown Options.Codec is a dial-time
// error, not a surprise at first use.
func TestNegotiateUnknownCodecOption(t *testing.T) {
	addr, _ := startServer(t, entangle.Options{})
	if _, err := client.DialOptions(addr, client.Options{Codec: "protobuf"}); err == nil {
		t.Fatal("want error for unknown codec option")
	}
}

// TestNegotiateLegacyServer: against a protocol-v1 server — hello is an
// unknown op, ping answers version 1 — Dial fails within DialTimeout with
// an error naming the hello. It must not fall back (a v1 server cannot
// dedup retries), hang, or panic.
func TestNegotiateLegacyServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		for {
			payload, err := wire.ReadFrame(nc)
			if err != nil {
				return
			}
			var req wire.Request
			if err := wire.JSON.DecodeRequest(payload, &req); err != nil {
				return
			}
			resp := wire.Response{ID: req.ID}
			switch req.Op {
			case wire.OpPing:
				resp.OK = true
				resp.Version = wire.ProtocolVersion
			default:
				resp.Error = "unknown op \"" + req.Op + "\""
			}
			frame, err := wire.JSON.AppendResponseFrame(nil, &resp)
			if err != nil {
				return
			}
			if _, err := nc.Write(frame); err != nil {
				return
			}
		}
	}()

	const dialTimeout = 2 * time.Second
	start := time.Now()
	c, err := client.DialOptions(ln.Addr().String(), client.Options{DialTimeout: dialTimeout})
	if err == nil {
		c.Close()
		t.Fatalf("dial against legacy server succeeded on %q, want a hello error", c.Codec())
	}
	if !strings.Contains(err.Error(), "hello") {
		t.Fatalf("dial error %q does not name the hello", err)
	}
	if took := time.Since(start); took > dialTimeout {
		t.Fatalf("dial took %v, want within DialTimeout %v", took, dialTimeout)
	}
}

// TestNegotiateMalformedHandshake: a peer that opens with garbage — a
// binary frame before any hello, or bytes that are not the protocol at
// all — gets one typed error response and a closed connection, bounded in
// time. Never a hang, never a panic.
func TestNegotiateMalformedHandshake(t *testing.T) {
	addr, _ := startServer(t, entangle.Options{})
	cases := []struct {
		name  string
		frame []byte
	}{
		{"binary before hello", func() []byte {
			f, err := wire.Binary.AppendRequestFrame(nil, &wire.Request{ID: 1, Op: wire.OpPing})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}()},
		{"framed garbage", func() []byte {
			var hdr [4]byte
			binary.BigEndian.PutUint32(hdr[:], 12)
			return append(hdr[:], "hello, world"...)
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := nc.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			payload, err := wire.ReadFrame(nc)
			if err != nil {
				t.Fatalf("want a typed error response before close, got %v", err)
			}
			var resp wire.Response
			if err := wire.JSON.DecodeResponse(payload, &resp); err != nil {
				t.Fatalf("error response not JSON: %v", err)
			}
			if resp.OK || !strings.Contains(resp.Error, "bad request") {
				t.Fatalf("response = %+v, want bad-request error", resp)
			}
			// The server gives up on the stream: the next read sees EOF,
			// not silence.
			if _, err := wire.ReadFrame(nc); err != io.EOF {
				t.Fatalf("after error response: got %v, want EOF", err)
			}
		})
	}
}

// TestNegotiateHelloNotFirst: hello anywhere but the first request is
// refused — by then frames may be in flight in the old codec and the
// switch would be ambiguous.
func TestNegotiateHelloNotFirst(t *testing.T) {
	addr, _ := startServer(t, entangle.Options{})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))

	send := func(req wire.Request) wire.Response {
		t.Helper()
		frame, err := wire.JSON.AppendRequestFrame(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(frame); err != nil {
			t.Fatal(err)
		}
		payload, err := wire.ReadFrame(nc)
		if err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := wire.JSON.DecodeResponse(payload, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := send(wire.Request{ID: 1, Op: wire.OpPing}); !resp.OK {
		t.Fatalf("ping: %+v", resp)
	}
	resp := send(wire.Request{ID: 2, Op: wire.OpHello, Codec: wire.CodecBinary})
	if resp.OK || !strings.Contains(resp.Error, "first request") {
		t.Fatalf("late hello: %+v, want first-request error", resp)
	}
	// The connection survives (still JSON): a refused hello is an error,
	// not a torn stream.
	if resp := send(wire.Request{ID: 3, Op: wire.OpPing}); !resp.OK {
		t.Fatalf("ping after refused hello: %+v", resp)
	}
}

// roundTrip exercises DDL, classical ops, and a full entangled pair over
// whatever codec the connection negotiated.
func roundTrip(t *testing.T, c *client.Client) {
	t.Helper()
	setupFlights(t, c)
	h1, err := c.SubmitScript(flightPair("alice", "bob"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.SubmitScript(flightPair("bob", "alice"))
	if err != nil {
		t.Fatal(err)
	}
	if o := h1.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("h1: %+v", o)
	}
	if o := h2.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("h2: %+v", o)
	}
	res, err := c.Query("SELECT name FROM Bookings")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("bookings: %d rows, want 2", len(res.Rows))
	}
}
