package fault

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func TestNilPointIsInert(t *testing.T) {
	var p *Point
	if err := p.Fire(); err != nil {
		t.Fatalf("nil point fired: %v", err)
	}
	if _, hit := p.Eval(); hit {
		t.Fatal("nil point evaluated hot")
	}
	var r *Registry
	if r.Point("x") != nil {
		t.Fatal("nil registry returned a point")
	}
	if r.Fired() != 0 {
		t.Fatal("nil registry counted faults")
	}
	r.Disable("x") // must not panic
}

func TestDisarmedPointIsInert(t *testing.T) {
	r := NewRegistry(1)
	p := r.Point("never.armed")
	for i := 0; i < 100; i++ {
		if err := p.Fire(); err != nil {
			t.Fatalf("disarmed point fired: %v", err)
		}
	}
	if r.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", r.Fired())
	}
}

func TestOneShot(t *testing.T) {
	r := NewRegistry(7)
	r.Enable("p", Trigger{OneShot: true}, Action{Kind: KindError})
	if err := r.Point("p").Fire(); !errors.Is(err, ErrInjected) {
		t.Fatalf("first call: %v, want ErrInjected", err)
	}
	for i := 0; i < 10; i++ {
		if err := r.Point("p").Fire(); err != nil {
			t.Fatalf("one-shot fired twice: %v", err)
		}
	}
	if got := r.Fired(); got != 1 {
		t.Fatalf("Fired = %d, want 1", got)
	}
}

func TestEveryNthAndAfter(t *testing.T) {
	r := NewRegistry(7)
	r.Enable("p", Trigger{EveryNth: 3, After: 2}, Action{Kind: KindError})
	var hits []int
	for i := 1; i <= 11; i++ {
		if r.Point("p").Fire() != nil {
			hits = append(hits, i)
		}
	}
	// calls 1,2 skipped; then every 3rd of the remainder: 5, 8, 11.
	want := []int{5, 8, 11}
	if len(hits) != len(want) {
		t.Fatalf("hits = %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("hits = %v, want %v", hits, want)
		}
	}
}

func TestProbabilityDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []bool {
		r := NewRegistry(seed)
		r.Enable("p", Trigger{Prob: 0.5}, Action{Kind: KindError})
		out := make([]bool, 64)
		for i := range out {
			out[i] = r.Point("p").Fire() != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestErrorWrapping(t *testing.T) {
	r := NewRegistry(1)
	cause := errors.New("boom")
	r.Enable("p", Trigger{}, Action{Kind: KindError, Err: cause})
	err := r.Point("p").Fire()
	if !errors.Is(err, cause) {
		t.Fatalf("err %v does not wrap cause", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err %v does not match ErrInjected", err)
	}
}

func TestDelayInline(t *testing.T) {
	r := NewRegistry(1)
	r.Enable("p", Trigger{OneShot: true}, Action{Kind: KindDelay, Delay: 30 * time.Millisecond})
	start := time.Now()
	if err := r.Point("p").Fire(); err != nil {
		t.Fatalf("delay returned error: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("delay too short: %v", d)
	}
}

func pipeConns(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(done)
			return
		}
		done <- c
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, ok := <-done
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c, s
}

func TestConnShortWrite(t *testing.T) {
	client, server := pipeConns(t)
	r := NewRegistry(1)
	r.Enable("w", Trigger{OneShot: true}, Action{Kind: KindShortWrite, KeepBytes: 3})
	fc := WrapConn(server, nil, r.Point("w"))

	n, err := fc.Write([]byte("hello world"))
	if n != 3 {
		t.Fatalf("short write wrote %d bytes, want 3", n)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short write err = %v", err)
	}
	buf := make([]byte, 16)
	got, _ := io.ReadFull(client, buf[:3])
	if got != 3 || string(buf[:3]) != "hel" {
		t.Fatalf("peer read %q (%d bytes), want %q", buf[:got], got, "hel")
	}
	// The conn was reset after the truncated prefix: next read must fail.
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Read(buf); err == nil {
		t.Fatal("peer read succeeded after reset")
	}
}

func TestConnReset(t *testing.T) {
	client, server := pipeConns(t)
	r := NewRegistry(1)
	r.Enable("w", Trigger{OneShot: true}, Action{Kind: KindReset})
	fc := WrapConn(server, nil, r.Point("w"))

	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("reset write err = %v", err)
	}
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read succeeded after reset")
	}
}

func TestConnDropPretendsSuccess(t *testing.T) {
	client, server := pipeConns(t)
	r := NewRegistry(1)
	r.Enable("w", Trigger{OneShot: true}, Action{Kind: KindDrop})
	fc := WrapConn(server, nil, r.Point("w"))

	n, err := fc.Write([]byte("lost"))
	if n != 4 || err != nil {
		t.Fatalf("drop write = (%d, %v), want (4, nil)", n, err)
	}
	client.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err = client.Read(make([]byte, 16))
	if n != 0 || err == nil {
		t.Fatalf("peer read = (%d, %v), want dropped frame then reset", n, err)
	}
}

func TestConnPassThroughWhenDisarmed(t *testing.T) {
	client, server := pipeConns(t)
	r := NewRegistry(1)
	fc := WrapConn(server, r.Point("r"), r.Point("w"))
	go fc.Write([]byte("ok"))
	buf := make([]byte, 2)
	if _, err := io.ReadFull(client, buf); err != nil || string(buf) != "ok" {
		t.Fatalf("pass-through read %q, %v", buf, err)
	}
}

func BenchmarkDisabledPoint(b *testing.B) {
	r := NewRegistry(1)
	p := r.Point("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Fire(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNilPoint(b *testing.B) {
	var p *Point
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Fire(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFiringsTaggedAndBounded(t *testing.T) {
	r := NewRegistry(1)
	p := r.Enable("server.dispatch", Trigger{EveryNth: 2}, Action{Kind: KindError})
	if err := p.FireTagged(11); err != nil { // call 1: miss
		t.Fatalf("call 1 fired: %v", err)
	}
	if err := p.FireTagged(22); err == nil { // call 2: hit
		t.Fatal("call 2 did not fire")
	}
	_ = p.Fire()                             // call 3: miss
	if err := p.FireTagged(44); err == nil { // call 4: hit, traced
		t.Fatal("call 4 did not fire")
	}
	got := r.Firings()
	want := []Firing{{Point: "server.dispatch", Trace: 22}, {Point: "server.dispatch", Trace: 44}}
	if len(got) != len(want) {
		t.Fatalf("firings = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d = %v, want %v", i, got[i], want[i])
		}
	}
	if r.Fired() != 2 {
		t.Fatalf("Fired() = %d, want 2", r.Fired())
	}

	// The ring stays bounded and keeps the newest firings.
	r2 := NewRegistry(2)
	p2 := r2.Enable("spam", Trigger{}, Action{Kind: KindError})
	for i := 0; i < maxFirings+50; i++ {
		_ = p2.FireTagged(uint64(i + 1))
	}
	ring := r2.Firings()
	if len(ring) != maxFirings {
		t.Fatalf("ring length %d, want %d", len(ring), maxFirings)
	}
	if ring[len(ring)-1].Trace != uint64(maxFirings+50) {
		t.Fatalf("newest firing trace %d, want %d", ring[len(ring)-1].Trace, maxFirings+50)
	}
	if ring[0].Trace != 51 {
		t.Fatalf("oldest retained trace %d, want 51", ring[0].Trace)
	}

	var nilReg *Registry
	if nilReg.Firings() != nil {
		t.Fatal("nil registry returned firings")
	}
}

// TestFiringsWrapAround: past several wraps the ring keeps exactly the
// newest maxFirings firings, oldest first and consecutive.
func TestFiringsWrapAround(t *testing.T) {
	r := NewRegistry(3)
	p := r.Enable("spam", Trigger{}, Action{Kind: KindError})
	const total = 3*maxFirings + 7
	for i := 1; i <= total; i++ {
		_ = p.FireTagged(uint64(i))
	}
	ring := r.Firings()
	if len(ring) != maxFirings {
		t.Fatalf("ring length %d, want %d", len(ring), maxFirings)
	}
	for i, f := range ring {
		if want := uint64(total - maxFirings + 1 + i); f.Trace != want || f.Point != "spam" {
			t.Fatalf("firing %d = %+v, want trace %d", i, f, want)
		}
	}
}

// BenchmarkRecordFull is one firing into a full ring: constant time, no
// allocation.
func BenchmarkRecordFull(b *testing.B) {
	r := NewRegistry(1)
	for i := 0; i < maxFirings; i++ {
		r.record("bench", uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.record("bench", uint64(i))
	}
}
