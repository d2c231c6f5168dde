package repro

// Observability smoke: the real youtopia-serve binary started with
// -debug-addr, driven by traced TCP clients, then inspected over the
// debug HTTP surface — /metrics must carry the engine counters and
// latency percentiles of the work just performed, /traces/recent must
// hold the pair coordination's merged trace, and the pprof index must
// serve. `make obs-smoke` runs exactly this test; CI uploads the two
// JSON payloads as the chaos-correlation artifacts.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/obs"
)

func TestObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("obs smoke skipped in -short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	bin := filepath.Join(t.TempDir(), "youtopia-serve")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/youtopia-serve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build youtopia-serve: %v\n%s", err, out)
	}

	srv := exec.CommandContext(ctx, bin,
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-f", "2")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = srv.Stdout
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Process.Kill() })

	// Both banners carry ephemeral addresses; collect the two. Flags are
	// checked before Scan so the loop exits without blocking on a further
	// line once the second banner has arrived.
	var addr, debugAddr string
	sc := bufio.NewScanner(stdout)
	for (addr == "" || debugAddr == "") && sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "youtopia-serve: listening on "); ok {
			addr = strings.TrimSpace(rest)
		}
		if rest, ok := strings.CutPrefix(line, "youtopia-serve: debug listening on "); ok {
			debugAddr = strings.TrimSpace(rest)
		}
	}
	go io.Copy(io.Discard, stdout)
	if addr == "" || debugAddr == "" {
		t.Fatalf("banners missing: addr=%q debug=%q", addr, debugAddr)
	}

	// Drive a traced pair coordination through two TCP connections.
	c1, err := client.DialOptions(addr, client.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.DialOptions(addr, client.Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c1.ExecDDL(`
		CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR);
		CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE);
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec(`INSERT INTO Flights VALUES (122, '2011-05-03', 'LA')`); err != nil {
		t.Fatal(err)
	}
	pair := func(me, them string) string {
		return fmt.Sprintf(`
		BEGIN TRANSACTION WITH TIMEOUT 10 SECONDS;
		SELECT '%s', fno AS @fno, fdate AS @fdate INTO ANSWER FlightRes
		WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
		AND ('%s', fno, fdate) IN ANSWER FlightRes
		CHOOSE 1;
		INSERT INTO Bookings VALUES ('%s', @fno, @fdate);
		COMMIT;`, me, them, me)
	}
	h1, err := c1.SubmitScript(pair("Mickey", "Minnie"))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c2.SubmitScript(pair("Minnie", "Mickey"))
	if err != nil {
		t.Fatal(err)
	}
	if o := h1.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Mickey: %+v", o)
	}
	if o := h2.Wait(); o.Status != entangle.StatusCommitted {
		t.Fatalf("Minnie: %+v", o)
	}
	canon := h1.TraceID()
	if canon == 0 || canon != h2.TraceID() {
		t.Fatalf("canonical trace ids: %d vs %d", canon, h2.TraceID())
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + debugAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	// /metrics: registry counters + percentiles.
	var metrics struct {
		Metrics obs.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal(get("/metrics"), &metrics); err != nil {
		t.Fatalf("/metrics JSON: %v", err)
	}
	if metrics.Metrics.Counters["group_commits"] < 1 {
		t.Fatalf("group_commits = %d, want >= 1", metrics.Metrics.Counters["group_commits"])
	}
	if hs := metrics.Metrics.Histograms["answer_latency"]; hs.Count < 2 || hs.P50MS <= 0 {
		t.Fatalf("answer_latency snapshot: %+v", hs)
	}
	// The server's own counters live in the same registry.
	for _, name := range []string{"sheds", "retries", "reconnects", "faults_injected"} {
		if _, ok := metrics.Metrics.Counters[name]; !ok {
			t.Fatalf("service counter %q missing from /metrics counters", name)
		}
	}

	// /traces/recent: the merged coordination trace with both actors.
	var recent []obs.Trace
	if err := json.Unmarshal(get("/traces/recent"), &recent); err != nil {
		t.Fatalf("/traces/recent JSON: %v", err)
	}
	var tr *obs.Trace
	for i := range recent {
		if recent[i].ID == canon {
			tr = &recent[i]
		}
	}
	if tr == nil {
		t.Fatalf("trace %d not in /traces/recent (%d traces)", canon, len(recent))
	}
	actors := map[uint64]bool{}
	for _, s := range tr.Spans {
		actors[s.Actor] = true
	}
	if len(tr.Aliases) != 1 || len(actors) != 2 {
		t.Fatalf("merged trace shape: aliases=%v actors=%v", tr.Aliases, actors)
	}

	// pprof serves from the same mux.
	if body := get("/debug/pprof/"); !strings.Contains(string(body), "goroutine") {
		t.Fatal("pprof index did not serve")
	}
}
