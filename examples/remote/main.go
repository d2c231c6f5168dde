// Remote quickstart: the §2 flight coordination served over TCP. Mickey
// and Minnie are separate clients on separate connections; the server
// unifies their entangled answers — the paper's Figure 1 deployment.
//
// Self-contained by default (it starts a server on a loopback port and
// connects to it), which keeps the example runnable with a bare
//
//	go run ./examples/remote
//
// Against a real youtopia-serve process — two OS processes coordinating,
// which is what `make serve-smoke` exercises — point it at the server:
//
//	youtopia-serve -addr 127.0.0.1:7171 &
//	go run ./examples/remote -connect 127.0.0.1:7171
//
// Porting from the embedded quickstart is the one-constructor change:
// entangle.Open(...) became client.Dial(addr); Exec, SubmitScript, and
// Handle.Wait read the same.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	connect := flag.String("connect", "", "youtopia-serve address (empty = start an in-process server)")
	flag.Parse()

	addr := *connect
	if addr == "" {
		// No server given: host one on a loopback port. The clients below
		// still speak real TCP to it.
		db, err := entangle.Open(entangle.Options{
			RunFrequency: 2,
			Tracer:       obs.NewTracer(obs.TracerOptions{}),
		})
		if err != nil {
			log.Fatal(err)
		}
		srv := server.New(db)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve(ln)
		defer func() {
			srv.Shutdown(context.Background())
			db.Drain(context.Background())
			db.Close()
		}()
		addr = ln.Addr().String()
		fmt.Println("in-process server on", addr)
	}

	// Two users, two TCP connections. Trace: true mints a lifecycle trace
	// id per submitted query; the server merges the pair's ids when the
	// queries entangle, and -debug-addr's /traces/recent (or the shell's
	// \trace) shows the merged span tree.
	mickey, err := client.DialOptions(addr, client.Options{Trace: true})
	must(err)
	defer mickey.Close()
	minnie, err := client.DialOptions(addr, client.Options{Trace: true})
	must(err)
	defer minnie.Close()

	must(mickey.ExecDDL(`
		CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR);
		CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE);
	`))
	_, err = mickey.Exec(`
		INSERT INTO Flights VALUES (122, '2011-05-03', 'LA');
		INSERT INTO Flights VALUES (123, '2011-05-04', 'LA');
		INSERT INTO Flights VALUES (235, '2011-05-05', 'Paris');
	`)
	must(err)

	script := func(me, them string) string {
		return fmt.Sprintf(`
		BEGIN TRANSACTION WITH TIMEOUT 5 SECONDS;
		SELECT '%s', fno AS @fno, fdate AS @fdate INTO ANSWER FlightRes
		WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
		AND ('%s', fno, fdate) IN ANSWER FlightRes
		CHOOSE 1;
		INSERT INTO Bookings VALUES ('%s', @fno, @fdate);
		COMMIT;`, me, them, me)
	}
	h1, err := mickey.SubmitScript(script("Mickey", "Minnie"))
	must(err)
	h2, err := minnie.SubmitScript(script("Minnie", "Mickey"))
	must(err)

	fmt.Println("Mickey:", h1.Wait().Status)
	fmt.Println("Minnie:", h2.Wait().Status)
	if h1.TraceID() == h2.TraceID() {
		fmt.Printf("coordination trace %d (one merged trace for both members)\n", h1.TraceID())
	}

	res, err := mickey.Query("SELECT name, fno, fdate FROM Bookings")
	must(err)
	for _, row := range res.Rows {
		fmt.Printf("  %s booked flight %s on %s\n", row[0], row[1], row[2])
	}
	snap, err := minnie.Metrics()
	must(err)
	c := snap.Counters
	fmt.Printf("server: %d runs, %d entanglement ops, %d group commits\n",
		c["runs"], c["entangle_ops"], c["group_commits"])
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
