// Sharded quickstart: one logical database served by TWO youtopia-serve
// processes, each owning one shard of the user space. Alice lives on
// shard 1 and Bob on shard 0 (FNV hash placement — no overrides), so
// their gift-match pair can only resolve through the cross-shard
// entanglement path: offers flow to the shard-0 matchmaker, the group
// commits via two-phase group commit, and each booking lands on its
// owner's shard.
//
// Self-contained by default (it hosts both shard servers in-process; the
// clients still speak real TCP):
//
//	go run ./examples/sharded
//
// Against real processes — the deployment `make shard-smoke` exercises:
//
//	youtopia-serve -addr 127.0.0.1:7171 -shard 0 -peers 127.0.0.1:7171,127.0.0.1:7172 &
//	youtopia-serve -addr 127.0.0.1:7172 -shard 1 -peers 127.0.0.1:7171,127.0.0.1:7172 &
//	go run ./examples/sharded -connect 127.0.0.1:7171,127.0.0.1:7172
//
// Porting from the single-server quickstart is again one constructor:
// client.Dial(addr) became client.DialShardedPool(addr, ...) — the pool
// fetches the placement map and routes each script to its home shard.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"strings"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	connect := flag.String("connect", "", "comma-separated shard addresses, shard 0 first (empty = host both shards in-process)")
	flag.Parse()

	var nodes []string
	if *connect != "" {
		nodes = strings.Split(*connect, ",")
		for i := range nodes {
			nodes[i] = strings.TrimSpace(nodes[i])
		}
	} else {
		// No deployment given: host two shard servers on loopback ports.
		var lns [2]net.Listener
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			must(err)
			lns[i] = ln
			nodes = append(nodes, ln.Addr().String())
		}
		m := shard.New(nodes)
		for i, ln := range lns {
			db, err := entangle.Open(entangle.Options{RunFrequency: 2})
			must(err)
			srv := server.New(db)
			must(srv.EnableSharding(m, i, server.ShardOptions{}))
			go srv.Serve(ln)
			defer func(srv *server.Server, db *entangle.DB) {
				srv.Shutdown(context.Background())
				db.Drain(context.Background())
				db.Close()
				srv.CloseSharding()
			}(srv, db)
		}
		fmt.Printf("in-process shards on %s\n", strings.Join(nodes, ", "))
	}

	// One pool over the whole deployment: the bootstrap connection fetches
	// the placement map, then the pool holds a connection per shard and
	// routes every script to the home shard of its first quoted literal.
	pool, err := client.DialShardedPool(nodes[0], client.Options{})
	must(err)
	defer pool.Close()
	place := pool.Placement()
	fmt.Printf("placement v%d: %d shards; Alice -> shard %d, Bob -> shard %d\n",
		place.Version, place.Shards, place.Home("Alice"), place.Home("Bob"))

	// Schema broadcasts to every shard; seed rows go to each engine
	// directly (every shard sees the full flight catalog).
	must(pool.ExecDDL(`
		CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR);
		CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE);
	`))
	for i := 0; i < place.Shards; i++ {
		_, err = pool.GetShard(i).Exec(`
			INSERT INTO Flights VALUES (122, '2011-05-03', 'LA');
			INSERT INTO Flights VALUES (123, '2011-05-04', 'LA');
		`)
		must(err)
	}

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
	h1, err := pool.SubmitScript(script("Alice", "Bob"))
	must(err)
	h2, err := pool.SubmitScript(script("Bob", "Alice"))
	must(err)

	fmt.Println("Alice:", h1.Wait().Status)
	fmt.Println("Bob:", h2.Wait().Status)

	// Each booking lives on its owner's shard — the atomically committed
	// pair is physically partitioned across the two processes.
	for _, user := range []string{"Alice", "Bob"} {
		home := place.Home(user)
		res, err := pool.GetShard(home).Query(
			fmt.Sprintf("SELECT name, fno, fdate FROM Bookings WHERE name='%s'", user))
		must(err)
		for _, row := range res.Rows {
			fmt.Printf("  shard %d: %s booked flight %s on %s\n", home, row[0], row[1], row[2])
		}
	}
	for i := 0; i < place.Shards; i++ {
		snap, err := pool.GetShard(i).Metrics()
		must(err)
		fmt.Printf("shard %d: %d runs, %d group commits\n", i, snap.Counters["runs"], snap.Counters["group_commits"])
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
