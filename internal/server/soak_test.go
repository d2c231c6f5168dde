package server

import (
	"fmt"
	"sync"
	"testing"

	"repro/entangle"
	"repro/entangle/client"
)

// giftPair is the giftmatch coordination in entangled SQL: donor pledges
// an amount to charity cid only if partner pledges the same amount.
func giftPair(me, them string) string {
	return fmt.Sprintf(`
	BEGIN TRANSACTION WITH TIMEOUT 15 SECONDS;
	SELECT '%s', 1, amount AS @amt INTO ANSWER GiftMatch
	WHERE amount IN (SELECT amount FROM Tiers WHERE cid=1)
	AND ('%s', 1, amount) IN ANSWER GiftMatch
	CHOOSE 1;
	INSERT INTO Pledges VALUES ('%s', 1, @amt);
	COMMIT;`, me, them, me)
}

func soakFlightPair(me, them string) string {
	return fmt.Sprintf(`
	BEGIN TRANSACTION WITH TIMEOUT 15 SECONDS;
	SELECT '%s', fno AS @fno, fdate AS @fdate INTO ANSWER FlightRes
	WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
	AND ('%s', fno, fdate) IN ANSWER FlightRes
	CHOOSE 1;
	INSERT INTO Bookings VALUES ('%s', @fno, @fdate);
	COMMIT;`, me, them, me)
}

// TestRemoteSoakCoordination runs concurrent remote clients — each on its
// own TCP connection — submitting coordinating giftmatch and travel pairs
// round after round, with classical churn mixed in. Every pair must
// commit with a unified, equal answer. The suite runs under -race in CI,
// so this doubles as the serving path's race soak.
func TestRemoteSoakCoordination(t *testing.T) {
	pairs, rounds := 4, 3
	if testing.Short() {
		pairs, rounds = 2, 2
	}
	addr, _ := startServer(t, entangle.Options{RunFrequency: 2})
	admin := dialTest(t, addr)
	if err := admin.ExecDDL(`
		CREATE TABLE Flights (fno INT, fdate DATE, dest VARCHAR);
		CREATE TABLE Bookings (name VARCHAR, fno INT, fdate DATE);
		CREATE TABLE Tiers (cid INT, amount INT);
		CREATE TABLE Pledges (donor VARCHAR, cid INT, amount INT);
		CREATE TABLE Churn (id INT, note VARCHAR);
	`); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(`
		INSERT INTO Flights VALUES (122, '2011-05-03', 'LA');
		INSERT INTO Flights VALUES (123, '2011-05-04', 'LA');
		INSERT INTO Tiers VALUES (1, 50);
		INSERT INTO Tiers VALUES (1, 100);
		INSERT INTO Tiers VALUES (1, 250);
	`); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, pairs*rounds*4+rounds)

	// Each pair: two goroutines, two connections, alternating travel and
	// gift coordinations across rounds.
	for p := 0; p < pairs; p++ {
		wg.Add(2)
		for side := 0; side < 2; side++ {
			go func(p, side int) {
				defer wg.Done()
				c, err := client.Dial(addr)
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				for r := 0; r < rounds; r++ {
					me := fmt.Sprintf("u%d_%d_%d", p, side, r)
					them := fmt.Sprintf("u%d_%d_%d", p, 1-side, r)
					script := soakFlightPair(me, them)
					if r%2 == 1 {
						script = giftPair(me, them)
					}
					h, err := c.SubmitScript(script)
					if err != nil {
						errs <- fmt.Errorf("pair %d side %d round %d submit: %w", p, side, r, err)
						return
					}
					if o := h.Wait(); o.Status != entangle.StatusCommitted {
						errs <- fmt.Errorf("pair %d side %d round %d: %v (%v)", p, side, r, o.Status, o.Err)
						return
					}
				}
			}(p, side)
		}
	}

	// Classical churn on its own connection: inserts and reads that share
	// the engine with the coordinating pairs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := client.Dial(addr)
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		for i := 0; i < pairs*rounds; i++ {
			if _, err := c.Exec(fmt.Sprintf("INSERT INTO Churn VALUES (%d, 'n%d')", i, i)); err != nil {
				errs <- fmt.Errorf("churn insert %d: %w", i, err)
				return
			}
			if _, err := c.Query("SELECT id FROM Churn WHERE id=" + fmt.Sprint(i)); err != nil {
				errs <- fmt.Errorf("churn select %d: %w", i, err)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Every pair's answers must be unified and equal: same flight for both
	// sides of a travel round, same amount for both sides of a gift round.
	for p := 0; p < pairs; p++ {
		for r := 0; r < rounds; r++ {
			a := fmt.Sprintf("u%d_0_%d", p, r)
			b := fmt.Sprintf("u%d_1_%d", p, r)
			table, col, key := "Bookings", "fno", "name"
			if r%2 == 1 {
				table, col, key = "Pledges", "amount", "donor"
			}
			ra, err := admin.Query(fmt.Sprintf("SELECT %s FROM %s WHERE %s='%s'", col, table, key, a))
			if err != nil {
				t.Fatal(err)
			}
			rb, err := admin.Query(fmt.Sprintf("SELECT %s FROM %s WHERE %s='%s'", col, table, key, b))
			if err != nil {
				t.Fatal(err)
			}
			if len(ra.Rows) != 1 || len(rb.Rows) != 1 {
				t.Fatalf("pair %d round %d: rows %v / %v", p, r, ra.Rows, rb.Rows)
			}
			if !ra.Rows[0][0].Equal(rb.Rows[0][0]) {
				t.Errorf("pair %d round %d: answers differ: %v vs %v", p, r, ra.Rows[0][0], rb.Rows[0][0])
			}
		}
	}

	// The engine agrees: one group commit per coordinated pair.
	snap, err := admin.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snap.Counters["group_commits"], int64(pairs*rounds); got < want {
		t.Errorf("group commits %d < %d", got, want)
	}
}
