package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Every input a workload sends is drawn from a *rand.Rand seeded with the
// run's --seed: table contents, names, destinations, the operation mix and
// the open-loop arrival schedule. The same seed gives the same inputs.

// flightSet is the Flights table every workload books from: fno -> dest.
type flightSet struct {
	fnos   []int64
	dests  []string
	destOf map[int64]string
}

// genFlights draws n flights over ndest destinations; every destination
// gets at least one flight, so any pair on any destination can commit.
func genFlights(rng *rand.Rand, n, ndest int) flightSet {
	f := flightSet{destOf: make(map[int64]string, n)}
	for d := 0; d < ndest; d++ {
		f.dests = append(f.dests, fmt.Sprintf("D%02d", d))
	}
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		fno := int64(100 + i)
		f.fnos = append(f.fnos, fno)
		f.destOf[fno] = f.dests[perm[i]%ndest]
	}
	return f
}

// insertScript renders the flights as one INSERT per row.
func (f flightSet) insertScript() string {
	var b strings.Builder
	for _, fno := range f.fnos {
		fmt.Fprintf(&b, "INSERT INTO Flights VALUES (%d, '%s');\n", fno, f.destOf[fno])
	}
	return b.String()
}

// pickDest draws a destination for a pair.
func (f flightSet) pickDest(rng *rand.Rand) string { return f.dests[rng.Intn(len(f.dests))] }

// bookingDDL is the schema shared by every workload.
const bookingDDL = `
CREATE TABLE Flights (fno INT, dest VARCHAR);
CREATE TABLE Bookings (name VARCHAR, fno INT);
CREATE INDEX bookings_name ON Bookings (name);
`

// pairScript is one partner of an entangled pair: book a flight to dest
// on the same flight as them, or nothing at all.
func pairScript(me, them, dest string, timeout time.Duration) string {
	return fmt.Sprintf("BEGIN TRANSACTION WITH TIMEOUT %d SECONDS; "+
		"SELECT '%s', fno AS @fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights WHERE dest='%s') "+
		"AND ('%s', fno) IN ANSWER R CHOOSE 1; "+
		"INSERT INTO Bookings VALUES ('%s', @fno); COMMIT;",
		int(timeout/time.Second), me, dest, them, me)
}

// bookingQuery reads one user's bookings through the Bookings name index.
func bookingQuery(name string) string {
	return fmt.Sprintf("SELECT fno FROM Bookings WHERE name='%s'", name)
}

// randWord draws a lowercase word of n letters.
func randWord(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}
