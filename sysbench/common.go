package main

import (
	"context"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/entangle"
	"repro/entangle/client"
	"repro/internal/server"
	"repro/internal/types"
	"repro/internal/wire"
)

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// liveHeapMB is HeapAlloc after a forced collection, in MB: the least of
// nine readings 10 ms apart, so the working set of a scheduling run that
// happens to be in flight at one reading does not count.
func liveHeapMB() float64 {
	var xs []float64
	for i := 0; i < 9; i++ {
		if i > 0 {
			time.Sleep(10 * time.Millisecond)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		xs = append(xs, float64(ms.HeapAlloc)/(1<<20))
	}
	return slices.Min(xs)
}

// cpuTime is the CPU time this process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rowsFunc runs one query and returns its rows.
type rowsFunc func(sql string) ([]types.Tuple, error)

func dbRows(db *entangle.DB) rowsFunc {
	return func(q string) ([]types.Tuple, error) {
		res, err := db.Query(q)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
}

func clientRows(c *client.Client) rowsFunc {
	return func(q string) ([]types.Tuple, error) {
		res, err := c.Query(q)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
}

// readBookings adds every Bookings row of one shard to books (a new map
// when books is nil).
func readBookings(rows rowsFunc, shard int, books map[string][]booking) (map[string][]booking, error) {
	if books == nil {
		books = map[string][]booking{}
	}
	rs, err := rows("SELECT name, fno FROM Bookings")
	if err != nil {
		return nil, err
	}
	for _, r := range rs {
		name := r[0].Str64()
		books[name] = append(books[name], booking{shard: shard, fno: r[1].Int64()})
	}
	return books, nil
}

// bookingRows renders committed pairs as the Bookings rows they wrote:
// the storage shape the ladder measures on for booking workloads.
func bookingRows(pairs []pairRec, f flightSet) []types.Tuple {
	var out []types.Tuple
	for i, p := range pairs {
		fno := f.fnos[i%len(f.fnos)]
		out = append(out, types.Tuple{types.Str(p.a), types.Int(fno)}, types.Tuple{types.Str(p.b), types.Int(fno)})
	}
	return out
}

// fnoResult is the response of a booking read-back.
func fnoResult(fno int64) *wire.Result {
	return &wire.Result{Columns: []string{"fno"}, Rows: []types.Tuple{{types.Int(fno)}}}
}

// shutdown stops a server, giving in-flight requests ten seconds.
func shutdown(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// drainClose drains a DB (pooled transactions get their final runs) and
// closes it.
func drainClose(db *entangle.DB) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	db.Drain(ctx)
	return db.Close()
}

func flightRow(fno int64, dest string) types.Tuple {
	return types.Tuple{types.Int(fno), types.Str(dest)}
}
