// Package workload generates the six workloads of the paper's evaluation
// (§5.2: NoSocial/Social/Entangled, each in transactional -T and
// non-transactional -Q form) over the Appendix D travel schema
//
//	User(uid, hometown)  Friends(uid1, uid2)
//	Flight(source, destination, fid)  Reserve(uid, fid)
//
// plus the Spoke-hub and Cyclic coordination structures of the
// entanglement-complexity experiment (Figure 6(c)) and the
// pending-transaction batches of Figure 6(b).
package workload

import (
	"fmt"
	"math/rand"

	"repro/entangle"
	"repro/internal/social"
	"repro/internal/types"
)

// Config sizes a dataset.
type Config struct {
	// Users in the social graph (default 1000).
	Users int
	// Cities users live in (default 8).
	Cities int
	// Destinations reachable from every city (default 6).
	Destinations int
	// AttachM is the preferential-attachment parameter (default 3).
	AttachM int
	// Seed drives all randomness (default 1).
	Seed int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Users <= 0 {
		out.Users = 1000
	}
	if out.Cities <= 0 {
		out.Cities = 8
	}
	if out.Destinations <= 0 {
		out.Destinations = 6
	}
	if out.AttachM <= 0 {
		out.AttachM = 3
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// Dataset is a generated social travel scenario.
type Dataset struct {
	cfg      Config
	Graph    *social.Graph
	Hometown []int // user -> city index
	rng      *rand.Rand

	samePairs [][2]int // vertex-disjoint same-hometown friend pairs, shuffled
	pairNext  int
	orphanSeq int
}

// NewDataset builds the graph, hometown assignment, and coordination-pair
// pool. Deterministic for a given config.
func NewDataset(cfg Config) (*Dataset, error) {
	c := cfg.withDefaults()
	g, err := social.Generate(c.Users, c.AttachM, c.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed + 1))
	d := &Dataset{cfg: c, Graph: g, rng: rng}
	d.Hometown = make([]int, c.Users)
	for u := range d.Hometown {
		d.Hometown[u] = rng.Intn(c.Cities)
	}
	// Greedy vertex-disjoint matching over same-hometown edges: no user
	// appears in two coordination pairs, so concurrent pairs can never
	// steal each other's partners on the shared Rendezvous relation.
	used := make([]bool, c.Users)
	for _, e := range g.Edges() {
		if d.Hometown[e[0]] == d.Hometown[e[1]] && !used[e[0]] && !used[e[1]] {
			used[e[0]] = true
			used[e[1]] = true
			d.samePairs = append(d.samePairs, e)
		}
	}
	if len(d.samePairs) == 0 {
		return nil, fmt.Errorf("workload: no same-hometown friend pairs; increase Users or decrease Cities")
	}
	rng.Shuffle(len(d.samePairs), func(i, j int) {
		d.samePairs[i], d.samePairs[j] = d.samePairs[j], d.samePairs[i]
	})
	return d, nil
}

// Config returns the effective configuration.
func (d *Dataset) Config() Config { return d.cfg }

// CityName renders city i as a three-letter-ish code.
func CityName(i int) string { return fmt.Sprintf("CITY%03d", i) }

// DestName renders destination j.
func DestName(j int) string { return fmt.Sprintf("DEST%03d", j) }

// FlightID computes the deterministic flight id for (city, destination).
func (d *Dataset) FlightID(city, dest int) int64 {
	return int64(city*d.cfg.Destinations + dest + 1000)
}

// Setup creates and seeds the Appendix D schema in db.
func (d *Dataset) Setup(db *entangle.DB) error {
	if err := db.ExecDDL(`
		CREATE TABLE User (uid INT, hometown VARCHAR);
		CREATE TABLE Friends (uid1 INT, uid2 INT);
		CREATE TABLE Flight (source VARCHAR, destination VARCHAR, fid INT);
		CREATE TABLE Reserve (uid INT, fid INT);
		CREATE INDEX user_uid ON User (uid);
		CREATE INDEX friends_u1 ON Friends (uid1);
		CREATE INDEX flight_route ON Flight (source, destination);
	`); err != nil {
		return err
	}
	o := db.RunDirect(entangle.Program{
		Name: "seed",
		Body: func(tx *entangle.Tx) error {
			for u := 0; u < d.cfg.Users; u++ {
				if _, err := tx.Insert("User", entangle.Values(
					types.Int(int64(u)), types.Str(CityName(d.Hometown[u])))); err != nil {
					return err
				}
			}
			for _, e := range d.Graph.Edges() {
				for _, pair := range [][2]int{e, {e[1], e[0]}} {
					if _, err := tx.Insert("Friends", entangle.Values(
						types.Int(int64(pair[0])), types.Int(int64(pair[1])))); err != nil {
						return err
					}
				}
			}
			for c := 0; c < d.cfg.Cities; c++ {
				for j := 0; j < d.cfg.Destinations; j++ {
					if _, err := tx.Insert("Flight", entangle.Values(
						types.Str(CityName(c)), types.Str(DestName(j)),
						types.Int(d.FlightID(c, j)))); err != nil {
						return err
					}
				}
			}
			return nil
		},
	})
	if o.Status != entangle.StatusCommitted {
		return fmt.Errorf("workload: seed failed: %v (%v)", o.Status, o.Err)
	}
	return nil
}

// NextPair returns the next same-hometown friend pair, cycling through the
// shuffled pool.
func (d *Dataset) NextPair() (u, v int) {
	e := d.samePairs[d.pairNext%len(d.samePairs)]
	d.pairNext++
	return e[0], e[1]
}

// RandomUser returns a uniformly random user.
func (d *Dataset) RandomUser() int { return d.rng.Intn(d.cfg.Users) }

// RandomDest returns a uniformly random destination index.
func (d *Dataset) RandomDest() int { return d.rng.Intn(d.cfg.Destinations) }

// SameTownGroup returns k users sharing one hometown (for the Figure 6(c)
// structures): the first pair's town anchors the group; additional members
// are any users from that town.
func (d *Dataset) SameTownGroup(k int) ([]int, error) {
	u, v := d.NextPair()
	town := d.Hometown[u]
	group := []int{u, v}
	for w := 0; w < d.cfg.Users && len(group) < k; w++ {
		if w != u && w != v && d.Hometown[w] == town {
			group = append(group, w)
		}
	}
	if len(group) < k {
		return nil, fmt.Errorf("workload: town %d has fewer than %d users", town, k)
	}
	return group[:k], nil
}
