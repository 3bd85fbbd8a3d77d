package policy_test

import (
	"math/rand"
	"testing"

	"vrcluster/internal/cluster"
	"vrcluster/internal/loadinfo"
	"vrcluster/internal/policy"
)

// entryPlace is the unmemoized, Entry-based admission rule GLoadSharing
// applied before Place cached its need and "no destination" verdict per
// board generation. It is the oracle the memoized Place must match.
func entryPlace(g *policy.GLoadSharing, board *loadinfo.Board, home int) (int, bool, bool) {
	need := g.AdmitFloorFrac * board.MeanUserMB()
	if he, err := board.Entry(home); err == nil {
		if !he.Reserved && he.HasSlot && !he.Pressured && he.IdleMB >= need {
			return home, false, true
		}
	}
	if id, ok := board.BestDestinationExcluding(need, home); ok {
		return id, true, true
	}
	return -1, false, false
}

// randomPlaceEntry draws one node's status for the Place property test.
// Idle memory comes from a coarse grid so ties, exact-floor hits and
// "no node qualifies" boards are all common, and every flag that makes a
// home pass the home test without being a destination (down, draining)
// or fail both (reserved, pressured, slot-full, removed) shows up.
func randomPlaceEntry(rng *rand.Rand, id int) loadinfo.Entry {
	e := loadinfo.Entry{
		NodeID: id,
		Jobs:   rng.Intn(5),
		Slots:  4,
		IdleMB: float64(rng.Intn(6)) * 16,
		UserMB: 128,
	}
	e.HasSlot = e.Jobs < e.Slots
	switch rng.Intn(10) {
	case 0:
		e.Pressured = true
	case 1:
		e.Reserved = true
	case 2:
		e.Down = true
	case 3:
		e.Draining = true
	case 4:
		e.Removed, e.HasSlot = true, false
	}
	return e
}

// TestPlaceMemoMatchesEntryPlace is the memoization property test: one
// GLoadSharing instance places against two random boards in turn, with
// AdmitFloorFrac changing between calls, placement debits, republished
// entries, retirements and snapshot restores mixed in, and homes both in
// and out of range. Every answer must equal the unmemoized rule's, and the
// cached "no destination" verdict must actually be taken.
func TestPlaceMemoMatchesEntryPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := policy.NewGLoadSharing()
	fracs := []float64{0, policy.DefaultAdmitFloorFrac, 0.25, 0.5, 1}

	var clusters []*cluster.Cluster
	var snaps [][]*loadinfo.Snapshot
	for _, n := range []int{5, 130} {
		c := testCluster(t, n, policy.NewGLoadSharing())
		for i := 0; i < n; i++ {
			if err := c.Board().Publish(i, randomPlaceEntry(rng, i)); err != nil {
				t.Fatal(err)
			}
		}
		clusters = append(clusters, c)
		snaps = append(snaps, []*loadinfo.Snapshot{c.Board().Snapshot()})
	}

	verdicts := 0
	for step := 0; step < 40000; step++ {
		k := rng.Intn(len(clusters))
		c, board := clusters[k], clusters[k].Board()
		n := board.Len()
		switch r := rng.Intn(100); {
		case r < 3:
			g.AdmitFloorFrac = fracs[rng.Intn(len(fracs))]
		case r < 5:
			_ = board.NotePlacement(rng.Intn(n), float64(rng.Intn(4))*16)
		case r < 7:
			id := rng.Intn(n)
			if err := board.Publish(id, randomPlaceEntry(rng, id)); err != nil {
				t.Fatal(err)
			}
		case r < 8:
			_ = board.Retire(rng.Intn(n))
		case r < 9:
			snaps[k] = append(snaps[k], board.Snapshot())
		case r < 10:
			board.Restore(snaps[k][rng.Intn(len(snaps[k]))])
		default:
			home := rng.Intn(n+4) - 2
			wantID, wantRemote, wantOK := entryPlace(g, board, home)
			before, _ := board.SelectStats()
			id, remote, ok := g.Place(c, nil, home)
			after, _ := board.SelectStats()
			if id != wantID || remote != wantRemote || ok != wantOK {
				t.Fatalf("step %d board %d home %d frac %v: Place = (%d, %v, %v), want (%d, %v, %v)",
					step, k, home, g.AdmitFloorFrac, id, remote, ok, wantID, wantRemote, wantOK)
			}
			if !ok && after == before {
				verdicts++
			}
			// Successful placements debit the board as the cluster does.
			if ok && rng.Intn(2) == 0 {
				_ = board.NotePlacement(id, float64(rng.Intn(3))*16)
			}
		}
	}
	if verdicts == 0 {
		t.Fatal("the cached no-destination verdict was never used")
	}
	t.Logf("%d blocked placements answered from the cached verdict", verdicts)
}
