package loadinfo

import (
	"math/rand"
	"testing"
	"time"
)

// TestGenerationAdvancesOnEveryMutator pins the memoization contract of
// Generation: every mutator that can change an answer advances it, reads
// and no-op refreshes leave it alone, and Restore advances it past every
// value it has held instead of rewinding to the snapshot's.
func TestGenerationAdvancesOnEveryMutator(t *testing.T) {
	nodes := buildNodes(t, 3, 100, 4)
	b, err := NewBoard(3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	last := b.Generation()
	step := func(what string, advances bool) {
		t.Helper()
		g := b.Generation()
		switch {
		case advances && g <= last:
			t.Errorf("%s: generation %d, want > %d", what, g, last)
		case !advances && g != last:
			t.Errorf("%s: generation moved %d -> %d", what, last, g)
		}
		last = g
	}

	if err := b.Refresh(time.Second, nodes); err != nil {
		t.Fatal(err)
	}
	step("first refresh", true)
	if err := b.Refresh(2*time.Second, nodes); err != nil {
		t.Fatal(err)
	}
	step("refresh that changes nothing", false)
	if err := b.RefreshWith(3*time.Second, nodes, func(int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	step("refresh with every exchange dropped", false)
	admit(t, nodes[1], 1, 30)
	if err := b.Refresh(4*time.Second, nodes); err != nil {
		t.Fatal(err)
	}
	step("refresh after an admission", true)

	// Reads and the dense-select knob do not change any answer.
	_, _ = b.Entry(0)
	_ = b.Admits(0, 10)
	_, _ = b.BestDestinationExcluding(10, 0)
	_, _ = b.ReservationCandidateExcluding(-1)
	_ = b.MeanUserMB()
	_ = b.AccumulatedIdleMB(true)
	b.SetDenseSelect(true)
	b.SetDenseSelect(false)
	step("reads", false)

	snap := b.Snapshot()
	atSnap := b.Generation()

	if err := b.Publish(0, Entry{NodeID: 0, Slots: 4, IdleMB: 7, UserMB: 100, HasSlot: true}); err != nil {
		t.Fatal(err)
	}
	step("Publish", true)
	if err := b.NotePlacement(2, 5); err != nil {
		t.Fatal(err)
	}
	step("NotePlacement", true)
	if _, err := b.AddNode(Entry{NodeID: 3, Slots: 4, IdleMB: 100, UserMB: 100, HasSlot: true}); err != nil {
		t.Fatal(err)
	}
	step("AddNode", true)
	if err := b.Retire(3); err != nil {
		t.Fatal(err)
	}
	step("Retire", true)

	// Rejected mutations touch nothing.
	if b.Publish(9, Entry{}) == nil || b.NotePlacement(-1, 1) == nil || b.Retire(3) == nil ||
		b.RefreshWith(5*time.Second, nodes[:2], nil) == nil {
		t.Fatal("out-of-range mutation accepted")
	}
	step("rejected mutations", false)

	b.Restore(snap)
	step("Restore", true)
	if b.Generation() <= atSnap {
		t.Errorf("Restore rewound the generation to %d (snapshot taken at %d)", b.Generation(), atSnap)
	}
	b.Restore(snap)
	step("second Restore of the same snapshot", true)
}

// TestAdmitsMatchesEntry checks Admits against the Entry-based admission
// test it replaces, on random boards with every flag mix and on
// out-of-range ids.
func TestAdmitsMatchesEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 63, 64, 65, 200} {
		b, err := NewBoard(n, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			e := randomEntry(rng, i)
			switch rng.Intn(6) {
			case 0:
				e.Draining = true
			case 1:
				e.Removed, e.HasSlot = true, false
			}
			if err := b.Publish(i, e); err != nil {
				t.Fatal(err)
			}
		}
		for id := -2; id < n+2; id++ {
			need := float64(rng.Intn(8)) * 48
			want := false
			if e, err := b.Entry(id); err == nil {
				want = !e.Reserved && e.HasSlot && !e.Pressured && e.IdleMB >= need
			}
			if got := b.Admits(id, need); got != want {
				t.Fatalf("n=%d Admits(%d, %v) = %v, want %v", n, id, need, got, want)
			}
		}
	}
}
