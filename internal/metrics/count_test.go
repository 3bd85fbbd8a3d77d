package metrics

import (
	"reflect"
	"testing"
	"time"

	"vrcluster/internal/obs"
)

// TestCountMovesExactlyItsField folds one event per counted kind and flag
// combination into zero counters and requires that exactly the named
// fields moved, by exactly the given amounts. Tally kinds add Aux.
func TestCountMovesExactlyItsField(t *testing.T) {
	covered := map[obs.Kind]bool{}
	for _, tc := range []struct {
		name string
		ev   obs.Event
		want Counters
	}{
		{"no-destination tally", obs.Event{Kind: obs.KindNoDestination, Aux: 7}, Counters{BlockingEpisodes: 7}},
		{"reservation", obs.Event{Kind: obs.KindReserveAcquire, Aux: -1}, Counters{Reservations: 1}},
		{"reselect acquire", obs.Event{Kind: obs.KindReserveAcquire, Aux: 3}, Counters{}},
		{"release", obs.Event{Kind: obs.KindReserveRelease, Val: 1.5}, Counters{ReservationTime: 1500 * time.Millisecond}},
		{"instant release", obs.Event{Kind: obs.KindReserveRelease, Val: 0}, Counters{}},
		{"migration", obs.Event{Kind: obs.KindMigrationStart}, Counters{Migrations: 1}},
		{"special migration", obs.Event{Kind: obs.KindMigrationStart, Flags: obs.FlagSpecial}, Counters{Migrations: 1, ReservedMigration: 1}},
		{"drain migration", obs.Event{Kind: obs.KindMigrationStart, Flags: obs.FlagDrain}, Counters{Migrations: 1, DrainMigrations: 1}},
		{"remote submission", obs.Event{Kind: obs.KindRemoteSubmit}, Counters{RemoteSubmissions: 1}},
		{"failed landing", obs.Event{Kind: obs.KindLandingFail}, Counters{FailedLandings: 1}},
		{"suspension", obs.Event{Kind: obs.KindJobSuspend}, Counters{Suspensions: 1}},
		{"crash", obs.Event{Kind: obs.KindNodeCrash}, Counters{NodeCrashes: 1}},
		{"repair", obs.Event{Kind: obs.KindNodeRepair}, Counters{NodeRecoveries: 1}},
		{"kill", obs.Event{Kind: obs.KindJobKill}, Counters{JobsKilled: 1}},
		{"requeue", obs.Event{Kind: obs.KindJobRequeue}, Counters{JobsRequeued: 1}},
		{"refresh-drop tally", obs.Event{Kind: obs.KindRefreshDrop, Aux: 4}, Counters{RefreshDrops: 4}},
		{"abort", obs.Event{Kind: obs.KindMigrationAbort}, Counters{MigrationAborts: 1}},
		{"retry", obs.Event{Kind: obs.KindMigrationRetry}, Counters{MigrationRetries: 1}},
		{"give-up", obs.Event{Kind: obs.KindMigrationGiveUp}, Counters{MigrationGiveUps: 1}},
		{"lease expiry", obs.Event{Kind: obs.KindLeaseExpire, Flags: obs.FlagCrash}, Counters{LeaseExpiries: 1}},
		{"lease reselection", obs.Event{Kind: obs.KindLeaseReselect}, Counters{LeaseReselections: 1}},
		{"refused tally", obs.Event{Kind: obs.KindReserveRefused, Aux: 5}, Counters{DegradedLocal: 5}},
		{"degraded admission", obs.Event{Kind: obs.KindDegrade}, Counters{DegradedAdmits: 1}},
		{"scripted join", obs.Event{Kind: obs.KindNodeJoin}, Counters{NodesJoined: 1}},
		{"autoscaled join", obs.Event{Kind: obs.KindNodeJoin, Flags: obs.FlagAutoscale}, Counters{NodesJoined: 1, AutoscaleUps: 1}},
		{"scripted drain", obs.Event{Kind: obs.KindNodeDrain}, Counters{NodesDrained: 1}},
		{"autoscaled drain", obs.Event{Kind: obs.KindNodeDrain, Flags: obs.FlagAutoscale}, Counters{NodesDrained: 1, AutoscaleDowns: 1}},
		{"removal", obs.Event{Kind: obs.KindNodeRemove}, Counters{NodesRemoved: 1}},
		{"partition", obs.Event{Kind: obs.KindDomainOutage, Flags: obs.FlagPartition}, Counters{DomainPartitions: 1}},
		{"crash wave", obs.Event{Kind: obs.KindDomainOutage}, Counters{}},
		// Kinds that report no counted decision move nothing.
		{"sample", obs.Event{Kind: obs.KindNodeSample, Aux: 3, Val: 64, Flags: obs.FlagDrain}, Counters{}},
		{"admit", obs.Event{Kind: obs.KindJobAdmit, Val: 40}, Counters{}},
		{"submit", obs.Event{Kind: obs.KindJobSubmit}, Counters{}},
		{"block", obs.Event{Kind: obs.KindJobBlock}, Counters{}},
		{"done", obs.Event{Kind: obs.KindJobDone}, Counters{}},
		{"landing", obs.Event{Kind: obs.KindMigrationComplete, Flags: obs.FlagSpecial}, Counters{}},
		{"transfer start", obs.Event{Kind: obs.KindTransferStart, Aux: 1, Val: 8}, Counters{}},
		{"transfer end", obs.Event{Kind: obs.KindTransferEnd, Aux: 1, Val: 2}, Counters{}},
		{"transfer cancel", obs.Event{Kind: obs.KindTransferCancel, Aux: 1, Val: 1}, Counters{}},
		{"episode open", obs.Event{Kind: obs.KindEpisodeOpen}, Counters{}},
		{"episode close", obs.Event{Kind: obs.KindEpisodeClose, Val: 9}, Counters{}},
		{"promote", obs.Event{Kind: obs.KindReservePromote, Aux: 2}, Counters{}},
		{"restore", obs.Event{Kind: obs.KindDomainRestore, Flags: obs.FlagPartition}, Counters{}},
	} {
		covered[tc.ev.Kind] = true
		var got Counters
		got.Count(tc.ev)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: counters %+v, want %+v", tc.name, got, tc.want)
		}
	}
	for k := obs.Kind(1); ; k++ {
		if _, err := obs.ParseKind(k.String()); err != nil {
			break
		}
		if !covered[k] {
			t.Errorf("kind %v has no row; say which counter it moves, if any", k)
		}
	}
}

// TestCountReservationTimeRoundTrips checks that summing seconds-valued
// release events reproduces the exact nanosecond durations they encode,
// up to the default 1000 h virtual-time bound.
func TestCountReservationTimeRoundTrips(t *testing.T) {
	var c Counters
	var want time.Duration
	for _, d := range []time.Duration{1, 999_999_999, 100 * time.Millisecond, 3*time.Hour + 7, 1000*time.Hour - 1} {
		c.Count(obs.Event{Kind: obs.KindReserveRelease, Val: d.Seconds()})
		want += d
	}
	if c.ReservationTime != want {
		t.Errorf("ReservationTime = %v, want %v", c.ReservationTime, want)
	}
}

// TestCountDoesNotAllocate keeps the always-on fold off the heap.
func TestCountDoesNotAllocate(t *testing.T) {
	var c Counters
	ev := obs.Event{Kind: obs.KindMigrationStart, Flags: obs.FlagSpecial}
	if n := testing.AllocsPerRun(100, func() { c.Count(ev) }); n != 0 {
		t.Errorf("Count allocates %v per event", n)
	}
}
