// Golden counter table: every run counter a metrics.Result reports, pinned
// for a handful of 100 ms-quantum cells that between them make each
// counter fire. The values were captured from the hand-incremented
// collector; counting from the event stream must reproduce them exactly.
package vrcluster_test

import (
	"os"
	"reflect"
	"testing"
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/core"
	"vrcluster/internal/faults"
	"vrcluster/internal/metrics"
	"vrcluster/internal/policy"
	"vrcluster/internal/trace"
	"vrcluster/internal/workload"
)

// goldenFields lists every counter field of metrics.Result, in declaration
// order, plus Killed (the job-count twin of the collector's kill counter).
// ReservationTime is pinned in nanoseconds; PendingPeak is the one gauge.
var goldenFields = []string{
	"BlockingEpisodes", "Reservations", "ReservationTime", "ReservedMigration",
	"Migrations", "RemoteSubmissions", "FailedLandings", "PendingPeak", "Suspensions",
	"NodeCrashes", "NodeRecoveries", "JobsRequeued", "RefreshDrops",
	"MigrationAborts", "MigrationRetries", "MigrationGiveUps",
	"LeaseExpiries", "LeaseReselections", "DegradedLocal", "DegradedAdmits",
	"NodesJoined", "NodesDrained", "NodesRemoved", "DrainMigrations",
	"DomainPartitions", "AutoscaleUps", "AutoscaleDowns",
	"Killed",
}

// goldenCell is one pinned run.
type goldenCell struct {
	name string
	run  func(t *testing.T) *metrics.Result
	want map[string]int64
}

// goldenRun executes one standard group-1 trace at the 100 ms quantum.
func goldenRun(t *testing.T, level int, sched cluster.Scheduler, mutate func(*cluster.Config, *trace.Trace)) *metrics.Result {
	t.Helper()
	tr, err := trace.Standard(workload.Group1, level, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Cluster1()
	cfg.Quantum = equivQuantum
	if mutate != nil {
		mutate(&cfg, tr)
	}
	c, err := cluster.New(cfg, sched)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func goldenVR(t *testing.T, opts core.Options) cluster.Scheduler {
	t.Helper()
	s, err := core.NewVReconfiguration(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// goldenFaultPlan is the self-healing stress plan: crashes every mtbf per
// node, lost load exchanges, aborted transfers with a one-attempt budget
// (every abort gives up at once and strands its job), and a short
// degradation bound.
func goldenFaultPlan(crash faults.CrashPolicy, mtbf time.Duration) faults.Plan {
	return faults.Plan{
		MTBF:         mtbf,
		Crash:        crash,
		DropRate:     0.1,
		AbortRate:    0.3,
		MaxRetries:   1,
		DegradeAfter: 10 * time.Second,
	}
}

// goldenHorizon is the last submission instant of a trace.
func goldenHorizon(tr *trace.Trace) time.Duration {
	var last int64
	for _, it := range tr.Items {
		if it.SubmitMillis > last {
			last = it.SubmitMillis
		}
	}
	return time.Duration(last) * time.Millisecond
}

// goldenCells covers every counter:
//   - gls and vr at the paper defaults: migrations, remote submissions,
//     no-destination hits, blocked-submission peaks, and (vr) reservations,
//     reserved migrations and refused reservations;
//   - suspension: suspended victims;
//   - vr-lease-requeue and vr-lease-kill: crashes, repairs, requeues or
//     kills, dropped exchanges, aborts, give-ups, lease expiries and
//     reselections, degraded admissions;
//   - chaos: scripted joins and drains, the autoscaler, drain migrations,
//     domain crash waves and partitions, and retried aborts (the default
//     three-attempt budget).
//
// Failed landings fire without faults too (the vr cell), so every counter
// is reachable and the fired check below holds.
var goldenCells = []goldenCell{
	{
		name: "gls",
		run: func(t *testing.T) *metrics.Result {
			return goldenRun(t, 3, policy.NewGLoadSharing(), nil)
		},
		want: map[string]int64{
			"BlockingEpisodes": 74003, "Reservations": 0, "ReservationTime": 0, "ReservedMigration": 0,
			"Migrations": 383, "RemoteSubmissions": 490, "FailedLandings": 0, "PendingPeak": 267,
			"Suspensions": 0, "NodeCrashes": 0, "NodeRecoveries": 0, "JobsRequeued": 0,
			"RefreshDrops": 0, "MigrationAborts": 0, "MigrationRetries": 0, "MigrationGiveUps": 0,
			"LeaseExpiries": 0, "LeaseReselections": 0, "DegradedLocal": 0, "DegradedAdmits": 0,
			"NodesJoined": 0, "NodesDrained": 0, "NodesRemoved": 0, "DrainMigrations": 0,
			"DomainPartitions": 0, "AutoscaleUps": 0, "AutoscaleDowns": 0, "Killed": 0,
		},
	},
	{
		name: "vr",
		run: func(t *testing.T) *metrics.Result {
			return goldenRun(t, 3, goldenVR(t, core.Options{}), nil)
		},
		want: map[string]int64{
			"BlockingEpisodes": 51513, "Reservations": 172, "ReservationTime": 34478400000000, "ReservedMigration": 44,
			"Migrations": 500, "RemoteSubmissions": 532, "FailedLandings": 48, "PendingPeak": 257,
			"Suspensions": 0, "NodeCrashes": 0, "NodeRecoveries": 0, "JobsRequeued": 0,
			"RefreshDrops": 0, "MigrationAborts": 0, "MigrationRetries": 0, "MigrationGiveUps": 0,
			"LeaseExpiries": 0, "LeaseReselections": 0, "DegradedLocal": 34624, "DegradedAdmits": 0,
			"NodesJoined": 0, "NodesDrained": 0, "NodesRemoved": 0, "DrainMigrations": 0,
			"DomainPartitions": 0, "AutoscaleUps": 0, "AutoscaleDowns": 0, "Killed": 0,
		},
	},
	{
		name: "suspension",
		run: func(t *testing.T) *metrics.Result {
			return goldenRun(t, 3, policy.NewSuspension(), nil)
		},
		want: map[string]int64{
			"BlockingEpisodes": 621, "Reservations": 0, "ReservationTime": 0, "ReservedMigration": 0,
			"Migrations": 120, "RemoteSubmissions": 425, "FailedLandings": 0, "PendingPeak": 68,
			"Suspensions": 621, "NodeCrashes": 0, "NodeRecoveries": 0, "JobsRequeued": 0,
			"RefreshDrops": 0, "MigrationAborts": 0, "MigrationRetries": 0, "MigrationGiveUps": 0,
			"LeaseExpiries": 0, "LeaseReselections": 0, "DegradedLocal": 0, "DegradedAdmits": 0,
			"NodesJoined": 0, "NodesDrained": 0, "NodesRemoved": 0, "DrainMigrations": 0,
			"DomainPartitions": 0, "AutoscaleUps": 0, "AutoscaleDowns": 0, "Killed": 0,
		},
	},
	{
		name: "vr-lease-requeue",
		run: func(t *testing.T) *metrics.Result {
			return goldenRun(t, 3, goldenVR(t, core.Options{Lease: 30 * time.Second}), func(cfg *cluster.Config, _ *trace.Trace) {
				// Requeued work keeps the cluster saturated, so crashes
				// are rarer here than in the kill cell to keep the run short.
				cfg.Faults = goldenFaultPlan(faults.Requeue, time.Hour)
			})
		},
		want: map[string]int64{
			"BlockingEpisodes": 617116, "Reservations": 80, "ReservationTime": 11143200000000, "ReservedMigration": 13,
			"Migrations": 464, "RemoteSubmissions": 144, "FailedLandings": 48, "PendingPeak": 388,
			"Suspensions": 0, "NodeCrashes": 191, "NodeRecoveries": 186, "JobsRequeued": 645,
			"RefreshDrops": 79672, "MigrationAborts": 223, "MigrationRetries": 0, "MigrationGiveUps": 223,
			"LeaseExpiries": 73, "LeaseReselections": 66, "DegradedLocal": 519799, "DegradedAdmits": 1333,
			"NodesJoined": 0, "NodesDrained": 0, "NodesRemoved": 0, "DrainMigrations": 0,
			"DomainPartitions": 0, "AutoscaleUps": 0, "AutoscaleDowns": 0, "Killed": 0,
		},
	},
	{
		name: "vr-lease-kill",
		run: func(t *testing.T) *metrics.Result {
			return goldenRun(t, 3, goldenVR(t, core.Options{Lease: 30 * time.Second}), func(cfg *cluster.Config, _ *trace.Trace) {
				cfg.Faults = goldenFaultPlan(faults.Kill, 15*time.Minute)
			})
		},
		want: map[string]int64{
			"BlockingEpisodes": 88710, "Reservations": 45, "ReservationTime": 6060200000000, "ReservedMigration": 9,
			"Migrations": 354, "RemoteSubmissions": 50, "FailedLandings": 60, "PendingPeak": 200,
			"Suspensions": 0, "NodeCrashes": 140, "NodeRecoveries": 138, "JobsRequeued": 0,
			"RefreshDrops": 14277, "MigrationAborts": 177, "MigrationRetries": 0, "MigrationGiveUps": 177,
			"LeaseExpiries": 93, "LeaseReselections": 85, "DegradedLocal": 51889, "DegradedAdmits": 650,
			"NodesJoined": 0, "NodesDrained": 0, "NodesRemoved": 0, "DrainMigrations": 0,
			"DomainPartitions": 0, "AutoscaleUps": 0, "AutoscaleDowns": 0, "Killed": 424,
		},
	},
	{
		name: "chaos",
		run: func(t *testing.T) *metrics.Result {
			return goldenRun(t, 3, goldenVR(t, core.Options{Lease: 30 * time.Second}), func(cfg *cluster.Config, tr *trace.Trace) {
				h := goldenHorizon(tr)
				proto := cfg.Nodes[0]
				n := len(cfg.Nodes)
				cfg.Audit = true
				cfg.Faults = faults.Plan{
					MTBF:          30 * time.Minute,
					Crash:         faults.Requeue,
					DropRate:      0.05,
					AbortRate:     0.1,
					Domains:       4,
					DomainMTBF:    40 * time.Minute,
					PartitionMTBF: 20 * time.Minute,
				}
				cfg.Membership = []cluster.MembershipEvent{
					{At: h / 4, Kind: cluster.MemberJoin, Node: proto},
					{At: h / 3, Kind: cluster.MemberJoin, Node: proto},
					{At: h / 2, Kind: cluster.MemberDrain, ID: n - 1},
					{At: 2 * h / 3, Kind: cluster.MemberDrain, ID: n - 2},
				}
				cfg.Autoscale = cluster.AutoscaleConfig{
					MaxNodes: n + 8,
					MinNodes: n / 2,
					Proto:    proto,
				}
			})
		},
		want: map[string]int64{
			"BlockingEpisodes": 416735, "Reservations": 313, "ReservationTime": 30370000000000, "ReservedMigration": 7,
			"Migrations": 1281, "RemoteSubmissions": 2693, "FailedLandings": 1363, "PendingPeak": 464,
			"Suspensions": 0, "NodeCrashes": 1404, "NodeRecoveries": 1398, "JobsRequeued": 4946,
			"RefreshDrops": 238895, "MigrationAborts": 1181, "MigrationRetries": 873, "MigrationGiveUps": 308,
			"LeaseExpiries": 838, "LeaseReselections": 735, "DegradedLocal": 221955, "DegradedAdmits": 5624,
			"NodesJoined": 11, "NodesDrained": 27, "NodesRemoved": 27, "DrainMigrations": 22,
			"DomainPartitions": 144, "AutoscaleUps": 9, "AutoscaleDowns": 26, "Killed": 0,
		},
	},
}

// goldenValue reads one pinned field, durations in nanoseconds.
func goldenValue(res *metrics.Result, field string) int64 {
	v := reflect.ValueOf(res).Elem().FieldByName(field)
	if !v.IsValid() {
		return -1
	}
	return v.Int()
}

// TestGoldenCounters pins every Result counter per cell. Set
// VRCLUSTER_GOLDEN_DUMP=1 to print the observed table instead of checking.
func TestGoldenCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("golden counter cells run full standard traces")
	}
	dump := os.Getenv("VRCLUSTER_GOLDEN_DUMP") != ""
	fired := map[string]bool{}
	for _, cell := range goldenCells {
		res := cell.run(t)
		if dump {
			t.Logf("%s:", cell.name)
		}
		for _, f := range goldenFields {
			got := goldenValue(res, f)
			if got != 0 {
				fired[f] = true
			}
			if dump {
				t.Logf("\t%q: %d,", f, got)
				continue
			}
			want, ok := cell.want[f]
			if !ok {
				t.Errorf("%s: %s not pinned (got %d)", cell.name, f, got)
				continue
			}
			if got != want {
				t.Errorf("%s: %s = %d, want %d", cell.name, f, got, want)
			}
		}
	}
	if dump {
		return
	}
	for _, f := range goldenFields {
		if !fired[f] {
			t.Errorf("%s never fires in any golden cell", f)
		}
	}
}
