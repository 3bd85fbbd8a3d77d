package core

import (
	"time"

	"vrcluster/internal/cluster"
	"vrcluster/internal/job"
	"vrcluster/internal/node"
	"vrcluster/internal/obs"
	"vrcluster/internal/policy"
)

// VReconfiguration is dynamic load sharing supported by the adaptive and
// virtual reconfiguration method: it shares every line of the
// G-Loadsharing machinery and adds only the reconfiguration routine, as in
// the paper's framework ("While the load sharing system is on: if job
// submissions or/and migrations are allowed, general_dynamic_load_
// sharing(); else start reconfiguration").
type VReconfiguration struct {
	gls *policy.GLoadSharing
	mgr *Manager
}

var _ cluster.Scheduler = (*VReconfiguration)(nil)

// NewVReconfiguration composes the baseline with a reconfiguration manager.
func NewVReconfiguration(opts Options) (*VReconfiguration, error) {
	mgr, err := NewManager(opts)
	if err != nil {
		return nil, err
	}
	gls := policy.NewGLoadSharing()
	gls.SetName("V-Reconfiguration")
	if opts.Rule == RuleEarlyFit {
		gls.SetName("V-Reconfiguration/early-fit")
	}
	v := &VReconfiguration{gls: gls, mgr: mgr}
	gls.OnBlocked = mgr.OnBlocked
	gls.OnDone = mgr.OnJobDone
	return v, nil
}

// Manager exposes the reconfiguration state for tests and examples.
func (v *VReconfiguration) Manager() *Manager { return v.mgr }

// Name implements cluster.Scheduler.
func (v *VReconfiguration) Name() string { return v.gls.Name() }

// Place implements cluster.Scheduler by delegating to the baseline rule.
func (v *VReconfiguration) Place(c *cluster.Cluster, j *job.Job, home int) (int, bool, bool) {
	return v.gls.Place(c, j, home)
}

// OnControl runs the load-sharing control loop (whose blocking events feed
// the manager) and then advances reservations. The blocked jobs the manager
// refused a reservation during the loop are reported as one tally event,
// flushed within this control tick so a fork snapshot never holds a
// partial count.
func (v *VReconfiguration) OnControl(c *cluster.Cluster, now time.Duration) {
	refused := v.mgr.refusals()
	v.gls.OnControl(c, now)
	if n := v.mgr.refusals() - refused; n > 0 {
		c.Emit(obs.Event{At: now, Kind: obs.KindReserveRefused, Node: -1, Job: -1, Aux: int32(n)})
	}
	v.mgr.OnControl(c, now)
}

// OnJobDone implements cluster.Scheduler.
func (v *VReconfiguration) OnJobDone(c *cluster.Cluster, n *node.Node, j *job.Job) {
	v.gls.OnJobDone(c, n, j)
}

// LoadSharing exposes the underlying load-sharing policy so its admission
// and migration tuning can be adjusted.
func (v *VReconfiguration) LoadSharing() *policy.GLoadSharing { return v.gls }
