package guard

// Planned-change lifecycle for a guard site. A crash (PR 4) is survived by
// the persisted keyring; a *planned* restart — binary upgrade, host
// maintenance — should not cost the population anything at all. The state
// machine here gives an orchestrator the handles it needs:
//
//	serving → draining → quiesced → restarting   (old instance)
//	                      warming  → serving     (new instance)
//
// Draining refuses new cookie exchanges (newcomers) while continuing to
// serve cookie-verified traffic, and lets in-flight NAT exchanges complete
// or time out. Quiesced means the instance holds no in-flight client state
// and can be torn down. The replacement instance starts Warming: it serves
// traffic (so a catchment front that routes early loses nothing) but
// advertises not-ready until its keyring epoch is current; the front
// restores the site's weight only then (see fleet's readiness gate and the
// /readyz endpoint in cmd/dnsguardd).
//
// States are exported as guard_lifecycle_* series: the state gauge, the
// transition counter, drains started, and newcomers refused by a drain.

import (
	"context"
	"errors"
	"strconv"
	"sync/atomic"
	"time"

	"dnsguard/internal/errs"
	"dnsguard/internal/metrics"
)

// LifecycleState is one node of the guard's planned-change state machine.
type LifecycleState int32

const (
	// LifecycleServing is the steady state: every scheme handled, newcomers
	// granted cookies. The zero value, so guards that never drain behave
	// exactly as before the lifecycle existed.
	LifecycleServing LifecycleState = iota
	// LifecycleDraining refuses new unverified flows while verified traffic
	// and in-flight exchanges complete.
	LifecycleDraining
	// LifecycleQuiesced holds no in-flight client state; safe to tear down.
	LifecycleQuiesced
	// LifecycleRestarting marks the old instance between quiesce and Close.
	LifecycleRestarting
	// LifecycleWarming is a fresh instance serving traffic but not yet
	// advertising readiness (keyring may trail the fleet epoch).
	LifecycleWarming
)

func (s LifecycleState) String() string {
	switch s {
	case LifecycleServing:
		return "serving"
	case LifecycleDraining:
		return "draining"
	case LifecycleQuiesced:
		return "quiesced"
	case LifecycleRestarting:
		return "restarting"
	case LifecycleWarming:
		return "warming"
	}
	return "LifecycleState(" + strconv.Itoa(int(s)) + ")"
}

// LifecycleStats counts lifecycle activity (exported as guard_lifecycle_*
// series): the guard's own transitions and drains, and the newcomers its
// shards refused.
type LifecycleStats struct {
	Transitions  uint64 // state changes since construction
	Drains       uint64 // Drain calls that entered draining
	DrainDropped uint64 // newcomer queries refused while draining/quiesced
}

// LifecycleStatsNames names LifecycleStats' fields in order (guard_lifecycle_*).
var LifecycleStatsNames = []string{"transitions", "drains", "drain_dropped"}

// lifecyclePoll paces Drain's quiesce polls (virtual time under netsim).
const lifecyclePoll = 200 * time.Microsecond

// ErrNotReady is the base error readiness probes wrap.
var ErrNotReady = errors.New("guard: not ready")

// Lifecycle reports the guard's current lifecycle state.
func (g *Remote) Lifecycle() LifecycleState {
	return LifecycleState(g.lcState.Load())
}

// setLifecycle moves the state machine and counts the transition.
func (g *Remote) setLifecycle(s LifecycleState) {
	if g.lcState.Swap(int32(s)) != int32(s) {
		atomic.AddUint64(&g.ctl.transitions, 1)
	}
}

// drainGate reports whether newcomer (cookie-less, unverified) queries must
// be refused: any state past serving means the instance is on its way down
// or not yet warmed into the catchment, and granting a cookie exchange it
// may not live to answer would strand the client.
func (g *Remote) drainGate() bool {
	return LifecycleState(g.lcState.Load()) != LifecycleServing &&
		LifecycleState(g.lcState.Load()) != LifecycleWarming
}

// Drain takes the guard from serving to quiesced: the newcomer gate refuses
// new cookie exchanges (drainGate, the one drain rule) while cookie-verified
// traffic is served, and in-flight NAT exchanges get a NAT-table entry's
// life (3 s) to end before the stragglers are dropped (counted as
// PendingDropped). Returns nil once quiesced; ctx.Err() if the context
// expires first, leaving the guard draining so the caller can retry or
// Resume. Safe to call from a netsim proc — all waiting is via Env.Sleep.
func (g *Remote) Drain(ctx context.Context) error {
	g.setLifecycle(LifecycleDraining)
	atomic.AddUint64(&g.ctl.drains, 1)
	// Let in-flight exchanges complete or time out: the longest any pending
	// NAT entry can legitimately live is pendingTimeout.
	deadline := g.now() + g.cfg.pendingTimeout
	for g.PendingEntries() > 0 && g.now() < deadline {
		if err := ctx.Err(); err != nil {
			return err
		}
		g.cfg.Env.Sleep(lifecyclePoll)
	}
	// Stragglers past their window are dropped, same accounting as an
	// upstream that never answered.
	for _, s := range g.shards {
		s.emptyPending()
	}
	g.setLifecycle(LifecycleQuiesced)
	return nil
}

// Resume aborts a drain: the guard returns to serving and grants newcomers
// cookies again.
func (g *Remote) Resume() { g.setLifecycle(LifecycleServing) }

// BeginRestart marks the quiesced instance as tearing down (call just
// before Close). Purely observational — Close works from any state — but
// it keeps the exported state gauge truthful during the swap.
func (g *Remote) BeginRestart() { g.setLifecycle(LifecycleRestarting) }

// WarmStart marks a freshly constructed replacement instance as warming:
// it serves traffic but Ready gates on the keyring epoch until MarkServing.
func (g *Remote) WarmStart() { g.setLifecycle(LifecycleWarming) }

// MarkServing completes a warm-up: the instance advertises full readiness.
func (g *Remote) MarkServing() { g.setLifecycle(LifecycleServing) }

// Healthz is the liveness probe: nil while the guard can make progress at
// all (process up, dataplane not closed). Deliberately lax — a draining or
// warming guard is alive.
func (g *Remote) Healthz() error {
	if g.closed.Load() {
		return errors.New("guard: closed")
	}
	return nil
}

// Ready is the readiness probe behind /readyz and the fleet's re-admission
// gate: nil only when the guard should receive catchment weight. minEpoch
// is the keyring epoch the caller requires (the fleet's current epoch; 0
// accepts any). Conditions: not closed, lifecycle serving or warming (a
// draining site must shed weight, not attract it), and keyring epoch
// current.
func (g *Remote) Ready(minEpoch uint64) error {
	if g.closed.Load() {
		return notReady("closed")
	}
	switch st := g.Lifecycle(); st {
	case LifecycleServing, LifecycleWarming:
	default:
		return notReady("lifecycle " + st.String())
	}
	if epoch := g.cfg.Auth.Epoch(); epoch < minEpoch {
		return notReady("keyring epoch " + strconv.FormatUint(epoch, 10) + " behind fleet epoch " + strconv.FormatUint(minEpoch, 10))
	}
	return nil
}

// notReady returns an ErrNotReady whose text ends in why.
func notReady(why string) error { return errs.Wrap(ErrNotReady.Error()+": "+why, ErrNotReady) }

// LifecycleStats returns the lifecycle counters, each read atomically.
func (g *Remote) LifecycleStats() LifecycleStats {
	t := g.total()
	return LifecycleStats{atomic.LoadUint64(&g.ctl.transitions), atomic.LoadUint64(&g.ctl.drains), t.drainDropped}
}

// lifecycleMetricsInto registers the guard_lifecycle_* series.
func (g *Remote) lifecycleMetricsInto(r *metrics.Registry) {
	r.FuncUint("guard_lifecycle_state", func() uint64 { return uint64(g.lcState.Load()) })
	metrics.RegisterUint64Fields(r, "guard_lifecycle_", LifecycleStatsNames, g.LifecycleStats)
}
