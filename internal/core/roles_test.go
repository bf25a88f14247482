package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"acme/internal/transport"
)

// roleRun is a pipeline whose roles each run on their own goroutine, as
// separate acmenode processes would. The first role to fail cancels the
// rest — except the victim, which runs under its own context and is
// expected to die with it.
type roleRun struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// victimDone is closed when the victim's goroutine returns.
	victimDone chan struct{}

	mu       sync.Mutex
	reports  []DeviceReport
	failures []error
}

// roleSystems builds one System per role over that role's own network,
// as each acmenode process builds its own from the identical Config.
func roleSystems[N transport.Network](t *testing.T, cfg Config, nets map[string]N) map[string]*System {
	t.Helper()
	systems := make(map[string]*System, len(nets))
	for role, n := range nets {
		sys, err := NewSystemWithNetwork(cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		systems[role] = sys
	}
	return systems
}

// runLimit caps a multi-role run over sockets. A healthy one takes a few
// seconds, under -race too; one that is still going at the cap is hung.
const runLimit = time.Minute

// cappedContext returns the context of a multi-role run that fails t
// with evidence if it outlives limit: every goroutine's stack goes to the
// test log while the hang is still in place, and only then is the
// context cancelled, so the roles return. Its cancel func, safe to call
// more than once, disarms the cap.
func cappedContext(t *testing.T, limit time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	fired := make(chan struct{})
	timer := time.AfterFunc(limit, func() {
		defer close(fired)
		var stacks strings.Builder
		pprof.Lookup("goroutine").WriteTo(&stacks, 2)
		t.Errorf("run still going after %v; every goroutine:\n%s", limit, stacks.String())
		cancel()
	})
	return ctx, sync.OnceFunc(func() {
		if !timer.Stop() {
			<-fired
		}
		cancel()
	})
}

// startRoles launches every role on the System sysOf names for it.
func startRoles(ctx context.Context, cancel context.CancelFunc, roles []string,
	sysOf func(role string) *System, victim string, victimCtx context.Context) *roleRun {
	r := &roleRun{cancel: cancel, victimDone: make(chan struct{})}
	for _, role := range roles {
		runCtx := ctx
		if role == victim {
			runCtx = victimCtx
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			res, err := sysOf(role).RunRole(runCtx, role)
			if role == victim {
				close(r.victimDone)
				return
			}
			r.finish(role, res, err)
		}()
	}
	return r
}

// finish records one role's outcome: an error fails the run and
// cancels it, and an edge's reports join the run's.
func (r *roleRun) finish(role string, res *Result, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.failures = append(r.failures, fmt.Errorf("%s: %w", role, err))
		r.cancel()
		return
	}
	if res != nil {
		r.reports = append(r.reports, res.Reports...)
	}
}

// wait waits for every role, fails t on any role's error, and returns
// the edges' reports merged in DeviceID order.
func (r *roleRun) wait(t *testing.T) []DeviceReport {
	t.Helper()
	reports, err := r.result()
	if err != nil {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	return reports
}

// result is wait for a caller that may not fail t: a bubble's goroutine.
func (r *roleRun) result() ([]DeviceReport, error) {
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	sortReportsByID(r.reports)
	return r.reports, errors.Join(r.failures...)
}
