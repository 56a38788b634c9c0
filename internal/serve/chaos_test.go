package serve

import (
	"context"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"chef/internal/faults"
	"chef/internal/obs"
	"chef/internal/solver"
)

func mustPlan(t *testing.T, spec string) *faults.Plan {
	t.Helper()
	plan, err := faults.Parse(spec)
	if err != nil {
		t.Fatalf("faults plan %q: %v", spec, err)
	}
	return plan
}

// An injected worker.stall makes the job degraded-but-terminal: the state is
// final, the queue keeps moving, and the stall shows up in the server
// counters instead of wedging a worker.
func TestStalledJobReportsDegraded(t *testing.T) {
	// session=0 matches the first submitted job's global ordinal.
	plan := mustPlan(t, "seed=7;worker.stall:session=0")
	s := newTestServer(t, Options{Workers: 1, Faults: plan})

	stalled := s.submit(t, "", quickSpec(1))
	st := s.poll(t, stalled)
	if st.State != StateDegraded {
		t.Fatalf("stalled job state = %s, want degraded", st.State)
	}
	if st.Tests != 0 {
		t.Fatalf("stalled job produced %d tests, want 0", st.Tests)
	}
	// The stall is terminal, not wedging: the next job runs to completion
	// on the same worker.
	next := s.submit(t, "", quickSpec(2))
	if st := s.poll(t, next); st.State != StateSucceeded {
		t.Fatalf("job after the stalled one: %s (error %q)", st.State, st.Error)
	}
	reg := s.srv.Registry()
	if got := reg.Counter(obs.MServeJobsDegraded).Value(); got != 1 {
		t.Fatalf("degraded counter = %d, want 1", got)
	}
	if got := reg.Counter(obs.MSessionsStalled).Value(); got != 1 {
		t.Fatalf("merged chef.sessions.stalled = %d, want 1", got)
	}
	assertAccounting(t, s.srv)
}

// A chaos plan active across a batch of jobs: the queue drains, every
// submitted job reaches exactly one terminal state (the job-level mirror of
// the engine's Unknown == Requeued + Abandoned invariant), and stalled jobs
// are the degraded ones.
func TestChaosBatchNoJobSilentlyLost(t *testing.T) {
	plan := mustPlan(t, "seed=3;worker.stall:session=1;solver.unknown:p=0.2")
	s := newTestServer(t, Options{Workers: 2, Faults: plan})

	const n = 5
	ids := make([]string, n)
	for i := range ids {
		ids[i] = s.submit(t, "", quickSpec(int64(i+1)))
	}
	degraded := 0
	for _, id := range ids {
		st := s.poll(t, id)
		switch st.State {
		case StateSucceeded:
		case StateDegraded:
			degraded++
		default:
			t.Fatalf("job %s under chaos: %s (error %q)", id, st.State, st.Error)
		}
	}
	if degraded != 1 {
		t.Fatalf("degraded jobs = %d, want exactly 1 (session=1 rule)", degraded)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		t.Fatalf("drain under chaos: %v", err)
	}
	submitted, terminal, queued, running := s.srv.Accounting()
	if queued != 0 || running != 0 {
		t.Fatalf("queue not drained: queued %d, running %d", queued, running)
	}
	if submitted != terminal || submitted != n {
		t.Fatalf("job ledger: submitted %d, terminal %d, want both %d", submitted, terminal, n)
	}
}

// persist.write faults: the store's give-up path (entries lost after the
// retry budget) surfaces in /metrics via the live mirror.
func TestPersistGiveUpSurfacesInMetrics(t *testing.T) {
	store, err := solver.OpenPersistentStore(filepath.Join(t.TempDir(), "cxc.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// Every write fails: the flush retries, then gives up and drops the
	// pending entries — the loss path this test wants visible.
	plan := mustPlan(t, "seed=1;persist.write:err")
	reg := obs.NewRegistry()
	inj := plan.Injector("persist")
	inj.Instrument(reg)
	store.SetFaults(inj)

	s := newTestServer(t, Options{Workers: 1, Persist: store, Metrics: reg})
	id := s.submit(t, "", quickSpec(1))
	if st := s.poll(t, id); st.State != StateSucceeded {
		t.Fatalf("job state = %s", st.State)
	}
	// The job itself is unaffected (appends are asynchronous); the damage
	// is visible on the store and, after a /metrics scrape, in the registry.
	deadline := time.Now().Add(20 * time.Second)
	for store.Lost() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if store.Lost() == 0 {
		t.Fatal("store never gave up despite permanent write faults")
	}
	resp, body := s.do(t, "GET", "/metrics", "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	// A scrape without an Accept header gets the Prometheus exposition.
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	text := string(body)
	family := obs.PromName(obs.MSolverPersistLost) + "_total"
	lost := int64(-1)
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, family+" "); ok {
			lost, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	if lost <= 0 {
		t.Fatalf("/metrics: %s = %d, want > 0:\n%s", family, lost, text)
	}
	if reg.Counter(obs.MSolverPersistLost).Value() == 0 {
		t.Fatal("mirrored solver.persist.lost = 0 after give-up")
	}
	if reg.Counter(obs.MSolverPersistWriteErrors).Value() == 0 {
		t.Fatal("mirrored solver.persist.write_errors = 0 after write faults")
	}
	if reg.Counter(obs.MFaultsPersistWrite).Value() == 0 {
		t.Fatal("faults.injected.persist_write = 0 with an always-on plan")
	}
}
