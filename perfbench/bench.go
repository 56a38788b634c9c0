package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chef/internal/chef"
	"chef/internal/lowlevel"
	"chef/internal/minilua"
	"chef/internal/minipy"
	"chef/internal/obs"
	"chef/internal/packages"
	"chef/internal/serve"
	"chef/internal/solver"
	"chef/internal/symexpr"
	"chef/internal/symtest"
)

const (
	// exploreTimeout bounds one exploration; one that runs longer is
	// cancelled and counted as failed (none here takes more than about two
	// seconds).
	exploreTimeout = 60 * time.Second
	// Set-ups are also done between rounds only to time them, so the set-up
	// median has samples even when few rounds fit in a run: setupsAtStart
	// before the first round, then before each round as many more as bring
	// the count to setupsAtStart + setupsPerSecond × the seconds gone. The
	// samples thus spread over the run, like the explorations, rather than
	// catching the host in one moment.
	setupsAtStart   = 100
	setupsPerSecond = 10
	// serveClients is the closed loop's client count and serveWorkers the
	// server's pool size: both equal the 2 cores of the host the benchmark
	// was sized on, and are fixed so the workload is the same everywhere.
	serveClients = 2
	serveWorkers = 2
	// pollInterval is how often a serve client polls a job's status.
	pollInterval = 2 * time.Millisecond
)

// run is the outcome of one exploration.
type run struct {
	ex   exploration
	wall time.Duration // in-process: session build + run; served: POST until the tests are fetched
	body []byte        // the tests as NDJSON, the wire form of GET /v1/jobs/{id}/tests
	// tests are body parsed, in symtest.SortTests order.
	tests []symtest.SerializedTest
	fails []string
	// coverage is covered / coverable lines of the replayed tests.
	coverage float64
	// snap is the exploration's own metrics registry: set for traced
	// in-process runs and for every served job (the server always keeps one).
	snap *obs.Snapshot
	// served marks a chef-serve job; submit and fetch are its POST round
	// trip and test fetch.
	served        bool
	submit, fetch time.Duration
}

func (r *run) fail(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(r.ex.key()+": "+format, args...))
}

// round is one pass over the workload's exploration list.
type round struct {
	traced bool
	runs   []*run
	// wall is the round's measured time: the sum of its exploration times
	// when they run one after another, the makespan of the closed loop for
	// serve-mixed.
	wall time.Duration
	// Persistent store traffic of the round's fresh store.
	appended int64
	flush    obs.Snapshot // the store flusher's spans (traced rounds)
	// Traced rounds only.
	rt             runtimeDelta
	heapPeak       uint64
	rejected       int64   // serve.jobs.rejected at the end of the batch
	retainedHeapMB float64 // live heap once every job is terminal
}

// env is what one set-up builds: a fresh persistent store and, for
// serve-mixed, a server on a loopback port backed by it.
type env struct {
	store     *solver.PersistentStore
	storePath string
	flushReg  *obs.Registry
	srv       *serve.Server
	httpSrv   *http.Server
	served    chan error
	base      string
}

// setup compiles the workload's guest programs, opens a fresh store and,
// for serve-mixed, starts the server: everything before a round's first
// timed exploration. Compilation goes through the compiler directly so each
// set-up pays it (the process-wide interner would answer every set-up after
// the first), then interns the result the sessions run.
func setup(w workload, dir string, n int, traced bool) (*env, time.Duration, error) {
	start := time.Now()
	for _, name := range w.pkgs {
		p := mustPackage(name)
		var err error
		if p.Lang == packages.Python {
			if _, err = minipy.Compile(p.Source); err == nil {
				_, err = symtest.InternedPyProgram(p.Source)
			}
		} else {
			if _, err = minilua.Compile(p.Source); err == nil {
				_, err = symtest.InternedLuaProgram(p.Source)
			}
		}
		if err != nil {
			return nil, 0, fmt.Errorf("compile %s: %w", name, err)
		}
	}
	e := &env{storePath: filepath.Join(dir, fmt.Sprintf("store-%d.bin", n))}
	store, err := solver.OpenPersistentStore(e.storePath)
	if err != nil {
		return nil, 0, fmt.Errorf("open store: %w", err)
	}
	e.store = store
	if traced {
		e.flushReg = obs.NewRegistry()
		store.Attach(solver.Instruments{Spans: obs.NewSpanProfiler(e.flushReg, nil)})
	}
	if w.serve {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			store.Close()
			return nil, 0, fmt.Errorf("listen: %w", err)
		}
		e.srv = serve.NewServer(serve.Options{Workers: serveWorkers, Persist: store})
		e.httpSrv = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		e.served = make(chan error, 1)
		go func() { e.served <- e.httpSrv.Serve(ln) }()
		e.base = "http://" + ln.Addr().String()
	}
	return e, time.Since(start), nil
}

// close stops the server (if any), closes the store and deletes its file.
func (e *env) close() error {
	var errs []error
	if e.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		errs = append(errs, e.srv.Close()) // drains, then closes the store
	} else {
		errs = append(errs, e.store.Close())
	}
	errs = append(errs, os.Remove(e.storePath))
	return errors.Join(errs...)
}

// explore runs one exploration in-process through chef.NewSession and
// Session.RunContext, against the round's store (which answers nothing and
// takes every solved query).
func explore(ex exploration, store *solver.PersistentStore, traced bool) *run {
	r := &run{ex: ex}
	strat, _ := serve.ParseStrategy(ex.strategy)
	opts := chef.Options{
		Strategy:      strat,
		Seed:          ex.seed,
		StepLimit:     stepLimit,
		SolverOptions: solver.Options{Persist: store},
		Name:          ex.key(),
	}
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
		opts.Metrics = reg
		opts.Spans = obs.NewSpanProfiler(reg, nil)
	}
	ctx, cancel := context.WithTimeout(context.Background(), exploreTimeout)
	defer cancel()
	var (
		sess  *chef.Session
		tests []chef.TestCase
	)
	start := time.Now()
	panicked := func() (p any) {
		defer func() { p = recover() }()
		sess = chef.NewSession(ex.program(), opts)
		tests = sess.RunContext(ctx, ex.budget)
		return nil
	}()
	r.wall = time.Since(start)
	switch {
	case panicked != nil:
		r.fail("exploration panicked: %v", panicked)
		return r
	case sess.Cancelled():
		r.fail("exploration cancelled after %v", exploreTimeout)
	case sess.Stalled():
		r.fail("exploration stalled")
	}
	r.tests = make([]symtest.SerializedTest, 0, len(tests))
	for _, tc := range tests {
		r.tests = append(r.tests, symtest.SerializedTest{
			Package: ex.pkg.Name,
			Result:  tc.Result,
			Status:  tc.Status.String(),
			Input:   symtest.EncodeInput(tc.Input),
		})
	}
	symtest.SortTests(r.tests)
	body, err := symtest.MarshalTests(r.tests)
	if err != nil {
		r.fail("marshal tests: %v", err)
	}
	r.body = body
	if traced {
		snap := reg.Snapshot()
		r.snap = &snap
	}
	return r
}

// runRound runs one round in-process, one exploration after another.
func runRound(e *env, list []exploration, traced bool) *round {
	rd := &round{traced: traced}
	for _, ex := range list {
		r := explore(ex, e.store, traced)
		rd.runs = append(rd.runs, r)
		rd.wall += r.wall
	}
	return rd
}

// jobStatus is the part of GET /v1/jobs/{id} the clients read.
type jobStatus struct {
	ID      string         `json:"id"`
	State   serve.JobState `json:"state"`
	Error   string         `json:"error"`
	Metrics *obs.Snapshot  `json:"metrics"`
}

// serveRound runs one round as a closed loop: serveClients clients each
// submit a job, wait until its tests are fetched, then take the next job of
// the list.
func serveRound(e *env, list []exploration, traced bool) *round {
	rd := &round{traced: traced, runs: make([]*run, len(list))}
	client := &http.Client{Timeout: exploreTimeout}
	defer client.CloseIdleConnections()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				rd.runs[i] = serveJob(client, e.base, list[i])
			}
		}()
	}
	wg.Wait()
	rd.wall = time.Since(start)
	if traced {
		var snap obs.Snapshot
		if err := call(client, http.MethodGet, e.base+"/metrics", nil, &snap); err != nil {
			rd.runs[len(rd.runs)-1].fail("GET /metrics: %v", err)
		}
		rd.rejected = snap.Counters[obs.MServeJobsRejected]
	}
	return rd
}

// serveJob submits one job, polls it to a terminal state and fetches its
// tests.
func serveJob(c *http.Client, base string, ex exploration) *run {
	r := &run{ex: ex, served: true}
	body, err := json.Marshal(ex.spec())
	if err != nil {
		r.fail("marshal spec: %v", err)
		return r
	}
	start := time.Now()
	defer func() { r.wall = time.Since(start) }()
	var st jobStatus
	if err := call(c, http.MethodPost, base+"/v1/jobs", body, &st); err != nil {
		r.fail("POST /v1/jobs: %v", err)
		return r
	}
	r.submit = time.Since(start)
	for !st.State.Terminal() {
		if time.Since(start) > exploreTimeout {
			_, _ = send(c, http.MethodDelete, base+"/v1/jobs/"+st.ID, nil) // the failure is already counted
			r.fail("job %s not finished after %v", st.ID, exploreTimeout)
			return r
		}
		time.Sleep(pollInterval)
		if err := call(c, http.MethodGet, base+"/v1/jobs/"+st.ID, nil, &st); err != nil {
			r.fail("GET job %s: %v", st.ID, err)
			return r
		}
	}
	r.snap = st.Metrics
	if st.State != serve.StateSucceeded {
		r.fail("job %s %s: %s", st.ID, st.State, st.Error)
	}
	fetchStart := time.Now()
	data, err := send(c, http.MethodGet, base+"/v1/jobs/"+st.ID+"/tests", nil)
	r.fetch = time.Since(fetchStart)
	if err != nil {
		r.fail("GET tests of %s: %v", st.ID, err)
		return r
	}
	r.body = data
	if r.tests, err = symtest.UnmarshalTests(data); err != nil {
		r.fail("parse tests of %s: %v", st.ID, err)
	}
	return r
}

// send makes one request and returns the response body; any status outside
// 2xx is an error.
func send(c *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/json") // /metrics answers JSON only when asked
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// call is send with the JSON answer decoded into out.
func call(c *http.Client, method, url string, body []byte, out any) error {
	data, err := send(c, method, url, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// replayStats is what the oracle measures while replaying.
type replayStats struct {
	tests int
	wall  time.Duration
	hlLen int64
}

// checkReplay is the output oracle for one test: the concrete replay must
// end with the recorded status and, unless the run hung, the recorded
// result. A hang's result is wherever the step limit struck (Replay renames
// an empty one "hang"), so it is not compared. A test read back from the
// NDJSON wire form (fromWire) carries its result as JSON encoded it, with
// invalid UTF-8 replaced (haml's errors quote raw input bytes), so the replay
// result is compared in that form too.
func checkReplay(tc symtest.SerializedTest, rep symtest.ReplayResult, fromWire bool) error {
	if got := rep.Status.String(); got != tc.Status {
		return fmt.Errorf("recorded status %s, replay %s", tc.Status, got)
	}
	if tc.Status == lowlevel.RunHang.String() {
		return nil
	}
	got := rep.Result
	if fromWire {
		got = wireForm(got)
	}
	if got != tc.Result {
		return fmt.Errorf("recorded result %q, replay %q", tc.Result, got)
	}
	return nil
}

// wireForm is s after a JSON round trip (which cannot fail for a string).
func wireForm(s string) string {
	b, _ := json.Marshal(s)
	var out string
	_ = json.Unmarshal(b, &out)
	return out
}

// verify checks every run after the timed rounds: runs of the same
// exploration must agree byte for byte, every distinct exploration's tests
// pass the replay oracle on the vanilla interpreter, and (serve-mixed) each
// served test set equals the in-process serve.Execute of the same spec.
func verify(w workload, rounds []*round) replayStats {
	all := map[string][]*run{} // by exploration, in run order
	var keys []string
	for _, rd := range rounds {
		for _, r := range rd.runs {
			k := r.ex.key()
			if prev := all[k]; prev == nil {
				keys = append(keys, k)
			} else if f := prev[0]; f.body != nil && r.body != nil && !bytes.Equal(f.body, r.body) {
				r.fail("tests differ from an earlier run of the same exploration")
			}
			all[k] = append(all[k], r)
		}
	}
	sort.Strings(keys)
	var st replayStats
	for _, k := range keys {
		r := all[k][0]
		cov, fails := oracle(r, &st)
		if w.serve && r.body != nil {
			ref, err := serve.Execute(context.Background(), r.ex.spec(), serve.ExecOptions{})
			var want []byte
			if err == nil {
				want, err = symtest.MarshalTests(ref.Tests)
			}
			switch {
			case err != nil:
				fails = append(fails, fmt.Sprintf("in-process serve.Execute: %v", err))
			case !bytes.Equal(want, r.body):
				fails = append(fails, "served tests differ from in-process serve.Execute")
			}
		}
		for _, same := range all[k] {
			same.coverage = cov
			for _, f := range fails {
				same.fail("%s", f)
			}
		}
	}
	return st
}

// oracle replays one exploration's tests, adding to st, and returns their
// line coverage and the exploration's failures.
func oracle(r *run, st *replayStats) (float64, []string) {
	p := r.ex.pkg
	var replay func(symexpr.Assignment) symtest.ReplayResult
	var coverable int
	if p.Lang == packages.Python {
		t := p.PyTest(minipy.Vanilla)
		replay = func(in symexpr.Assignment) symtest.ReplayResult { return t.Replay(in, stepLimit) }
		coverable = len(t.Prog().CoverableLines())
	} else {
		t := p.LuaTest(minilua.Vanilla)
		replay = func(in symexpr.Assignment) symtest.ReplayResult { return t.Replay(in, stepLimit) }
		coverable = len(t.Prog().CoverableLines())
	}
	var fails []string
	covered := map[int]bool{}
	for _, tc := range r.tests {
		in, err := symtest.DecodeInput(tc.Input)
		if err != nil {
			fails = append(fails, err.Error())
			continue
		}
		start := time.Now()
		rep := replay(in)
		st.wall += time.Since(start)
		st.tests++
		st.hlLen += int64(rep.HLLen)
		for l := range rep.Lines {
			covered[l] = true
		}
		if err := checkReplay(tc, rep, r.served); err != nil {
			fails = append(fails, fmt.Sprintf("oracle: %v (input %s)", err, symtest.InputString(in, p.Inputs)))
		}
	}
	return float64(len(covered)) / float64(coverable), fails
}
