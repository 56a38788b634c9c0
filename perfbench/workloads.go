package main

import (
	"fmt"
	"math/rand"

	"chef/internal/chef"
	"chef/internal/minilua"
	"chef/internal/minipy"
	"chef/internal/obs"
	"chef/internal/packages"
	"chef/internal/serve"
)

// stepLimit is the per-run hang threshold of every exploration, the one
// chef-bench uses. The replay oracle uses the same limit, so a run that hangs
// symbolically must hang concretely too.
const stepLimit = 30_000

// exploration is one session of one package at one seed and a fixed virtual
// budget: the unit every end-to-end timing is taken over.
type exploration struct {
	pkg      *packages.Package
	strategy string // a serve.ParseStrategy name
	seed     int64
	budget   int64
}

// key identifies an exploration's inputs; two runs with the same key must
// generate byte-identical tests.
func (e exploration) key() string {
	return fmt.Sprintf("%s/%s/%d/%d", e.pkg.Name, e.strategy, e.seed, e.budget)
}

// spec is the exploration as a chef-serve job.
func (e exploration) spec() serve.JobSpec {
	return serve.JobSpec{
		Package:   e.pkg.Name,
		Strategy:  e.strategy,
		Budget:    e.budget,
		StepLimit: stepLimit,
		Seed:      e.seed,
	}
}

// program is the package's symbolic test on the optimized interpreter build.
func (e exploration) program() chef.TestProgram {
	if e.pkg.Lang == packages.Python {
		return e.pkg.PyTest(minipy.Optimized).Program()
	}
	return e.pkg.LuaTest(minilua.Optimized).Program()
}

// workload is one set of inputs the benchmark runs. A round is a list of
// explorations drawn from the workload seed's random stream; a run measures
// whole rounds until its time is up.
type workload struct {
	name string
	// pkgs are the guest programs compiled during set-up.
	pkgs []string
	// serve runs the round as jobs of a chef-serve closed loop instead of
	// in-process sessions.
	serve bool
	// repeat runs the same list every round. By default each round draws
	// new session seeds, so a run measures more distinct explorations.
	repeat bool
	// layer is the span layer the workload was chosen to load: the one with
	// the most self time in a traced run ("" for serve-mixed, which loads
	// the serving path as a whole).
	layer string
	round func(rng *rand.Rand) []exploration
}

// table3Interp is the paper's Table 3 breadth across both interpreters,
// without JSON, which lua-json-cupa runs, and xlrd and moonscript, whose
// explorations spend most of their time in the SAT backend.
var table3Interp = []string{
	"argparse", "ConfigParser", "HTMLParser", "simplejson", "unicodecsv",
	"cliargs", "haml", "markdown",
}

// Round sizes and budgets, sized on a 2-core host for runs of 35 s. JSON runs
// at chef-bench's budget of 600k, where one session's wall time varies least
// from seed to seed (coefficient of variation 0.23, against 0.50 at 200k).
const (
	jsonSessions   = 12
	jsonBudget     = 600_000
	table3Sessions = 2 // per package
	table3Budget   = 600_000
	serveSpecs     = 2 // distinct serve-mixed specs per package; each package also gets one repeat
)

// workloads are the benchmark's workloads; the README records the layer
// shares that justify each one.
var workloads = []workload{
	{
		name:  "lua-json-cupa",
		pkgs:  []string{"JSON"},
		layer: obs.SpanSolverCheck,
		round: func(rng *rand.Rand) []exploration {
			p := mustPackage("JSON")
			out := make([]exploration, jsonSessions)
			for i := range out {
				out[i] = exploration{pkg: p, strategy: "cupa-path", seed: sessionSeed(rng), budget: jsonBudget}
			}
			return out
		},
	},
	{
		name:  "table3-interp",
		pkgs:  table3Interp,
		layer: obs.SpanEngineRun,
		round: func(rng *rand.Rand) []exploration {
			var out []exploration
			for _, name := range table3Interp {
				for i := 0; i < table3Sessions; i++ {
					out = append(out, exploration{pkg: mustPackage(name), strategy: "cupa-path", seed: sessionSeed(rng), budget: table3Budget})
				}
			}
			return out
		},
	},
	{
		name:  "serve-mixed",
		pkgs:  table3Interp,
		serve: true,
		// Each distinct served spec is checked against an in-process
		// serve.Execute, so batches repeat one list to keep that check's
		// cost to one batch; repeats across batches must match byte for
		// byte.
		repeat: true,
		round: func(rng *rand.Rand) []exploration {
			// Every package gets the same number of distinct specs and one
			// repeat, so the mix is the same for every workload seed; the
			// seed picks the session seeds and the order.
			var out []exploration
			for _, name := range table3Interp {
				for i := 0; i < serveSpecs; i++ {
					out = append(out, exploration{pkg: mustPackage(name), strategy: "cupa-path", seed: sessionSeed(rng), budget: table3Budget})
				}
			}
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			for _, name := range table3Interp {
				// A repeat goes at least two jobs after its first run, so
				// with two clients that run has usually finished and the
				// repeat reads its solver work from the store.
				var firsts []int
				for i, e := range out {
					if e.pkg.Name == name {
						firsts = append(firsts, i)
					}
				}
				orig := firsts[rng.Intn(len(firsts))]
				lo := min(orig+2, len(out))
				at := lo + rng.Intn(len(out)-lo+1)
				out = append(out[:at], append([]exploration{out[orig]}, out[at:]...)...)
			}
			return out
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func mustPackage(name string) *packages.Package {
	p, ok := packages.ByName(name)
	if !ok {
		panic("unknown package " + name)
	}
	return p
}

// sessionSeed draws a session seed; 0 is avoided because a job spec treats it
// as "use the default seed".
func sessionSeed(rng *rand.Rand) int64 { return rng.Int63n(1<<31-1) + 1 }
